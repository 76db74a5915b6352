(** The hardware backend: array primitives over contiguous {!Flat}
    atomic blocks, scalar cells over padded OCaml 5 [Atomic]s,
    runnable across domains.

    Satisfies {!Backend_intf.S} with every operation allocation-free
    ([ann] is a {!Packed} immediate word). One layout rule covers every
    array: slots are stride 1 unless distinct pids write distinct
    slots, which get one slot per cache line. So a multi-writer
    register array is one flat block at stride 1 at every length (tree
    siblings share cache lines; unrolled scans issue independent line
    fetches; {!Backend_intf.S.reg_prefetch} is a real
    [__builtin_prefetch]). Adjacent switches may false-share on
    writes, but switch writes are rare: covered max-register writes
    skip the heap walk, and readers serve the validated cache.
    Single-writer slots and announcements share one strided
    representation: one flat block at one-slot-per-cache-line stride
    when [n > 1], so distinct pids never contend on a line, and a
    single word when [n = 1]. The switch sequence is stride-1 flat
    chunks of 64 switches behind a directory that grows lock-free on
    demand from [capacity_hint] (default: one chunk), sharing chunk
    blocks across grows so concurrent test&sets are never lost; the
    absolute ceiling is [Packed.max_value + 1 = 2^20] switches,
    imposed by the packed announcement encoding, beyond which
    {!Ts_capacity_exceeded} reports both the index and the ceiling. *)

include Backend_intf.S

val ctx : ?count_steps:int -> unit -> ctx
(** [ctx ()] is a non-counting context ({!Backend_intf.S.steps}
    returns 0; one predictable branch of overhead per primitive).
    [ctx ~count_steps:n ()] additionally keeps one padded step counter
    per pid in [0 .. n-1], each written only by its owner — exact per
    owning domain, contention-free, still allocation-free.
    @raise Invalid_argument if [count_steps < 1]. *)
