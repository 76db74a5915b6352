(** Algorithm 1 on real hardware: the k-multiplicative-accurate counter
    over OCaml 5 [Atomic] cells, runnable across domains.

    The algorithm body is {!Atomic_algo.Kcounter}: the functor
    {!Algo.Kcounter_algo} applied to {!Backend.Atomic_backend} (the
    simulator's copy is {!Sim_algo.Kcounter}), with test&set realised as
    [Atomic.compare_and_set switch 0 1]. Each participating domain must
    own a distinct pid in [0 .. n-1]; per-pid local state is
    unsynchronised by design (the algorithm's locals are
    process-private).

    Hot-path properties (inherited from the Atomic backend):
    - [increment] and [read] perform zero heap allocations, including
      on the announcement and helping slow paths: announcements are
      stored as {!Backend.Packed} single-word atomics rather than
      tuples, and the read helping baseline reuses a per-pid scratch
      array.
    - with [n > 1], per-pid state ([H] announcement cells, locals,
      scratch) is padded to cache-line granularity ({!Backend.Padded})
      so increments by different domains never contend on a line. With
      [n = 1] there is one writer and the padding is skipped.

    Capacity: the switch sequence starts at [switch_capacity] cells,
    rounded up to whole 64-switch chunks, and grows (lock-free, by
    doubling the chunk directory) on demand, so exhaustion is
    recoverable — growth allocates. Algorithm 1 sets about
    [k·⌈log_k v⌉] switches for a count of [v] (56 for [v = 10^8] at
    [k = 4], 64 for [v = 2^32] at [k = 2]), so the default single
    chunk rarely grows, and an [n = 1] counter holds under 1 KB of
    live heap. The absolute ceiling is
    {!max_capacity} [= 2^20] switches, imposed by the packed
    announcement encoding; {!Capacity_exceeded} is raised beyond it
    (unreachable in any physical execution: switch [2^20] with [k = 2]
    would take [2^(2^19)] increments). *)

exception Capacity_exceeded of { index : int; max_capacity : int }
(** Raised if the switch-capacity ceiling is ever exceeded, carrying
    both the offending index and the ceiling itself (so the message is
    actionable without consulting these docs). An alias of the Atomic
    backend's [Ts_capacity_exceeded]. *)

val max_capacity : int
(** The absolute switch-capacity ceiling, [2^20] — the number of
    switch indices the packed announcement encoding can name. *)

type t

val create : ?switch_capacity:int -> n:int -> k:int -> unit -> t
(** @raise Invalid_argument if [k < 2], [n < 1], or [switch_capacity]
    is outside [1 .. max_capacity]. [switch_capacity] (default 64, one
    chunk) is only the initial allocation; the switch array grows on
    demand. *)

val increment : t -> pid:int -> unit

val add : t -> pid:int -> int -> unit
(** Bulk increment: [amount] logical increments buffered locally,
    touching shared switches only at the limit boundaries unit
    increments would also cross — so amortized shared-memory cost per
    logical increment drops with the batch size while the k-envelope
    is preserved (deferral up to the local limit is Algorithm 1's own
    slack mechanism). Allocation-free.
    @raise Invalid_argument on a negative amount. *)

val read : t -> pid:int -> int

val read_fast : t -> pid:int -> int
(** Validated-cache read: one atomic load (and zero allocations) when
    no switch flipped since [pid]'s last completed full read,
    otherwise a full {!read}. Linearizable, same k-accuracy as
    {!read}; the watermark protocol is documented in
    {!Algo.Kcounter_algo}. *)

val fast_hits : t -> pid:int -> int
(** {!read_fast} calls by [pid] served from its cache. *)

val fast_misses : t -> pid:int -> int
(** {!read_fast} calls by [pid] that fell through to a full read. *)

val k : t -> int
val n : t -> int

val capacity : t -> int
(** Current length of the (growable) switch array. *)

val switches_set : t -> int
(** Number of switches currently set (diagnostic; racy by nature). *)
