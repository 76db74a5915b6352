(** Algorithm 2 on real hardware: the k-multiplicative-accurate m-bounded
    max register over [Atomic] cells.

    The body is {!Atomic_algo.Kmaxreg}, {!Algo.Kmaxreg_algo} over
    {!Backend.Atomic_backend}; the exact inner max register is the
    shared {!Algo.Tree_maxreg_algo} AACH switch heap over the index
    range [0 .. floor(log_k (m-1)) + 1] (the same body as the
    simulator's {!Sim_algo.Tree_maxreg}), so [write]/[read] cost
    [O(log2 log_k m)] shared accesses and allocate nothing. *)

type t

val create : m:int -> k:int -> unit -> t
(** @raise Invalid_argument if [k < 2] or [m < 2]. *)

val write : t -> int -> unit
(** {!Atomic_algo.Kmaxreg.write_fast}: a write the register already
    covers costs one atomic load and leaves the switch heap and the
    {!read_fast} cache untouched.
    @raise Invalid_argument if the value is outside [0 .. m-1]. *)

val read : t -> int
(** Returns 0 or a power of [k]. *)

val read_fast : t -> int
(** Validated-cache read: one atomic load when nothing was written to
    the inner switch heap since the last completed full read,
    otherwise a full {!read}. Single-cache (pid 0), so meaningful for
    a single reading domain — the service layer's owning shard. *)

val fast_hits : t -> int
val fast_misses : t -> int

val bound : t -> int
val k : t -> int
