(** Algorithm 2 as a functor over the primitive backend.

    The k-multiplicative-accurate m-bounded max register (Section IV):
    writes store base-k digit indices into an exact bounded max
    register [M] of bound [floor(log_k (m-1)) + 2]; reads return 0 or
    [k^p] with [v < k^p <= v*k] (Lemma IV.1). The inner register
    defaults to the shared {!Tree_maxreg_algo} switch heap; wrappers
    may pass any exact max-register handle instead. *)

module Make (B : Backend.Backend_intf.S) : sig
  module Tree : module type of Tree_maxreg_algo.Make (B)

  type t

  val inner_bound : m:int -> k:int -> int
  (** The value bound of the inner exact register,
      [floor(log_k (m-1)) + 2]. Exposed so wrappers substituting their
      own inner register size it identically. *)

  val create :
    B.ctx ->
    ?name:string ->
    ?inner:Obj_intf.max_register ->
    ?n:int ->
    m:int ->
    k:int ->
    unit ->
    t
  (** Build phase only. [inner] (default: a fresh
      {!Tree_maxreg_algo} instance of bound {!inner_bound}) must be an
      {e exact} max register over [0 .. inner_bound - 1]. [n] (default
      1) sizes the per-pid {!read_fast} caches; pids in [0 .. n-1] may
      use the fast read path.
      @raise Invalid_argument if [k < 2], [m < 2] or [n < 1]. *)

  val write : t -> pid:int -> int -> unit
  (** @raise Invalid_argument if the value is outside [0 .. m-1].
      Writing 0 is a no-op (the register starts at 0). *)

  val write_fast : t -> pid:int -> int -> unit
  (** {!write} behind a futile-write filter. A one-word threshold
      [T = min(k^p, max_int)], where [p] is the largest inner index
      whose write has {e returned} (so [T] starts at 1), names what the
      inner register is known to hold. A write of [v < T] is covered by
      it and returns after that one load: no logarithm, no switch-heap
      walk, no watermark bump (so {!read_fast} caches stay valid). Any
      other write runs {!write}'s body and then raises [T] with a
      CAS-max loop that retries at most {!inner_bound} times
      (wait-free). Linearizable with any mix of {!write}/{!write_fast}
      callers and any [inner]; {!write}'s charged-step sequence is
      untouched. A filtered write costs one primitive step and
      allocates nothing.
      @raise Invalid_argument as {!write}. *)

  val read : t -> pid:int -> int
  (** 0 or a power of [k], saturated at [max_int] where that power
      overflows (still within the envelope, as every value is at most
      [max_int]); may exceed [m - 1] (the relaxed specification only
      requires [x <= v*k]). *)

  val read_fast : t -> pid:int -> int
  (** Validated-cache read over the default inner heap's modification
      watermark: one primitive step and zero allocations when nothing
      was written since [pid]'s last completed full read. Falls back
      to {!read} when a custom [inner] handle was supplied (its
      watermark is not observable). [pid] must be within the [n] of
      {!create}. *)

  val fast_hits : t -> pid:int -> int
  val fast_misses : t -> pid:int -> int

  val bound : t -> int
  val k : t -> int
  val handle : t -> Obj_intf.max_register
end
