(** Algorithm 1 as a functor over the primitive backend: the wait-free
    linearizable unbounded k-multiplicative-accurate counter
    (Section III), written once against {!Backend.Backend_intf.S}.
    {!Sim_algo.Kcounter} instantiates it over {!Sim_backend} for
    exact-step simulation, {!Mcore.Atomic_algo.Kcounter} over
    {!Backend.Atomic_backend} for the zero-allocation multicore object
    (wrapped by {!Mcore.Mc_kcounter}); a {!Backend.Chaos_backend}
    decoration of either injects faults.

    Shared state is an unbounded sequence of test&set bits
    [switch_0, switch_1, ...] and a helping array [H] of [n] atomic
    [(val, sn)] pairs. Each process counts its increments locally
    ([lcounter]); on reaching its threshold [limit = k^j] it probes the
    switches of interval [(j-1)k+1 .. jk] (or [switch_0] when [j = 0])
    with test&set, announcing [k^j] increments when a probe succeeds.
    Reads scan the first and last switch of each interval from a
    persistent position [last] and derive the return value from the
    last set switch seen; every [n] loop iterations they rescan [H] and
    return through the helping mechanism once some process's sequence
    number advanced by at least 2 within the read's interval.

    Guarantees (Theorem III.9): wait-free; linearizable with every read
    [x] of a true count [v] satisfying [v/k <= x <= v*k] provided
    [k >= sqrt n]; constant amortized step complexity.

    The body follows the paper's pseudocode line by line, with the two
    reconstructions documented in DESIGN.md: [limit] is multiplied by
    [k] exactly when a probe interval is exhausted (successfully at its
    last switch, or unsuccessfully past it, or at [switch_0]), and the
    read-side [(p, q)] pair is persistent alongside [last]. *)

module Make (B : Backend.Backend_intf.S) : sig
  type t

  val max_capacity : int
  (** The backend's absolute switch-index ceiling for this object:
      the smaller of its test&set capacity and its announcement
      encoding range. Exceeding it raises the backend's
      [Ts_capacity_exceeded] with both index and ceiling. *)

  val create :
    B.ctx -> ?name:string -> ?capacity_hint:int -> n:int -> k:int -> unit -> t
  (** Build phase only. [capacity_hint] presizes the backend's switch
      storage where one exists (the Atomic backend's default is one
      64-switch chunk; past it the array grows on demand). With
      [n = 1] the per-pid locals and helping scratch are not
      cache-line padded: there is no second writer to keep apart.
      @raise Invalid_argument if [k < 2] or [n < 1]. The accuracy
      guarantee additionally needs [k >= sqrt n], which is {e not}
      enforced (experiment E7 exercises the failure regime). *)

  val increment : t -> pid:int -> unit
  (** [CounterIncrement] (lines 10-28); at most [k + 1] primitive
      steps, 0 while below the local threshold. Equivalent to
      [add t ~pid 1] (and implemented as such). *)

  val add : t -> pid:int -> int -> unit
  (** [add t ~pid amount] applies [amount] logical increments. The
      deferred total is buffered in [pid]'s local counter and shared
      switches are touched only at the limit boundaries [amount] unit
      increments would also cross, so one bulk [add] performs the same
      primitive steps as the equivalent increment sequence — but the
      arithmetic between boundaries is free. Amortized cost per
      logical increment therefore stays within Theorem III.9's
      constant bound and {e drops} as [amount] grows.
      @raise Invalid_argument if [amount < 0].
      @raise Zmath.Overflow if the deferred total or the announce
      threshold would exceed [max_int]. *)

  val read : t -> pid:int -> int
  (** [CounterRead] (lines 35-58); wait-free via helping. *)

  val read_fast : t -> pid:int -> int
  (** Validated-cache read: one watermark load (one primitive step,
      zero allocations) when no switch has flipped since [pid]'s last
      completed full read; otherwise a full {!read} bracketed by
      watermark loads, cached only if no flip raced it. Linearizable —
      the backend's watermark contract guarantees any flip the
      validation load has not observed belongs to a still-concurrent
      operation. Same accuracy envelope as {!read}. *)

  val fast_hits : t -> pid:int -> int
  (** {!read_fast} calls by [pid] served from its cache. *)

  val fast_misses : t -> pid:int -> int
  (** {!read_fast} calls by [pid] that fell through to a full read. *)

  val k : t -> int
  val n : t -> int

  val local_pending : t -> pid:int -> int
  (** [pid]'s unannounced local increment count; test hook. *)

  val switch_states : t -> (int * bool) list
  (** Post-mortem dump of the materialised switches as
      [(index, is_set)] pairs, sorted by index — used by the Figure 1
      reproduction and the switch-order property tests. No steps. *)

  val capacity : t -> int
  (** Current physical switch capacity (diagnostic). *)

  val switches_set : t -> int
  (** Number of switches currently set (diagnostic; racy by nature). *)

  val handle : t -> Obj_intf.counter
end
