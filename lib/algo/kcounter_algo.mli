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

(** Which Algorithm 1 a {!Make.create} builds: the paper's, one of
    three single-ingredient ablations (experiment E9), or the repair of
    the startup-corner erratum. All five run this one body; each
    variant branch sits on a path that already leaves the fast path (a
    limit-boundary announcement, a read-loop step, a full read's exit),
    so a [Paper] instance runs exactly the paper's code and allocates
    nothing extra.

    - [Paper]: the paper's pseudocode.

    - [No_helping]: [CounterRead] scans switches but never consults the
      helping array [H]. Reads lose wait-freedom: with concurrent
      incrementers that keep the switch frontier ahead of the scan, a
      read can take unboundedly many steps (Lemma III.1 fails). The
      variant demonstrates {e why} lines 44-55 exist.

    - [No_probe_resume]: an announcement always probes its interval
      from the first switch instead of the persistent cursor [l0].
      Increments stay wait-free and accuracy is unaffected, but an
      announcement can pay up to [k] extra failed test&sets per
      interval, inflating the amortized constant (the [l0] bookkeeping
      of lines 22-24 is what Lemma III.8's [2(i_p+1)k] accounting
      relies on).

    - [Full_scan_read]: [CounterRead] visits {e every} switch instead
      of only the first and last of each interval. Accuracy is
      unchanged (it sees at least as much), but a read costs
      [Theta(k)] per interval instead of [O(1)], breaking the [4(i+2)]
      read accounting in Lemma III.8.

    - [Startup_corrected]: the repair of the startup-corner gap in the
      paper's Lemma III.5 / Theorem III.9 (EXPERIMENTS.md, "Erratum").
      While only [switch_0] is set, up to [1 + n(k-1)] increments can
      be parked in local counters, yet a read that saw
      [switch_0 = 1, switch_1 = 0] must return [ReturnValue(0,0) = k].
      Since any single return value [x] needs
      [(1 + n(k-1))/k <= x <= k] — an empty interval for [n > k + 1] —
      no reader-side constant can repair it: the reader needs more
      information.

      The repair supplies it: each process announces its {e first}
      increment in a single-writer bit (one extra step, once per
      process, written before its [switch_0] probe), and a read that
      would land in the corner collects the [n] bits and returns
      [k * max 1 c], where [c] is the number of set bits. Accuracy:
      each of the [c] started processes contributed at least 1
      increment ([v >= c], counting pending first increments as
      linearized before the read), and every started process hides at
      most [k - 1] increments beyond its announced first
      ([v <= c_end * k]), so [v/k <= k*c <= v*k] holds for {e every}
      [n] and [k >= 2].

      Cost: corner reads pay an extra [n] steps; once [switch_1] is set
      the algorithm is step for step the paper's, so the
      constant-amortized bound of Theorem III.9 holds for executions
      that leave the startup regime (amortized complexity degrades to
      the exact counter's [O(n)] only while the count is below [k^2] —
      which is also exactly where approximate reads provably cannot be
      cheaper). {!Make.read_fast} never caches a corner value: a
      process that starts later flips no switch, so the watermark
      could not invalidate it.

    The ablations are linearizable k-multiplicative counters whenever
    [Paper] is: the removals affect only liveness ([No_helping]) or
    step complexity. *)
type variant =
  | Paper
  | No_helping
  | No_probe_resume
  | Full_scan_read
  | Startup_corrected

module Make (B : Backend.Backend_intf.S) : sig
  type t

  val max_capacity : int
  (** The backend's absolute switch-index ceiling for this object:
      the smaller of its test&set capacity and its announcement
      encoding range. Exceeding it raises the backend's
      [Ts_capacity_exceeded] with both index and ceiling. *)

  val create :
    B.ctx ->
    ?name:string ->
    ?capacity_hint:int ->
    ?variant:variant ->
    n:int ->
    k:int ->
    unit ->
    t
  (** Build phase only. [variant] (default [Paper]) picks the paper's
      algorithm, an ablation or the startup-corner repair; see
      {!variant}. [capacity_hint] presizes the backend's switch
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
  (** Labelled [kcounter(k=…)] for [Paper] and
      [kcounter/<variant>(k=…)] otherwise, e.g.
      [kcounter/startup-corrected(k=2)]. *)
end
