(** The primitive-backend signature.

    The paper defines its objects over abstract {e base objects} —
    read/write registers, test&set switches, CAS cells (Section II) —
    and its algorithms never care whether those primitives are
    simulator cells with exact step accounting or hardware [Atomic]
    words. This signature captures that base-object layer once, so
    Algorithm 1, Algorithm 2 and the baselines are written as functors
    in [lib/algo] and instantiated per backend:

    - {!Sim_backend} drives {!Sim.Memory} through {!Sim.Api}: every
      primitive is one charged step of the simulated execution, so
      lincheck, awareness and step-complexity experiments exercise the
      same functor bodies that run on hardware.
    - {!Atomic_backend} maps primitives onto padded/packed OCaml 5
      [Atomic] cells; the hot paths stay allocation-free.
    - {!Chaos_backend} decorates either backend with deterministic
      (seeded) adversarial pauses — primitive-level fault injection.

    Conventions shared by all operations:
    - every primitive takes the calling process id [~pid]; backends use
      it for per-process step accounting ({!S.steps}) and fault
      injection. A [pid] must be in [0 .. n-1] of the object's creation
      and, for single-writer slots, honest (the algorithms guarantee
      this; backends do not check).
    - [?name] arguments are debugging/trace labels; backends may ignore
      them.
    - constructors are build-phase only; the operations on constructed
      objects are the hot path and must not allocate in the
      {!Atomic_backend} instantiation. *)

module type S = sig
  val label : string
  (** Backend name used in experiment tables and smoke matrices. *)

  type ctx
  (** A backend context: the factory state shared by every object built
      against it (the simulator execution, step counters, chaos RNG
      streams). Constructed by backend-specific [ctx] functions — the
      signature only exposes accessors, so functor code stays generic. *)

  val steps : ctx -> pid:int -> int
  (** Primitive steps issued through this context by [pid] so far. In
      the simulator this equals the fiber steps charged for these
      objects; on hardware it is a per-process (unsynchronised, padded)
      counter, exact per owning domain. Backends may count only when
      enabled at [ctx]-construction time and return 0 otherwise. *)

  val pause : ctx -> pid:int -> unit
  (** One bounded primitive-level delay unit: a charged no-op step in
      the simulator, [Domain.cpu_relax] on hardware. The unit of delay
      injected by {!Chaos_backend}. *)

  (** {2 Multi-writer registers} *)

  type reg

  val reg : ctx -> ?name:string -> int -> reg
  (** [reg ctx v] is a fresh register initialised to [v]. *)

  val read : reg -> pid:int -> int
  val write : reg -> pid:int -> int -> unit

  (** {2 Multi-writer register arrays}

      Fixed logical length, but backends may materialise cells lazily
      (the simulator allocates a cell on first touch, so a tree laid
      out over a huge index range costs only what an execution
      reaches). *)

  type reg_array

  val reg_array : ctx -> ?name:string -> len:int -> init:int -> unit -> reg_array
  val reg_get : reg_array -> pid:int -> int -> int
  val reg_set : reg_array -> pid:int -> int -> int -> unit

  val reg_array_version : reg_array -> pid:int -> int
  (** A monotone modification watermark for the whole array: a
      non-negative stamp that strictly increases with (i.e. no later
      than one primitive after) every {!reg_set}. One step — this is
      the load that makes validated read caching cheap.

      Contract (same as {!ts_version}): the stamp is bumped {e after}
      the write lands, by the writing process, before its operation
      returns. So if a reader observes the same stamp at two points in
      time, every write that landed in between belongs to an operation
      that had not yet returned at the second observation — i.e. is
      still concurrent with the reader, and a cached value from the
      first observation is a linearizable answer at the second. A
      reader must pair a cached value with a stamp read {e before} and
      re-read {e after} the full read (caching only when the two
      agree), because a write may land between a stamp load and the
      value read. *)

  val reg_prefetch : reg_array -> int -> unit
  (** Uncharged memory-locality hint: ask the backend to start pulling
      slot [i] toward the caller's cache. Semantically a no-op — zero
      charged steps, no [~pid], no fault injection, no observable
      value — so algorithms may hint speculatively (e.g. a tree walk
      hints both children before the switch read that picks one)
      without perturbing the primitive step sequence the simulator
      charges. Tolerates any index — a hint for a slot that does not
      exist is simply useless, never an error. Backends without a
      physical cache ignore it. *)

  (** {2 Single-writer register arrays}

      One slot per process; slot [i] is written only by process [i]
      (the collect idiom). *)

  type swmr_array

  val swmr_array : ctx -> ?name:string -> n:int -> init:int -> unit -> swmr_array

  val swmr_read : swmr_array -> pid:int -> int -> int
  (** [swmr_read a ~pid i] reads slot [i] (any reader). *)

  val swmr_write : swmr_array -> pid:int -> int -> unit
  (** [swmr_write a ~pid v] writes [pid]'s own slot. *)

  val swmr_prefetch : swmr_array -> int -> unit
  (** Uncharged locality hint for slot [i]; same contract as
      {!reg_prefetch}. *)

  (** {2 Test&set switch sequences}

      The unbounded [switch_0, switch_1, ...] sequence of Algorithm 1:
      one-shot bits probed with test&set. Unbounded logically; a
      backend with a physical representation grows on demand up to
      {!ts_max_capacity} and raises {!Ts_capacity_exceeded} beyond. *)

  type ts_array

  exception Ts_capacity_exceeded of { index : int; max_capacity : int }
  (** Raised by {!test_and_set}/{!ts_read} on an index beyond the
      backend's absolute switch-capacity ceiling. The payload names the
      offending index {e and} the ceiling, so the error is actionable
      without consulting the backend's docs. *)

  val ts_max_capacity : int
  (** The absolute ceiling on switch indices, [max_int] if unbounded. *)

  val ts_array :
    ctx -> ?name:string -> ?capacity_hint:int -> n:int -> unit -> ts_array
  (** [capacity_hint] sizes the initial physical allocation where one
      exists; it is not a bound. Backends that allocate pick a small
      default (the Atomic backend's is one 64-switch chunk) and grow
      on demand. [n] is the number of processes that share the
      sequence (as for {!ann_array}); a backend may lay out per-array
      metadata for it, e.g. skip cache-line padding when [n = 1]. *)

  val test_and_set : ts_array -> pid:int -> int -> bool
  (** [test_and_set a ~pid j] probes [switch_j]; [true] iff this call
      flipped it 0 -> 1. One step. *)

  val ts_read : ts_array -> pid:int -> int -> bool
  (** Whether [switch_j] is set. One step. *)

  val ts_version : ts_array -> pid:int -> int
  (** A monotone flip watermark: a non-negative stamp that increases
      with every switch that flips 0 -> 1 (and never otherwise
      decreases; backends may over-bump on failed probes, which only
      costs readers a spurious cache invalidation). One step.

      Ordering contract: the bump happens {e after} the flip lands and
      {e before} the flipping process's operation returns. Hence an
      unchanged stamp across two reader observations proves every flip
      in between is part of a still-in-flight (concurrent) operation,
      which is what makes serving a cached value linearizable — see
      {!reg_array_version} for the full argument and the read-side
      double-check protocol. *)

  val ts_capacity : ts_array -> int
  (** Current physical capacity (diagnostic; [max_int] if unbounded). *)

  val ts_states : ts_array -> (int * bool) list
  (** Post-mortem dump of the materialised switches as [(index, bit)]
      pairs sorted by index. Not a simulated operation (no steps). *)

  (** {2 CAS cells} *)

  type cas_cell

  val cas_cell : ctx -> ?name:string -> int -> cas_cell
  val cas_read : cas_cell -> pid:int -> int
  val compare_and_set : cas_cell -> pid:int -> expect:int -> value:int -> bool

  (** {2 Announcement arrays}

      Algorithm 1's helping array [H]: one atomically-readable
      [(value, sn)] pair per process, written only by its owner. The
      loaded pair is an abstract {!ann} so backends choose their own
      atomic encoding (a [V_pair] simulator cell, a {!Packed} single
      word) without the functor caring — and without the packed
      representation allocating. *)

  type ann_array

  type ann
  (** An atomically-loaded announcement; decode with {!ann_value} /
      {!ann_sn} (pure, zero steps). *)

  val ann_max_value : int
  (** Largest announceable [value] (switch index) the encoding holds. *)

  val ann_array : ctx -> ?name:string -> n:int -> unit -> ann_array
  (** [n] cells, all initialised to [(0, 0)]. *)

  val announce : ann_array -> pid:int -> value:int -> sn:int -> unit
  (** Atomically publish [(value, sn)] in [pid]'s own cell. One step.
      [sn] is reduced into the backend's sequence-number domain. *)

  val ann_load : ann_array -> pid:int -> int -> ann
  (** Atomically load process [i]'s announcement. One step. *)

  val ann_value : ann -> int
  val ann_sn : ann -> int

  (** {2 Sequence-number arithmetic}

      Backends with a bounded encoding wrap sequence numbers; helpers
      only ever compare small differences, which {!sn_delta} computes
      correctly across a wrap. *)

  val sn_succ : int -> int
  val sn_delta : int -> int -> int
  (** [sn_delta a b] is how many announcements lie between [b] and
      [a]. *)
end
