(** The table of named objects a server hosts: the paper's
    k-multiplicative counter (Algorithm 1) and max register
    (Algorithm 2) in their multicore [Atomic_backend] instantiations,
    plus the exact baselines they are traded off against.

    Routing: an object's name hashes to one shard, which owns the
    object for its lifetime — every INC/READ/WRITE on it executes
    under that shard's lock (on whichever I/O loop read the request)
    with [pid = shard]. Single-shard ownership serialises each
    object's operations, which makes the accuracy
    self-check exact: at the moment a READ executes there is no
    concurrent increment, so the served value must satisfy the
    k-multiplicative envelope against the debug exact counter, not
    just up to a race. The envelope is still the multicore code path —
    the algorithm instances are created with [n = shards] and run on
    whatever domain holds the shard's lock.

    The table is immutable after {!build}; lookups from the I/O domain
    race with nothing. Objects carry a dense id (their index in the
    table array, registration order), which is what the per-request
    hot path resolves names to — via a per-connection {!Intern} cache
    — so steady-state dispatch is an array read, not a hash-bucket
    walk. *)

type kind =
  | Kcounter of { k : int }  (** Algorithm 1 + a debug exact count. *)
  | Faa  (** Exact fetch&add baseline counter. *)
  | Kmaxreg of { k : int; m : int }  (** Algorithm 2 + a debug exact max. *)
  | Cas_maxreg  (** Exact CAS-loop baseline max register. *)

type spec = { name : string; kind : kind }

val kind_label : kind -> string
val is_counter : kind -> bool

val kind_k : kind -> int
(** The kind's approximation factor k (1 for the exact baselines). *)

val default_specs : counters:int -> k:int -> spec list
(** [counters] k-counters named [c0 .. c<n-1>], one [faa] baseline,
    one [kmaxreg] (bound [2^30]) and one [cas-maxreg] — the default
    serving set.
    @raise Invalid_argument if [counters < 1] or [k < 2]. *)

type obj

val id : obj -> int
(** The object's dense id: its index in the table array, assigned in
    registration order at {!build}. Stable for the table's lifetime. *)

val spec : obj -> spec
val shard_of : obj -> int
val stats : obj -> Metrics.obj

val is_counter_obj : obj -> bool
(** Whether INC/ADD applies to this object ({!is_counter} of its
    kind). *)

val max_add_delta : int
(** Largest ADD delta the server accepts per request ([2^32]); keeps
    a drain's fused total far from int overflow. *)

type table

val build :
  ?nodes:int ->
  ?node_id:int ->
  metrics:Metrics.t ->
  shards:int ->
  spec list ->
  table
(** Construct every object (build phase, no concurrency). [nodes] and
    [node_id] size the per-object replication vector — slot [node_id]
    of an [nodes]-wide G-counter is this node's own contribution;
    defaults describe a standalone node (1 node, id 0). An empty spec
    list is legal (a placement-filtered node may host nothing).
    @raise Invalid_argument on duplicate names, a name over
    {!Wire.max_name_len}, invalid kind parameters, or a node id
    outside [0 .. nodes-1]. *)

val find : table -> string -> obj option

val find_id : table -> string -> int
(** The dense id for [name], or [-1] if unknown. Allocation-free
    (unlike {!find}, which boxes an option) — the miss path of the
    per-connection intern cache. *)

val get : table -> int -> obj
(** The object with dense id [i] (from {!find_id}, {!id} or an
    {!Intern} hit). Unchecked array access semantics: only feed it
    ids the same table produced. *)

val count : table -> int

val iter : (obj -> unit) -> table -> unit
(** Apply to every object in registration order — an array walk, no
    list spine. What the snapshot, gossip and recovery sweeps use. *)

val to_list : table -> obj list
(** Registration-order list (allocates; diagnostics and tests). *)

(** A per-connection name -> dense-id cache: 64 slots as 32 two-way
    sets, FNV-indexed. The table is immutable after {!build}, so
    entries never go stale; a name stored into a full set evicts the
    set's older entry.
    {!Intern.find_cached} is allocation-free; on a miss ([-1]) the
    caller resolves via {!find_id} and installs with
    {!Intern.store}. *)
module Intern : sig
  type t

  val slots : int
  (** Cache capacity (64). *)

  val ways : int
  (** Entries per set (2): names whose hashes agree in the low
      [log2 (slots / ways)] bits share a set. *)

  val create : unit -> t

  val find_cached : t -> string -> int
  (** The cached dense id for [name], or [-1]. *)

  val store : t -> string -> int -> unit
end

(** {2 Replication}

    An object's mergeable representation: counters export their full
    G-counter vector (own cumulative total in slot [node_id], the
    merged view of every remote node elsewhere), max registers export
    the merged maximum. Merging is pointwise [max] — commutative,
    associative and idempotent, so gossip frames may be duplicated,
    reordered or replayed without widening the served envelope.

    Writer discipline matches the rest of the table: {!merge_delta}
    runs only under the owning shard's lock (gossip entries are batched
    like any other op); {!export_counter_into}, {!own_total} and
    {!known} are racy snapshot reads — safe because every slot is
    monotone, so a torn vector is a pointwise lower bound of some
    reachable state. {!mark_exported}/{!last_sent} are written only by
    the single gossip-sender domain. *)

val merge_delta : obj -> Persist.Delta.t -> bool
(** Join a gossiped delta into the object (owning shard only). The
    sender's view of {e this} node's slot recovers a restart base:
    while {!recovering} the echo is purely pre-crash state (the own
    slot is withheld from exports), so it folds into the base by plain
    [max] and the first echo closes the recovery window; afterwards
    only own-slot excess over [own_total] is folded in. [false] (and a
    recorded reject) on a kind or vector-width mismatch. *)

val begin_recovery : obj -> unit
(** Arm restart-base recovery (build phase, clustered counters only;
    a no-op otherwise): until the first own-slot echo is merged, the
    object exports only its recovered base in its own slot — never the
    mix of base and post-restart increments — so pre- and post-crash
    epochs are never reconciled by subtraction while clients write.
    Callers must only arm objects some peer also hosts: without a
    possible echo the window would never close and the node's own
    contribution would stay withheld from the cluster. *)

val recovering : obj -> bool
(** Whether the object is still waiting for its first own-slot echo. *)

val own_total : obj -> int
(** This node's own contribution: recovered base + locally applied
    increments (counters) or the largest locally written value (max
    registers). Summed/maxed across nodes this is the cluster-level
    exact shadow. *)

val known : obj -> int
(** The node's full merged view (own + every remote delta) — the
    exact shadow the widened-envelope accuracy self-check uses. *)

val boundary_crossed : obj -> k_staleness:int -> bool
(** Whether own growth since the last gossip export crossed the
    staleness boundary ([own > 0 && own >= k_staleness * last_sent])
    — the condition for eagerly waking the gossip sender, which keeps
    the cluster-wide factor within [k_local * k_staleness]. *)

val take_dirty : obj -> bool
(** Atomically read-and-clear the object's gossip-dirty flag (gossip
    sender only; a concurrent mutation re-raises it). *)

val mark_dirty : obj -> unit
(** Re-raise the gossip-dirty flag — the gossip sender's undo of
    {!take_dirty} when a send failed, so the next periodic tick
    retries (merges are idempotent, resending is always safe). *)

val mark_exported : obj -> unit
(** Record the own-slot value just exported (gossip sender only). *)

val last_sent : obj -> int

val nodes : obj -> int
(** The replication width the object was built with (the counter
    vector length; 1 on a standalone node). *)

val export_counter_into : obj -> int array -> unit
(** Fill the first {!nodes}[ o] slots of the caller's scratch array
    with the gossip export vector (own slot = {!own_export} rules,
    remote slots = merged view). Allocation-free — what the gossip
    sender ships. Counter objects only. *)

val export_max : obj -> int
(** The merged maximum a max-kind object exports (local writes joined
    with the merged remote max). *)

val digest : obj -> int * int
(** [(fingerprint, total)] of the current gossip export: a 32-bit
    truncated FNV fold over the export vector plus the exported
    total. Equal exports give equal digests; the total acts as the
    collision backstop — anti-entropy treats the object as diverged
    when {e either} component disagrees. Racy from the gossip domain;
    a torn read costs at most one redundant (idempotent) repair. *)

val confirm_echo : obj -> unit
(** Close the restart-recovery window after a digest agreed with a
    peer: equal exports prove the peer already holds everything this
    node's own slot withheld, so there is no echo left to wait for.
    No-op unless {!recovering}. Owning shard only — batch it like a
    merge. *)

(** {2 Durability}

    The WAL/snapshot face of the object. {!persist_export} may race
    with the owning shard (the fuzzy-snapshot domain calls it): every
    exported field is monotone, so a torn export is a pointwise lower
    bound — the definition of a valid fuzzy snapshot under the
    k-envelope. {!persist_due}/{!mark_persisted} and {!recover} are
    owning-shard / build-phase only. *)

val persist_export : obj -> Persist.Delta.t
(** Full durable state: own slot carries [own_total] even during a
    recovery window (disk replay happens only at process start, so the
    gossip epoch-subtraction hazard cannot arise); max kinds export the
    merged maximum. *)

val persist_due : obj -> bool
(** Whether the merged value has outgrown the last WAL record by the
    object's approximation factor — the envelope-aware batching rule.
    Exact kinds (k = 1) are due on any change. *)

val mark_persisted : obj -> unit
(** Record that the current merged value was just staged to the WAL. *)

val recover : obj -> Persist.Delta.t -> bool
(** Install recovered state (build phase, before any op, echo or
    {!begin_recovery}): counters fold the own slot into the restart
    base and remote slots into the merged view; max kinds fold into
    the merged maximum. [false] (and a recorded reject) on a kind or
    width mismatch — recovery drops the record, never refuses to
    start. *)

(** {2 Operations}

    Called only by the owning shard ([pid] = the object's shard); the
    op count lands in the object's {!Metrics.obj}. Increments go
    through {!defer}/{!apply_pending} and reads through {!batch_read},
    which also runs the accuracy self-check on approximate kinds. *)

val write : obj -> pid:int -> int -> (int, unit) result
(** [Ok 0] for an in-range max-register write; [Error ()] for a
    counter object or an out-of-range value (recorded as a reject). *)

(** {2 Drain-batch fusion}

    Owning shard only, between the accumulate and reply phases of one
    drain ({!Server}: one loop's batch of the shard's ops, run under
    the shard lock); see each function's comment in the
    implementation for the linearizability argument. *)

val defer : obj -> via_add:bool -> int -> bool
(** Accumulate one INC ([via_add = false], delta 1) or ADD (delta in
    [0 .. max_add_delta], validated by the caller) into the object's
    pending total; [true] iff the object was clean (caller adds it to
    the drain's dirty list). Counter objects only. *)

val apply_pending : obj -> pid:int -> unit
(** Apply the drain's deferred increments as one bulk add and mark the
    object clean. *)

val batch_read : obj -> pid:int -> stamp:int -> int
(** Serve a READ in drain [stamp], computing the object's value at
    most once per drain ([stamp] must be distinct per drain). *)
