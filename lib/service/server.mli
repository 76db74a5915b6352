(** The sharded, batched approximate-object server.

    Topology: [io_domains] event-loop domains plus [shards] worker
    domains. Loop 0 accepts connections and deals them round-robin
    across the loops; from then on a connection belongs to exactly one
    loop, which owns its socket, input buffer and flush buffer — no
    cross-loop locking on the per-connection hot path. Each loop runs
    a slot-indexed {!Poller} (O(1) interest flips, O(ready) dispatch),
    drains each readable socket with a single [read] that may carry
    many frames (the read batch), decodes requests and routes each to
    the queue of the shard that owns the named object ({!Objects}).
    Each shard domain blocks on its bounded queue, drains up to
    [max_batch] tasks per wakeup, executes them against the multicore
    algorithm instances with [pid = shard], and appends the encoded
    responses to the connection's output buffer. A shard that makes a
    connection flushable notifies only the owning loop (flush queue +
    wake pipe); the loop swaps the connection's double buffer in O(1)
    and flushes with single coalesced [write]s — no copy, no
    steady-state allocation.

    Backpressure is explicit and bounded everywhere: a connection may
    have at most [max_pending] requests in flight and each shard queue
    holds at most [queue_capacity] tasks; a request that would exceed
    either limit is answered immediately with BUSY and nothing is
    buffered. A connection whose un-flushed output exceeds a watermark
    stops being read until the client drains it. A frame whose header
    exceeds the protocol cap closes the connection before the payload
    is read.

    STATS and PING are served directly on the owning I/O loop (they
    touch no object); all object ops flow through the owning shard,
    which also gives every object a serial execution history — the
    basis of the exact accuracy self-check recorded in {!Metrics}.

    A dead client costs nothing: when a socket errors or EOFs
    (including mid-frame), the connection is marked dead and closed by
    its owning loop; responses still in flight from shards are encoded
    into a buffer that is never flushed and the shard stays
    serviceable for every other connection.

    {b Cluster mode} ([nodes > 1]): every participant derives the same
    consistent-hash ring from [(nodes, replicas)], and this node
    builds only the object slice placed on [node_id]. The first frame
    on every connection must be a HELLO carrying the protocol version
    and a role; peer-role connections unlock GOSSIP2 frames (merged
    into objects through the owning shard's queue, preserving the
    single-writer discipline) and the large peer frame cap. A gossip
    sender domain pushes dirty deltas to [peers] every
    [gossip_interval_ms] — or eagerly, when a shard observes an
    object's own contribution growing past [k_staleness] times the
    last export, which bounds the cluster-wide factor of any replica's
    read at [k_local * k_staleness].

    The peer role is {e authorised by network position, not by
    credential}: any connection that completes a peer-role HELLO on a
    clustered node may send GOSSIP2, and counter merges are monotone
    and irreversible. Peer listen addresses must therefore only be
    reachable over a trusted network (loopback, a private segment, or
    an authenticated tunnel). Standalone servers ([nodes = 1]) reject
    peer-role HELLOs outright, as they reject a repeated HELLO or an
    unknown role byte on any node.

    The compact gossip data path (GOSSIP2/DIGEST, protocol 3)
    inherits the same trust model unchanged: entries are unsigned,
    the per-connection oid dictionary is taught by whoever sends the
    named first mention, and a digest ack steers what the sender
    re-ships. None of that is hardened against a hostile peer —
    digest anti-entropy narrows {e bandwidth}, not the attack
    surface, so the trusted-network requirement carries over
    verbatim. *)

type listen =
  [ `Unix of string  (** Unix-domain socket path (stale path unlinked). *)
  | `Tcp of string * int  (** Host and port; port 0 picks a free one. *) ]

type config = {
  shards : int;  (** Worker domains (>= 1). *)
  io_domains : int;  (** Event-loop domains (>= 1). *)
  queue_capacity : int;  (** Per-shard task-queue bound. *)
  max_batch : int;  (** Max tasks one shard wakeup drains. *)
  max_pending : int;  (** Per-connection in-flight request bound. *)
  max_conns : int;  (** Accepted connections beyond this are closed. *)
  poller : Poller.choice;
      (** Readiness backend for every event loop ([Auto] = epoll when
          compiled in, select otherwise). *)
  specs : Objects.spec list;
      (** Objects the {e cluster} hosts (fixed at start); this node
          builds the placement-owned subset. *)
  node_id : int;  (** This node's id in [0 .. nodes-1]. *)
  nodes : int;  (** Cluster size; 1 = standalone (no handshake change
                    for peers, no gossip domain). *)
  replicas : int;  (** Copies of each object (clamped to [nodes]). *)
  gossip_interval_ms : int;  (** Periodic gossip cadence ([nodes > 1]). *)
  k_staleness : int;
      (** Staleness budget: own growth past this factor since the last
          export wakes the gossip sender eagerly; the cluster-wide
          accuracy bound is [k * k_staleness]. *)
  digest_interval_ticks : int;
      (** Anti-entropy cadence: the gossip sender ships a DIGEST sweep
          (per-object fingerprints) every this many ticks, plus one on
          every peer (re)connect. *)
  peers : (int * listen) list;
      (** Peer node ids (not [node_id]) and their listen addresses;
          the gossip domain starts only if non-empty and [nodes > 1]. *)
  data_dir : string option;
      (** Durability plane root: [None] disables persistence entirely;
          [Some dir] replays [dir]'s snapshot + delta log at start
          (tolerating a torn tail) and logs/snapshots into it while
          serving. *)
  fsync : Persist.Wal.fsync_policy;
      (** When WAL batches are forced to stable storage. [Never] still
          survives [kill -9] (page cache); fsync narrows the power-loss
          window. *)
  snapshot_interval_ms : int;
      (** Fuzzy-snapshot cadence; [0] disables periodic snapshots (the
          shutdown snapshot still runs). *)
  wal_every_op : bool;
      (** Log every value change instead of envelope-aware batching —
          the bench ablation's contrast cell, not a serving mode. *)
}

val default_config : config
(** 2 shards, 1 io domain, 1024-task queues, 64-task batches, 256
    in-flight requests per connection, 1024 connections, [Auto]
    poller, [Objects.default_specs ~counters:4 ~k:4]; standalone
    topology (node 0 of 1, no peers, 50 ms interval, k_staleness 2,
    digests every 32 ticks); durability off
    ([data_dir = None]; fsync [Never], 1 s snapshots, envelope-batched
    logging when enabled). *)

type t

val start : ?config:config -> listen:listen -> unit -> t
(** Bind, build the object table, spawn the shard and I/O domains and
    return immediately; the returned handle is ready to serve. Raises
    the soft [RLIMIT_NOFILE] toward the hard limit and sizes the
    listen backlog with [max_conns] (clamped to 4096).
    @raise Invalid_argument on a nonsensical config;
    @raise Poller.Unavailable on [poller = Epoll] when the backend is
    compiled out;
    @raise Unix.Unix_error if the socket cannot be bound. *)

val sockaddr : t -> Unix.sockaddr
(** The bound address — with [`Tcp (_, 0)], the actual port. *)

val metrics : t -> Metrics.t
val table : t -> Objects.table
val config : t -> config

val placement : t -> Placement.t
(** The ring derived from [(nodes, replicas)] — identical on every
    participant. *)

val live_connections : t -> int
(** Currently accepted-and-not-closed connections (racy snapshot of
    the atomic counter that enforces [max_conns]). *)

val poller_name : t -> string
(** The backend the event loops actually run on (["epoll"] or
    ["select"]) — the [Auto] resolution. *)

val stop : t -> unit
(** Close the listener and every connection, drain the shard queues,
    join all domains and unlink a Unix socket path. With a [data_dir],
    additionally write a final snapshot, truncate the log and close
    the WAL with an fsync (best-effort, bounded by the ~50 ms snapshot
    wakeup slice) so a clean shutdown restarts replay-free; [kill -9]
    instead relies on startup replay. Idempotent; blocks until the
    domains have exited. *)
