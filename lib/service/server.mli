(** The sharded, batched approximate-object server.

    Topology: [io_domains] event-loop domains and [shards] lock
    stripes. Loop 0 accepts connections and deals them round-robin
    across the loops; from then on a connection belongs to exactly one
    loop, which owns its socket, input buffer and output buffer. Each
    loop runs a slot-indexed {!Poller} (O(1) interest flips, O(ready)
    dispatch) and drains each readable socket with a single [read]
    that may carry many frames (the read batch).

    There is one execution path: every op runs to completion on the
    loop that read it, in the same poll cycle. The loop decodes each
    object op and parks it in its own preallocated batch for the
    shard that owns the named object ({!Objects}); a batch holds at
    most [max_batch] ops and runs as soon as it fills, and every
    non-empty batch runs after the cycle's reads. Running a batch
    takes the shard's lock and executes the ops against the multicore
    algorithm instances with [pid = shard] — fusing INC/ADDs and
    memoizing READs per drain, staging and flushing the WAL before any
    mutation ack is encoded — then releases the lock. The replies are
    written to the sockets after that, with single coalesced
    [write]s, so no op crosses a domain between its read and its
    reply.

    A shard is therefore only what Algorithm 1 needs of a process: a
    pid ([n = shards]) and one mutex that serializes that pid's ops.
    Any loop may take any shard's lock, so every object keeps a serial
    execution history for every [shards]/[io_domains] combination —
    the basis of the exact accuracy self-check recorded in
    {!Metrics}.

    Backpressure: the server never sheds a request (it never sends
    BUSY). A connection whose unwritten output exceeds a watermark
    stops being read until the client drains it, so a client that
    floods without reading bounds its own footprint while other
    connections on the same loop keep being served. A frame whose
    header exceeds the protocol cap closes the connection before the
    payload is read.

    A dead client costs nothing: when a socket errors or EOFs
    (including mid-frame), the connection is marked dead and closed by
    its owning loop; its ops already parked in a batch still run, and
    their replies are dropped.

    {b Cluster mode} ([nodes > 1]): every participant derives the same
    consistent-hash ring from [(nodes, replicas)], and this node
    builds only the object slice placed on [node_id]. The first frame
    on every connection must be a HELLO carrying the protocol version
    and a role; peer-role connections unlock GOSSIP2 frames (merged
    into objects through the same per-shard batches as client ops,
    preserving the single-writer discipline) and the large peer frame cap. A gossip
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
  shards : int;
      (** Algorithm-1 pids and lock stripes (>= 1): objects are
          spread over the shards by name, and each shard's ops run
          serialized under its lock with [pid = shard]. Not domains —
          the [io_domains] loops execute every op. *)
  io_domains : int;  (** Event-loop domains (>= 1). *)
  max_batch : int;
      (** Max ops one loop parks per shard before running them (>= 1):
          the fusion window that {!Objects.max_add_delta}'s overflow
          argument relies on. *)
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
}

val default_config : config
(** 2 shards, 1 io domain, 64-op batches, 1024 connections, [Auto]
    poller, [Objects.default_specs ~counters:4 ~k:4]; standalone
    topology (node 0 of 1, no peers, 50 ms interval, k_staleness 2,
    digests every 32 ticks); durability off
    ([data_dir = None]; fsync [Never], 1 s snapshots). With a data dir
    the WAL is always envelope-batched ({!Objects.persist_due}). *)

type t

val start : ?config:config -> listen:listen -> unit -> t
(** Bind, build the object table, spawn the I/O (and, with a
    [data_dir], snapshot) domains and return immediately; the returned handle is ready to serve. Raises
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
(** Close the listener and every connection, join all domains and unlink a Unix socket path. With a [data_dir],
    additionally write a final snapshot, truncate the log and close
    the WAL with an fsync (best-effort, bounded by the ~50 ms snapshot
    wakeup slice) so a clean shutdown restarts replay-free; [kill -9]
    instead relies on startup replay. Idempotent; blocks until the
    domains have exited. *)
