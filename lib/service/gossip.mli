(** The delta-gossip sender domain of a cluster node.

    Owns one persistent [`Peer]-role {!Client} per peer node and
    pushes mergeable object state on a hybrid cadence: periodically
    every [interval_ms], plus eagerly whenever a shard crosses the
    k_staleness growth boundary and writes the wake pipe ({!Server}'s
    [kick]).

    The data path diffs each dirty object
    against a per-peer shadow of what that peer last received and
    ships only the changed slots as varint GOSSIP2 entries — absolute
    totals, unacked, coalesced into one buffer per peer per round and
    pushed with a single write. Anti-entropy is digest-based: every
    [digest_interval_ticks] rounds, and immediately on every
    (re)connect, the sender ships per-object (fingerprint, total)
    pairs and repairs exactly the objects the receiver's DIGEST_ACK
    flags, with full-vector exports. A reconnect therefore heals in
    one round trip with bytes proportional to divergence — there is
    no periodic full-state blast.

    Failure handling leans entirely on merge idempotence: a connect
    or send error drops that peer's connection and re-marks the
    tick's exported objects dirty; the redial zeroes the peer's
    shadow and leads with a digest, so duplicated, reordered or lost
    deltas can never widen a replica's envelope. Per-peer bandwidth
    (bytes sent, digest rounds, repaired objects) is accounted into the
    {!Metrics.peer_link} registered for each peer. *)

type addr = [ `Unix of string | `Tcp of string * int ]

type t

val start :
  node_id:int ->
  peers:(int * addr) list ->
  interval_ms:int ->
  digest_interval_ticks:int ->
  placement:Placement.t ->
  table:Objects.table ->
  metrics:Metrics.t ->
  wake_r:Unix.file_descr ->
  stop:bool Atomic.t ->
  kick:bool Atomic.t ->
  unit ->
  t
(** Spawn the sender domain. [peers] maps peer node ids to their
    listen addresses ([node_id] itself must not appear); a
    {!Metrics.peer_link} is registered for each before the domain
    spawns. [wake_r] is the read end of the server's gossip wake pipe
    (non-blocking); [stop] is polled each tick and on every wake;
    [kick] is the dedup flag the server sets before writing the pipe.
    @raise Invalid_argument if [interval_ms < 1] or
    [digest_interval_ticks < 1]. *)

val join : t -> unit
(** Wait for the domain to exit (after [stop] is set and the wake
    pipe written); closes the peer connections. *)
