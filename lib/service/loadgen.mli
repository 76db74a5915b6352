(** Closed-loop load generator for the service: the measurement side
    of the BENCH `service` experiments.

    Connections are multiplexed: [workers] domains each drive their
    share of the [connections] nonblocking sockets over a {!Poller}
    (the same backend machinery the server runs on), so 10k-connection
    sweeps need a handful of domains, not 10k. Each connection keeps a
    window of at most [pipeline] requests in flight: responses drained
    from the socket refill the window, so client-side latency includes
    batching, execution and both coalesced I/O paths.

    Op choice (target object, inc vs add vs read) is a seeded LCG keyed
    by [(seed, cid)] alone — a given config replays the same op
    sequence regardless of how connections are packed onto workers.

    Cluster mode: {!run} takes the node address list (index = node
    id); each connection homes on [cid mod nodes] and — deriving the
    same placement ring as the servers from [(nodes, replicas)] —
    drives only the objects its home node hosts. On a transport
    failure (reset, EOF from a killed node, refused connect) the
    connection reconnects up to [max_reconnects] times, failing over
    to the next node that hosts its targets and resetting its pipeline
    window to the completed prefix; budget exhaustion costs one error.
    Every (re)connection leads with the HELLO handshake.

    Connection establishment can be paced ([ramp_conns_per_tick]) so
    huge sweeps ramp up instead of presenting the server with one
    accept burst. *)

type config = {
  connections : int;  (** Concurrent client connections. *)
  ops_per_connection : int;
  pipeline : int;  (** In-flight window per connection (>= 1). *)
  read_permille : int;  (** Reads per 1000 ops. *)
  add_permille : int;
      (** Bulk ADDs per 1000 ops ([read + add <= 1000]); the
          remainder are unit INCs. *)
  add_delta : int;  (** Delta carried by each ADD. *)
  targets : string list;  (** Counter objects to drive. *)
  zipf_s : float;
      (** Target-popularity skew: [0.0] (the default) picks targets
          uniformly; [s > 0] draws them Zipf(s)-distributed with list
          position as popularity rank, so [targets] head is the hot
          key ([s = 1] is classic Zipf; larger is hotter). In cluster
          mode the rank order applies to the node-hosted subset. *)
  seed : int;
  workers : int;
      (** Multiplexer domains; [0] picks
          [min connections 4]. Connections are dealt round-robin
          ([cid mod workers]). *)
  ramp_conns_per_tick : int;
      (** Connections established per ~1ms tick across all workers;
          [0] connects everything as fast as possible. *)
  poller : Poller.choice;  (** Readiness backend for the workers. *)
  replicas : int;
      (** The cluster's replica count — must match the servers' so
          the derived placement ring is identical. *)
  max_reconnects : int;
      (** Transport-failure reconnects allowed per connection; [0]
          (the default) fails a dropped connection immediately. *)
}

val default_config : config
(** 4 connections x 10_000 ops, pipeline 8, 200 permille reads, no
    ADDs (delta 16 when enabled), targets [c0 .. c3] picked uniformly
    ([zipf_s = 0]), seed 1, auto workers/poller, no ramp pacing, 1
    replica, no reconnects. *)

type result = {
  ok : int;  (** [Value] replies. *)
  busy : int;  (** BUSY backpressure replies. *)
  errors : int;
      (** Unknown-object / bad-request replies, plus connections that
          failed to connect, were refused by the poller backend
          ([Backend_limit]), hit a protocol-version mismatch or spent
          their reconnect budget before completing their ops. *)
  reconnects : int;
      (** Mid-run transport failures absorbed by a successful-or-
          retried reconnect (node kills show up here, not in
          [errors], as long as the budget holds). *)
  elapsed_s : float;
  ops_per_sec : float;  (** Completed responses per second. *)
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;  (** Bucket upper bounds ({!Histogram.percentile}). *)
  max_ns : int;  (** Exact worst sample ({!Histogram.max_value}). *)
  latency : Histogram.t;  (** Merged client-side latency. *)
}

val run : addrs:Unix.sockaddr list -> config -> result
(** Raise the fd soft limit, release all workers through a start
    barrier, connect (paced), run to completion, merge per-worker
    results. [addrs] lists every cluster node in node-id order (a
    single element = the standalone server).

    The host process should ignore SIGPIPE (the [approx_cli] binary
    does, at entry): this module treats a dead server end as reconnect
    fuel via [EPIPE]/[ECONNRESET], but never mutates process-global
    signal state itself.
    @raise Invalid_argument on a nonsensical config or empty [addrs]. *)
