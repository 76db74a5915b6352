(** The reproducible benchmark pipeline behind [BENCH_*.json].

    One entry point produces the performance record of the cells the
    repository benchmark ([perfbench/], driven by [BENCHMARK.json])
    cannot run: the memory-level-parallelism working-set sweep (the
    pre-PR boxed switch walk vs the flat prefetching layout on the
    tree max register, from cache-resident to LLC-exceeding), the
    poller scale sweep up to 10k connections, the replicated cluster
    (convergence, staleness envelope, node-kill chaos), the gossip data
    path (peer bytes per op, partition heal), the durability kill -9
    recovery cell, plus the simulator's amortized step metrics for
    Algorithm 1 (the measured form of Theorem III.9). The record is
    serialized with {!Mcore.Bench_json} so successive revisions can be
    diffed.

    Algorithm 1 and 2 throughput and the served single-node path are
    timed by [perfbench] ([objects-inproc], [svc-rpc], [svc-durable]);
    the exact-baseline comparison is experiment E8
    ([bench/main.exe -- mc]).

    Wired into [bench/main.exe] as experiment id [perf] and into
    [approx_cli] as the [bench] subcommand. *)

type config = {
  trials : int;  (** recorded trials per mlp measurement (>= 1) *)
  warmup_trials : int;  (** discarded warmup trials per mlp measurement *)
  ops_per_domain : int;  (** mlp operations per trial (one domain) *)
  sim_n : int;  (** simulator: processes *)
  sim_k : int;  (** simulator: accuracy parameter *)
  sim_ops_per_process : int;  (** simulator: ops per process *)
  mlp_cells : (string * int * int) list;
      (** Memory-level-parallelism sweep: [(label, objects, m)] cells,
          each measuring [objects] tree max registers of bound [m]
          under a read-heavy single-domain workload, once over the
          pre-PR boxed layout (one padded cache line per switch,
          recursive walk, no hints) and once over the flat contiguous
          layout (stride-1 block, index-arithmetic read loop, prefetch
          hints). Labels should run from cache-resident to
          LLC-exceeding; the record carries per-variant min/median/max
          plus the flat-over-boxed speedup, and a cross-variant
          final-value agreement gate (both layouts replay the same
          seeded op sequence). *)
  mlp_write_permille : int;
      (** Random-value writes per 1000 ops in the mlp cells; the
          remaining ops are reads. Each op picks a uniformly random
          object, so with enough objects every walk starts cold —
          the object-count axis, not the write ratio, is what drags
          the working set past the LLC. *)
  service_scale_conns : int list;
      (** Scale sweep: connection counts run on the epoll backend
          (skipped when epoll is compiled out). *)
  service_scale_select_conns : int list;
      (** Scale sweep: connection counts run on the select backend —
          its FD_SETSIZE ceiling bounds how far this list can go. *)
  service_scale_ops_per_connection : int;  (** Scale sweep: ops per conn *)
  service_scale_trials : int;  (** Scale sweep: recorded trials per cell *)
  service_scale_ramp : int;
      (** Scale sweep: loadgen connections established per ~1ms tick. *)
  service_scale_server_exe : string option;
      (** [Some exe]: each scale trial spawns [exe serve ...] as a
          child process, so server and loadgen each get a full
          [RLIMIT_NOFILE] budget (required for the 10k cells on hosts
          whose hard limit cannot be raised); server-side counters are
          read back over the wire via STATS. [None]: in-process server
          (smoke/tests). The cluster sweep reuses the same switch:
          with an exe its nodes are child processes and the chaos cell
          kills one with SIGKILL; in-process nodes stop cleanly. *)
  service_cluster_cells : (int * int * int) list;
      (** Cluster sweep: [(nodes, replicas, gossip_interval_ms)] cells
          of the delta-gossip replication plane. Each cell starts the
          nodes, drives the cluster-aware loadgen across all of them,
          quiesces, then checks every replica's merged total against
          the cluster-level exact shadow (the sum of per-node own
          contributions) within the [k * k_staleness] envelope. *)
  service_cluster_connections : int;  (** Cluster sweep: loadgen conns *)
  service_cluster_ops_per_connection : int;
      (** Cluster sweep: ops per connection of the plain cells. *)
  service_cluster_chaos_ops : int;
      (** Ops per connection of the node-kill chaos cell (3 nodes, 2
          replicas, 10 ms gossip; one node is killed and restarted
          blank mid-run). 0 skips the chaos cell. *)
  service_durability_connections : int;
      (** Loadgen connections of the kill -9 recovery cell. *)
  service_durability_chaos_ops : int;
      (** Ops per connection of the kill -9 recovery cell: a
          subprocess server (requires [service_scale_server_exe]) is
          SIGKILLed mid-load and restarted on the same data dir; the
          record asserts log replay happened, recovered counters cover
          every acked increment within the factor-k envelope, and the
          reconnecting loadgen finished without errors. 0 skips. *)
  service_comms_cells : (int * int) list;
      (** [(nodes, replicas)] sweep of the gossip data path (varint
          GOSSIP2 + digest anti-entropy): each cell records
          steady-state peer bytes-per-op. *)
  service_comms_connections : int;  (** Connections per comms cell. *)
  service_comms_ops_per_connection : int;
      (** Ops per connection of each comms cell run. *)
  service_comms_heal_diverged : int list;
      (** Partition-heal cells (3 nodes, 2 replicas):
          each entry diverges that many of the cluster counters while
          one durable node is down cleanly, then measures the bytes
          and time the digest exchange spends healing it after it
          rejoins — heal cost must track the divergence, not the
          hosted share. *)
  out_path : string;  (** where to write the JSON record *)
}

(** {2 Host core detection} *)

type cores = {
  raw_cores : int;  (** what [Domain.recommended_domain_count] said *)
  effective_cores : int;  (** after consulting the OS (>= raw) *)
  cores_source : string;  (** ["runtime"], ["getconf"] or ["nproc"] *)
}

val detect_cores : unit -> cores
(** [Domain.recommended_domain_count], but when the runtime reports a
    single core (as it does under some containers) double-check with
    [getconf _NPROCESSORS_ONLN] and then [nproc] before believing it.
    Both the raw and effective values are recorded in the bench host
    stanza so records from misdetecting hosts remain interpretable. *)

val default_config : config
(** 5 trials x 100k ops; simulator at n = 16, k = ceil(sqrt n) = 4,
    2048 ops/process; the mlp sweep over three working-set cells
    (pre-PR boxed footprints 72 MiB / 576 MiB / 1.1 GiB; 18x smaller
    flat) at 50 permille writes; the scale sweep at {1k, 4k, 10k}
    connections on epoll and {1k, 4k} on select (3 trials, ramped
    connects, in-process server unless [service_scale_server_exe] is
    set); the cluster sweep over nodes {1, 3} x replicas {1, 2} x
    gossip {10 ms, 100 ms} plus the node-kill chaos cell (6
    connections, 5k ops/conn; 50k ops/conn under chaos); the comms
    sweep over (nodes, replicas) {(1,1), (1,2), (3,1), (3,2)} plus heal
    cells diverging 1 and 4 counters; the kill -9 recovery cell (4
    connections x 150k ops); writes [BENCH_11.json] in the current
    directory. [out_path] is the one place that record name lives. *)

val smoke_config : config
(** Tiny counts (3 trials x 500 ops, 64 sim ops) for the [dune runtest]
    smoke test; writes to a temporary file. Keeps the pipeline from
    silently bitrotting without slowing the test suite down. *)

val bench_json : config -> Mcore.Bench_json.t
(** Run every measurement and assemble the record (no file I/O). *)

val read_heavy_floor_probe :
  ?trials:int -> ?ops_per_domain:int -> unit -> float
(** Measure the kcounter read-heavy domains=1 cell of the committed
    [BENCH_2.json] (Algorithm 1 at k = 2, cached reads; 3 trials x
    200k ops by default, after one warmup trial) and return the median
    in ops/s — the CI throughput floor's probe. Smoke-sized trials are
    dominated by domain spawn/join overhead, so only a full-size
    measurement is comparable against a committed record. *)

val run : ?quiet:bool -> config -> Mcore.Bench_json.t
(** {!bench_json}, then atomically write [config.out_path] and print a
    one-screen summary (unless [quiet]); returns the record for
    in-process checks. *)
