(** The reproducible benchmark pipeline behind [BENCH_*.json].

    One entry point produces the whole performance record for a
    revision: multicore throughput (k-counter and max-register vs their
    exact baselines, across domain counts and operation mixes, each
    summarised as min/median/max over repeated trials), the slack-aware
    fast-path ablation (validated-cache reads vs plain reads, and
    batched [add] vs unit increments across batch sizes), the
    memory-level-parallelism working-set sweep (the pre-PR boxed
    switch walk vs the flat prefetching layout on the tree max
    register, from cache-resident to LLC-exceeding), end-to-end
    service-layer throughput and latency percentiles (the sharded
    server of {!Service.Server} driven by {!Service.Loadgen} over the
    wire protocol, swept across shard counts, pipeline windows and
    read:inc:add mixes), plus the simulator's amortized step metrics
    for Algorithm 1 (the measured form of Theorem III.9). The record is
    serialized with {!Mcore.Bench_json} so successive revisions can be
    diffed — a durable perf trajectory rather than one-off console
    tables.

    Wired into [bench/main.exe] as experiment id [perf] and into
    [approx_cli] as the [bench] subcommand. *)

type service_mix = {
  sm_label : string;
  sm_read_permille : int;  (** READs per 1000 ops *)
  sm_add_permille : int;  (** bulk ADDs per 1000 ops *)
  sm_add_delta : int;  (** delta carried by each ADD *)
}

type config = {
  trials : int;  (** recorded trials per measurement (>= 1) *)
  warmup_trials : int;  (** discarded warmup trials per measurement *)
  ops_per_domain : int;  (** operations per domain per trial *)
  domains : int list;  (** domain counts to sweep *)
  sim_n : int;  (** simulator: processes *)
  sim_k : int;  (** simulator: accuracy parameter *)
  sim_ops_per_process : int;  (** simulator: ops per process *)
  fastpath_batch_sizes : int list;
      (** batch sizes for the [add] batching ablation *)
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
  service_shards : int list;  (** service: shard counts to sweep *)
  service_pipeline : int list;  (** service: in-flight windows to sweep *)
  service_mixes : service_mix list;  (** service: op mixes to sweep *)
  service_connections : int;  (** service: loadgen connections *)
  service_ops_per_connection : int;  (** service: ops per connection *)
  service_io_domains : int list;  (** I/O-plane sweep: event-loop domains *)
  service_io_conns : int list;  (** I/O-plane sweep: connection counts *)
  service_io_shards : int list;  (** I/O-plane sweep: shard counts *)
  service_io_ops_per_connection : int;  (** I/O-plane sweep: ops per conn *)
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
  service_durability_connections : int;  (** Durability sweep: conns *)
  service_durability_ops_per_connection : int;
      (** Durability sweep: ops per connection of the fsync-ablation
          cells (no durability, then the WAL at fsync never /
          every-n / interval, plus a log-every-op contrast) x
          {write-heavy, mixed}, each an in-process server on a fresh
          data dir. A summary reports the write-heavy WAL overhead at
          fsync=never and the appends ratio of per-op logging over
          envelope batching. *)
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
(** 5 trials x 100k ops/domain over {!Mcore.Throughput.sweep_domains}
    driven by {!detect_cores} (always including domains = 1 and 2);
    simulator at n = 16, k = ceil(sqrt n) = 4, 2048 ops/process;
    batch sizes {1, 16, 256, 4096}; service swept over shards
    {1, 2, 4} x windows {1, 8, 32} x mixes {mixed, read-heavy,
    add-heavy} with 4 connections x 10k ops; the I/O-plane sweep over
    io_domains {1, 2, 4} x connections {16, 64} x shards {1, 4} at
    the mixed ratio (min/median/max over [trials] fresh-server runs);
    the scale sweep at {1k, 4k, 10k} connections on epoll and {1k, 4k}
    on select (3 trials, ramped connects, in-process server unless
    [service_scale_server_exe] is set); the cluster sweep over nodes
    {1, 3} x replicas {1, 2} x gossip {10 ms, 100 ms} plus the
    node-kill chaos cell (6 connections, 5k ops/conn; 50k ops/conn
    under chaos); the durability sweep (4 connections x 10k ops per
    ablation cell, 150k ops/conn for the kill -9 recovery cell) plus a
    hot-key Zipf(1.2) service cell; the mlp sweep over three
    working-set cells (pre-PR boxed footprints 72 MiB / 576 MiB /
    1.1 GiB; 18x smaller flat) at 50 permille writes; writes
    [BENCH_10.json] in the current directory. *)

val smoke_config : config
(** Tiny counts (3 trials x 500 ops, 64 sim ops) for the [dune runtest]
    smoke test; writes to a temporary file. Keeps the pipeline from
    silently bitrotting without slowing the test suite down. *)

val bench_json : config -> Mcore.Bench_json.t
(** Run every measurement and assemble the record (no file I/O). *)

val kcounter_read_heavy_median : Mcore.Bench_json.t -> float option
(** The kcounter read-heavy domains=1 median from a record's
    [counter_throughput] section, if present — the series the CI
    regression guard tracks across BENCH_*.json revisions. *)

val read_heavy_floor_probe :
  ?trials:int -> ?ops_per_domain:int -> unit -> float
(** Measure that same cell directly (3 trials x 200k ops by default,
    after one warmup trial) and return the median in ops/s. The CI
    guard uses this rather than the smoke record's row: 500-op smoke
    trials are dominated by domain spawn/join overhead, so only a
    full-size measurement is comparable against a committed record. *)

val run : ?quiet:bool -> config -> Mcore.Bench_json.t
(** {!bench_json}, then atomically write [config.out_path] and print a
    one-screen summary (unless [quiet]); returns the record for
    in-process checks such as the CI throughput floor. *)
