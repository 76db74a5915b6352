(** The reproducible benchmark pipeline behind [BENCH_*.json].

    Every measurement of the served path (the service, its durability
    plane and its cluster) belongs to the repository benchmark
    ([perfbench/], driven by [BENCHMARK.json]); so do Algorithm 1 and 2
    throughput ([objects-inproc]). This pipeline keeps only the
    algorithm and memory cells perfbench cannot run: the
    memory-level-parallelism working-set sweep (the pre-PR boxed switch
    walk vs the flat prefetching layout on the tree max register, from
    cache-resident to LLC-exceeding), the simulator's amortized step
    metrics for Algorithm 1 (the measured form of Theorem III.9), and
    the CI throughput-floor probe. The record is serialized with
    {!Mcore.Bench_json} so successive revisions can be diffed; the
    exact-baseline comparison is experiment E8 ([bench/main.exe -- mc]).

    Wired into [approx_cli] as the [bench] subcommand. *)

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
  out_path : string;  (** where to write the JSON record *)
}

val default_config : config
(** 5 trials x 100k ops; simulator at n = 16, k = ceil(sqrt n) = 4,
    2048 ops/process; the mlp sweep over three working-set cells
    (pre-PR boxed footprints 72 MiB / 576 MiB / 1.1 GiB; 18x smaller
    flat) at 50 permille writes; writes [BENCH_12.json] in the current
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
