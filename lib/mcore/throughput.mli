(** Domain-based throughput harness for experiment E8 and the perf
    pipeline (BENCH_*.json).

    {!run} is a single timed trial: it spawns [domains] worker domains,
    releases them simultaneously through a start barrier, lets each
    perform [ops_per_domain] operations, and reports aggregate
    throughput in operations per second (wall clock).

    {!measure} wraps {!run} in a real benchmark protocol: discarded
    warmup trials (to populate caches, grow the object past its initial
    boundaries and trigger any one-time allocation), then [trials]
    recorded trials summarised as min/median/max. *)

type result = {
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_sec : float;
}

val run :
  domains:int ->
  ops_per_domain:int ->
  worker:(pid:int -> op_index:int -> unit) ->
  result
(** [worker] is called [ops_per_domain] times on each domain with that
    domain's pid in [0 .. domains-1]; it must be safe to run in parallel
    with itself under distinct pids. *)

type stats = {
  s_domains : int;
  s_trials : int;
  s_ops_per_trial : int;
  s_min_ops_per_sec : float;
  s_median_ops_per_sec : float;
  s_max_ops_per_sec : float;
}

val measure :
  ?warmup_trials:int ->
  ?trials:int ->
  domains:int ->
  ops_per_domain:int ->
  worker:(pid:int -> op_index:int -> unit) ->
  unit ->
  stats
(** [warmup_trials] (default 1) unrecorded trials followed by [trials]
    (default 3) recorded ones, all on the same object state.
    @raise Invalid_argument if [trials < 1] or [warmup_trials < 0]. *)

(** {2 Operation mixes} *)

type mix = { mix_label : string; read_permille : int }

val read_heavy : mix
(** 5% increments / 95% reads. *)

val mixed_worker :
  mix ->
  inc:(pid:int -> unit) ->
  read:(pid:int -> unit) ->
  pid:int ->
  op_index:int ->
  unit
(** A worker that deterministically interleaves [read]s into [inc]s at
    the mix's rate, spread evenly over every window of 1000 ops. *)

(** {2 Domain sweep} *)

val sweep_domains : ?max_domains:int -> unit -> int list
(** Domain counts to benchmark: always [1; 2] (even on a single-core
    host, where extra domains time-slice), then powers of two up to
    [min max_domains (Domain.recommended_domain_count ())].
    [max_domains] defaults to 8.
    @raise Invalid_argument if [max_domains < 1]. *)
