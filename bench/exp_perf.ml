(* perf: the reproducible benchmark pipeline. Unlike the console-only
   tables of the other experiments, this one persists its measurements:
   it writes Perf.Pipeline.default_config.out_path (the mlp layout
   sweep, the poller scale, cluster, gossip data-path and kill -9
   recovery cells, plus Algorithm 1's simulated amortized step
   metrics) so the perf trajectory of the repository is diffable
   across revisions. See EXPERIMENTS.md, "Performance trajectory". *)

let run () =
  Tables.section
    ("perf  Benchmark pipeline -> " ^ Perf.Pipeline.default_config.out_path
     ^ " (mlp, scale, cluster, recovery + amortized steps)");
  let cores = Perf.Pipeline.detect_cores () in
  Printf.printf "(host has %d core(s); runtime recognized %d, source %s)\n"
    cores.Perf.Pipeline.effective_cores cores.Perf.Pipeline.raw_cores
    cores.Perf.Pipeline.cores_source;
  ignore (Perf.Pipeline.run Perf.Pipeline.default_config)
