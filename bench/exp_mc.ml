(* E8: multicore throughput (the Scal-style practical motivation). Real
   domains, real atomics — the counterpart of the simulator's step counts.

   Note: on a single-core container the domain counts time-slice instead
   of running in parallel, so expect flat scaling; the relative ordering
   of implementations (local-increment vs contended-RMW vs lock) is still
   informative. *)

let inc_throughput ~domains ~ops =
  let k = max 2 (Zmath.ceil_sqrt domains) in
  let kc = Mcore.Mc_kcounter.create ~n:domains ~k () in
  let faa = Mcore.Mc_baselines.Faa_counter.create () in
  let col =
    Mcore.Atomic_algo.Collect_counter.create (Backend.Atomic_backend.ctx ())
      ~n:domains ()
  in
  let lock = Mcore.Mc_baselines.Lock_counter.create () in
  let kadd =
    Mcore.Atomic_algo.Collect_counter.create (Backend.Atomic_backend.ctx ())
      ~n:domains ~k:(domains * 64) ()
  in
  let tree = Mcore.Mc_more_counters.Tree_counter.create ~n:domains () in
  let measure worker =
    (Mcore.Throughput.run ~domains ~ops_per_domain:ops ~worker).ops_per_sec
    /. 1_000_000.0
  in
  [ ("kcounter", measure (fun ~pid ~op_index:_ ->
         Mcore.Mc_kcounter.increment kc ~pid));
    ("faa", measure (fun ~pid:_ ~op_index:_ ->
         Mcore.Mc_baselines.Faa_counter.increment faa));
    ("collect", measure (fun ~pid ~op_index:_ ->
         Mcore.Atomic_algo.Collect_counter.increment col ~pid));
    ("lock", measure (fun ~pid:_ ~op_index:_ ->
         Mcore.Mc_baselines.Lock_counter.increment lock));
    ("kadditive", measure (fun ~pid ~op_index:_ ->
         Mcore.Atomic_algo.Collect_counter.increment kadd ~pid));
    ("aach-tree", measure (fun ~pid ~op_index:_ ->
         Mcore.Mc_more_counters.Tree_counter.increment tree ~pid)) ]

let maxreg_throughput ~domains ~ops =
  let kmr = Mcore.Mc_kmaxreg.create ~m:(1 lsl 30) ~k:2 () in
  let cas =
    Mcore.Atomic_algo.Cas_maxreg.create (Backend.Atomic_backend.ctx ()) ()
  in
  let measure worker =
    (Mcore.Throughput.run ~domains ~ops_per_domain:ops ~worker).ops_per_sec
    /. 1_000_000.0
  in
  [ ("kmaxreg", measure (fun ~pid ~op_index ->
         Mcore.Mc_kmaxreg.write kmr ((op_index * domains) + pid + 1)));
    ("cas-loop", measure (fun ~pid ~op_index ->
         Mcore.Atomic_algo.Cas_maxreg.write cas ~pid
           ((op_index * domains) + pid + 1))) ]

let run () =
  Tables.section
    "E8  Multicore throughput (Mops/s), OCaml domains + Atomic";
  Printf.printf "(host has %d recognized core(s))\n"
    (Domain.recommended_domain_count ());
  let ops = 300_000 in
  let domain_counts = Mcore.Throughput.sweep_domains ~max_domains:4 () in
  let counter_rows =
    List.map
      (fun domains ->
        let results = inc_throughput ~domains ~ops in
        string_of_int domains
        :: List.map (fun (_, mops) -> Tables.fmt_float mops) results)
      domain_counts
  in
  Tables.print_table ~title:"counter increments (Mops/s)"
    ~header:[ "domains"; "kcounter"; "faa"; "collect"; "lock"; "kadditive";
              "aach-tree" ]
    counter_rows;
  let maxreg_rows =
    List.map
      (fun domains ->
        let results = maxreg_throughput ~domains ~ops in
        string_of_int domains
        :: List.map (fun (_, mops) -> Tables.fmt_float mops) results)
      domain_counts
  in
  Tables.print_table ~title:"max-register writes (Mops/s)"
    ~header:[ "domains"; "kmaxreg"; "cas-loop" ]
    maxreg_rows;
  print_endline
    "expected shape: kcounter increments are almost always core-local\n\
     (no shared write), so they track the collect counter and beat faa\n\
     and lock as contention grows; kmaxreg writes touch O(log log m)\n\
     switch bits without retry loops."

(* The CI throughput floor's probe: Algorithm 1 at n = 1, k = 2, cached
   reads ([read_fast]), read-heavy, one domain, 1 warmup + 3 x 200k ops
   -- the cell of the committed BENCH_9 record's fastpath read ablation
   (cached, read-heavy, domains = 1). Full size, never smoke-sized:
   short trials are dominated by Domain.spawn/join. Prints one line;
   tools/ci.sh compares it against half the committed median. *)
let floor () =
  let kc = Mcore.Mc_kcounter.create ~n:1 ~k:2 () in
  let worker =
    Mcore.Throughput.mixed_worker Mcore.Throughput.read_heavy
      ~inc:(fun ~pid -> Mcore.Mc_kcounter.increment kc ~pid)
      ~read:(fun ~pid -> ignore (Mcore.Mc_kcounter.read_fast kc ~pid))
  in
  let stats =
    Mcore.Throughput.measure ~warmup_trials:1 ~trials:3 ~domains:1
      ~ops_per_domain:200_000 ~worker ()
  in
  Printf.printf "kcounter read-heavy domains=1 median: %.0f ops/s\n"
    stats.Mcore.Throughput.s_median_ops_per_sec
