(* T1: wall-clock microbenchmarks (Bechamel, single domain).

   One Test.make per experiment table column:
   - the "e1.*" group times the real (Atomic) counter operations whose
     step counts E1 measures in the simulator;
   - the "e4.*" group does the same for the max registers of E4;
   - the "sim.*" group times whole simulated mini-executions, giving the
     cost of one simulated step (effects + trace recording). *)

open Bechamel
open Toolkit

let counter_tests () =
  let n = 4 in
  let kc = Mcore.Mc_kcounter.create ~n ~k:2 () in
  let faa = Mcore.Mc_baselines.Faa_counter.create () in
  let col =
    Mcore.Atomic_algo.Collect_counter.create (Backend.Atomic_backend.ctx ())
      ~n ()
  in
  let lock = Mcore.Mc_baselines.Lock_counter.create () in
  let kadd =
    Mcore.Atomic_algo.Collect_counter.create (Backend.Atomic_backend.ctx ())
      ~n ~k:256 ()
  in
  let tree = Mcore.Mc_more_counters.Tree_counter.create ~n () in
  Test.make_grouped ~name:"e1.counter-ops"
    [ Test.make ~name:"kcounter-inc"
        (Staged.stage (fun () -> Mcore.Mc_kcounter.increment kc ~pid:0));
      Test.make ~name:"kcounter-read"
        (Staged.stage (fun () -> ignore (Mcore.Mc_kcounter.read kc ~pid:0)));
      Test.make ~name:"faa-inc"
        (Staged.stage (fun () -> Mcore.Mc_baselines.Faa_counter.increment faa));
      Test.make ~name:"collect-inc"
        (Staged.stage (fun () ->
             Mcore.Atomic_algo.Collect_counter.increment col ~pid:0));
      Test.make ~name:"collect-read"
        (Staged.stage (fun () ->
             ignore (Mcore.Atomic_algo.Collect_counter.read col ~pid:0)));
      Test.make ~name:"lock-inc"
        (Staged.stage (fun () ->
             Mcore.Mc_baselines.Lock_counter.increment lock));
      Test.make ~name:"kadditive-inc"
        (Staged.stage (fun () ->
             Mcore.Atomic_algo.Collect_counter.increment kadd ~pid:0));
      Test.make ~name:"tree-inc"
        (Staged.stage (fun () ->
             Mcore.Mc_more_counters.Tree_counter.increment tree ~pid:0));
      Test.make ~name:"tree-read"
        (Staged.stage (fun () ->
             ignore (Mcore.Mc_more_counters.Tree_counter.read tree))) ]

let maxreg_tests () =
  let kmr = Mcore.Mc_kmaxreg.create ~m:(1 lsl 30) ~k:2 () in
  let cas =
    Mcore.Atomic_algo.Cas_maxreg.create (Backend.Atomic_backend.ctx ()) ()
  in
  let tick = ref 0 in
  Test.make_grouped ~name:"e4.maxreg-ops"
    [ Test.make ~name:"kmaxreg-write"
        (Staged.stage (fun () ->
             incr tick;
             Mcore.Mc_kmaxreg.write kmr (!tick land 0x3FFFFFF)));
      Test.make ~name:"kmaxreg-read"
        (Staged.stage (fun () -> ignore (Mcore.Mc_kmaxreg.read kmr)));
      Test.make ~name:"cas-maxreg-write"
        (Staged.stage (fun () ->
             incr tick;
             Mcore.Atomic_algo.Cas_maxreg.write cas ~pid:0
               (!tick land 0x3FFFFFF)));
      Test.make ~name:"cas-maxreg-read"
        (Staged.stage (fun () ->
             ignore (Mcore.Atomic_algo.Cas_maxreg.read cas ~pid:0))) ]

let sim_tests () =
  (* Whole mini-executions: 4 processes, 64 ops each. *)
  let run_sim make_counter () =
    let n = 4 in
    let exec = Sim.Exec.create ~n () in
    let counter = make_counter exec ~n in
    let script =
      Workload.Script.counter_mix ~seed:1 ~n ~ops_per_process:64
        ~read_fraction:0.3
    in
    let programs = Workload.Script.counter_programs counter script in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random 1) ())
  in
  Test.make_grouped ~name:"sim.mini-executions"
    [ Test.make ~name:"kcounter-256ops"
        (Staged.stage
           (run_sim (fun exec ~n ->
                Sim_algo.Kcounter.handle
                  (Sim_algo.Kcounter.create (Sim_backend.ctx exec)
                     ~n ~k:2 ()))));
      Test.make ~name:"collect-256ops"
        (Staged.stage
           (run_sim (fun exec ~n ->
                Sim_algo.Collect_counter.handle
                  (Sim_algo.Collect_counter.create (Sim_backend.ctx exec)
                     ~n ()))));
      Test.make ~name:"tree-256ops"
        (Staged.stage
           (run_sim (fun exec ~n ->
                Counters.Tree_counter.handle
                  (Counters.Tree_counter.create exec ~n ())))) ]

let run () =
  Tables.section "T1  Bechamel wall-clock microbenchmarks (ns/op, OLS)";
  let tests =
    Test.make_grouped ~name:"approx-objects"
      [ counter_tests (); maxreg_tests (); sim_tests () ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Tables.fmt_float x
        | Some [] | None -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := [ name; estimate; r2 ] :: !rows)
    results;
  let sorted = List.sort compare !rows in
  Tables.print_table ~title:"per-operation wall time"
    ~header:[ "benchmark"; "ns/op"; "r^2" ]
    sorted
