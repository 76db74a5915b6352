(* Property tests for solo-termination (obstruction-freedom / wait-freedom
   liveness) across every object, plus closed-form and determinism
   properties of the core algorithms. *)

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Solo termination                                                    *)
(* ------------------------------------------------------------------ *)

(* Every implementation below is wait-free, so from any reachable
   configuration a frozen-rest solo run must finish the survivor's whole
   remaining program. Budgets are generous per-implementation bounds for
   the fixed workload (8 ops/process). *)

let counter_programs make_counter ops_per_process exec ~n =
  let counter = make_counter exec ~n in
  let script =
    Workload.Script.counter_mix ~seed:1 ~n ~ops_per_process
      ~read_fraction:0.4
  in
  Workload.Script.counter_programs counter script

let maxreg_programs make_mr ops_per_process exec ~n =
  let mr = make_mr exec ~n in
  let script =
    Workload.Script.writes_then_read ~seed:1 ~n
      ~writes_per_process:ops_per_process ~max_value:1000
  in
  Workload.Script.maxreg_programs mr script

let solo_prop ~name ~make ~budget =
  QCheck.Test.make ~name ~count:60
    QCheck.(pair (int_range 0 100_000) (pair (int_range 0 200) (int_range 0 3)))
    (fun (prefix_seed, (prefix_len, solo_pid)) ->
      match
        Lowerbound.Solo_check.run ~make ~n:4 ~prefix_seed ~prefix_len
          ~solo_pid ~budget
      with
      | Lowerbound.Solo_check.Terminated -> true
      | Lowerbound.Solo_check.Exhausted _ -> false)

let kcounter_solo =
  solo_prop ~name:"kcounter solo-terminates" ~budget:2_000
    ~make:(counter_programs
             (fun exec ~n ->
               Sim_algo.Kcounter.handle
                 (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 ()))
             8)

let kadditive_solo =
  solo_prop ~name:"kadditive solo-terminates" ~budget:2_000
    ~make:(counter_programs
             (fun exec ~n ->
               Sim_algo.Collect_counter.handle
                 (Sim_algo.Collect_counter.create (Sim_backend.ctx exec)
                    ~n ~k:10 ()))
             8)

let tree_counter_solo =
  solo_prop ~name:"tree counter solo-terminates" ~budget:5_000
    ~make:(counter_programs
             (fun exec ~n ->
               Counters.Tree_counter.handle
                 (Counters.Tree_counter.create exec ~n ()))
             8)

let snapshot_counter_solo =
  solo_prop ~name:"snapshot counter solo-terminates" ~budget:5_000
    ~make:(counter_programs
             (fun exec ~n ->
               Counters.Snapshot_counter.handle
                 (Counters.Snapshot_counter.create exec ~n ()))
             8)

let kmaxreg_solo =
  solo_prop ~name:"kmaxreg solo-terminates" ~budget:2_000
    ~make:(maxreg_programs
             (fun exec ~n ->
               Approx.Kmaxreg.handle
                 (Approx.Kmaxreg.create exec ~n ~m:1000 ~k:2 ()))
             8)

let unbounded_maxreg_solo =
  solo_prop ~name:"unbounded maxreg solo-terminates" ~budget:3_000
    ~make:(maxreg_programs
             (fun exec ~n:_ ->
               Maxreg.Unbounded_maxreg.handle
                 (Maxreg.Unbounded_maxreg.create exec ()))
             8)

(* The no-helping ablation remains solo-terminating (obstruction-free):
   once alone, the switch frontier stops moving and the scan ends. *)
let no_helping_solo =
  solo_prop ~name:"no-helping variant solo-terminates" ~budget:3_000
    ~make:(counter_programs
             (fun exec ~n ->
               Sim_algo.Kcounter.handle
                 (Sim_algo.Kcounter.create (Sim_backend.ctx exec)
                    ~variant:No_helping ~n ~k:2 ()))
             8)

(* ------------------------------------------------------------------ *)
(* Closed-form properties of the analysis module                        *)
(* ------------------------------------------------------------------ *)

let return_value_closed_form =
  QCheck.Test.make ~name:"ReturnValue matches direct summation" ~count:500
    QCheck.(triple (int_range 2 10) (int_range 0 5) (int_range 0 9))
    (fun (k, q, p) ->
      let direct =
        let sum = ref (1 + (p * Zmath.pow k (q + 1))) in
        for l = 1 to q do
          sum := !sum + Zmath.pow k (l + 1)
        done;
        k * !sum
      in
      Approx.Accuracy.return_value ~k ~p ~q = direct)

let u_bounds_ordered =
  QCheck.Test.make ~name:"u_min <= u_max and envelope brackets ReturnValue"
    ~count:500
    QCheck.(quad (int_range 2 8) (int_range 1 64) (int_range 0 4)
              (int_range 0 7))
    (fun (k, n, q, p) ->
      let u_min = Approx.Accuracy.u_min ~k ~p ~q in
      let u_max = Approx.Accuracy.u_max ~k ~n ~p ~q in
      let rv = Approx.Accuracy.return_value ~k ~p ~q in
      u_min <= u_max && rv = k * u_min
      (* Lemma III.5's algebra "u_max/k <= ReturnValue" holds for k^2 >= n
         whenever q >= 1 or p >= 1. At q = p = 0 it FAILS whenever
         n > k + 1 — the startup-corner erratum documented in
         test_erratum.ml and EXPERIMENTS.md: ReturnValue(0,0) = k cannot
         cover the up to 1 + n(k-1) increments hidden in local counters
         while only switch_0 is set. *)
      && (k * k < n || (q = 0 && p = 0) || u_max <= k * rv)
      && (not (q = 0 && p = 0 && n > k + 1) || u_max > k * rv))

let increments_to_set_consistent =
  QCheck.Test.make ~name:"increments_to_set matches interval structure"
    ~count:500
    QCheck.(pair (int_range 2 10) (int_range 0 50))
    (fun (k, j) ->
      let v = Approx.Accuracy.increments_to_set ~k j in
      if j = 0 then v = 1
      else
        let q = (j - 1) / k in
        v = Zmath.pow k (q + 1))

(* ------------------------------------------------------------------ *)
(* Determinism properties of the stack                                  *)
(* ------------------------------------------------------------------ *)

let replay_determinism =
  QCheck.Test.make ~name:"random schedules replay identically" ~count:30
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 5))
    (fun (seed, n) ->
      let build () =
        let exec = Sim.Exec.create ~n () in
        let counter =
          Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 ()
        in
        let script =
          Workload.Script.counter_mix ~seed ~n ~ops_per_process:20
            ~read_fraction:0.3
        in
        let programs =
          Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter)
            script
        in
        (exec, programs)
      in
      let exec1, programs1 = build () in
      let o1 =
        Sim.Exec.run exec1 ~programs:programs1
          ~policy:(Sim.Schedule.Random seed) ()
      in
      let exec2, programs2 = build () in
      let o2 =
        Sim.Exec.run exec2 ~programs:programs2
          ~policy:(Sim.Schedule.Script o1.schedule_taken) ()
      in
      o1.steps_total = o2.steps_total
      && Format.asprintf "%a" Sim.Trace.pp (Sim.Exec.trace exec1)
         = Format.asprintf "%a" Sim.Trace.pp (Sim.Exec.trace exec2))

let switch_prefix_property =
  QCheck.Test.make ~name:"set switches always form a prefix" ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 6))
    (fun (seed, k) ->
      let n = 4 in
      let exec = Sim.Exec.create ~n () in
      let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
      let script =
        Workload.Script.counter_mix ~seed ~n ~ops_per_process:500
          ~read_fraction:0.2
      in
      let programs =
        Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter)
          script
      in
      ignore
        (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
      let states = Sim_algo.Kcounter.switch_states counter in
      let set =
        List.filter_map (fun (i, b) -> if b then Some i else None) states
      in
      match set with
      | [] -> true
      | _ ->
        let maxi = List.fold_left max 0 set in
        List.sort compare set = List.init (maxi + 1) Fun.id)

let suite =
  [ qtest kcounter_solo;
    qtest kadditive_solo;
    qtest tree_counter_solo;
    qtest snapshot_counter_solo;
    qtest kmaxreg_solo;
    qtest unbounded_maxreg_solo;
    qtest no_helping_solo;
    qtest return_value_closed_form;
    qtest u_bounds_ordered;
    qtest increments_to_set_consistent;
    qtest replay_determinism;
    qtest switch_prefix_property ]

let () = Alcotest.run "solo" [ ("solo", suite) ]
