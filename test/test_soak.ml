(* Soak tests: longer randomized campaigns across every object with
   invariant checks. These are the "leave it running" robustness tier —
   moderate durations so the default test run stays fast; crank the
   constants up for a real soak. *)

let check = Alcotest.check
let vi = Alcotest.int

(* Each campaign drives an object under many random + PCT schedules and
   checks quiescent exactness / envelopes. *)

let test_soak_kcounter_envelopes () =
  List.iter
    (fun (n, k) ->
      List.iter
        (fun seed ->
          let exec = Sim.Exec.create ~trace_steps:false ~n () in
          let counter =
            Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ()
          in
          let completed = ref 0 in
          let violations = ref 0 in
          let handle = Sim_algo.Kcounter.handle counter in
          let counting =
            { handle with
              Obj_intf.c_inc =
                (fun ~pid ->
                  handle.Obj_intf.c_inc ~pid;
                  incr completed) }
          in
          let script =
            Workload.Script.counter_mix ~seed ~n ~ops_per_process:5_000
              ~read_fraction:0.2
          in
          let programs =
            Workload.Script.counter_programs
              ~on_read:(fun ~pid:_ x ->
                (* past the startup corner, reads respect the envelope
                   against the completed count (coarse check: the true
                   linearized count at response time is within [completed,
                   completed + in-flight]) *)
                if x > k && (x > k * max 1 !completed) then incr violations)
              counting script
          in
          let policy =
            if seed mod 2 = 0 then Sim.Schedule.Random seed
            else
              Sim.Schedule.Pct
                { seed; change_points = 10; expected_length = 20_000 }
          in
          let outcome = Sim.Exec.run exec ~programs ~policy () in
          Alcotest.(check bool) "finished" true
            (Array.for_all Fun.id outcome.completed);
          check vi
            (Printf.sprintf "n=%d k=%d seed=%d violations" n k seed)
            0 !violations)
        [ 1; 2; 3; 4 ])
    [ (4, 2); (16, 4); (25, 5) ]

let test_soak_quiescent_totals_all_counters () =
  (* After any schedule, a final solo read of each exact counter is the
     exact total; the approximate ones are within their envelopes. *)
  let n = 6 in
  let per_process = 500 in
  List.iter
    (fun seed ->
      let exec = Sim.Exec.create ~trace_steps:false ~n:(n + 1) () in
      let exact_handles =
        [ Sim_algo.Collect_counter.handle
            (Sim_algo.Collect_counter.create (Sim_backend.ctx exec)
               ~n:(n + 1) ());
          Counters.Tree_counter.handle
            (Counters.Tree_counter.create exec ~n:(n + 1) ());
          Counters.Bounded_tree_counter.handle
            (Counters.Bounded_tree_counter.create exec ~n:(n + 1)
               ~m:(n * per_process) ()) ]
      in
      let k = 3 in
      let kc =
        Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n:(n + 1) ~k ()
      in
      let kadd =
        Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n:(n + 1)
          ~k:25 ()
      in
      let results = ref [] in
      let programs =
        Array.init (n + 1) (fun i ->
            if i = n then fun pid ->
              results :=
                List.map (fun h -> h.Obj_intf.c_read ~pid) exact_handles;
              results :=
                !results
                @ [ Sim_algo.Kcounter.read kc ~pid;
                    Sim_algo.Collect_counter.read kadd ~pid ]
            else fun pid ->
              for _ = 1 to per_process do
                List.iter (fun h -> h.Obj_intf.c_inc ~pid) exact_handles;
                Sim_algo.Kcounter.increment kc ~pid;
                Sim_algo.Collect_counter.increment kadd ~pid
              done)
      in
      let rng = Workload.Rng.create ~seed in
      let script =
        Array.init 2_000_000 (fun _ -> Workload.Rng.int rng n)
      in
      ignore
        (Sim.Exec.run exec ~programs
           ~policy:(Sim.Schedule.Seq
                      [ Sim.Schedule.Script script; Sim.Schedule.Solo n ])
           ());
      let v = n * per_process in
      (match !results with
       | [ collect; tree; bounded; kmult; kadd_read ] ->
         check vi "collect exact" v collect;
         check vi "tree exact" v tree;
         check vi "bounded exact" v bounded;
         Alcotest.(check bool) "kmult in envelope" true
           (Zmath.within_k ~k ~exact:v kmult);
         Alcotest.(check bool) "kadditive in envelope" true
           (abs (kadd_read - v) <= 25)
       | _ -> Alcotest.fail "missing results"))
    [ 11; 12 ]

let test_soak_maxreg_watermark () =
  (* All max registers agree on the envelope for a deterministic monotone
     workload under adversarial PCT schedules. *)
  let n = 5 in
  List.iter
    (fun seed ->
      let exec = Sim.Exec.create ~trace_steps:false ~n () in
      let k = 2 in
      let m = 1 lsl 16 in
      let exact = Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m () in
      let approx = Approx.Kmaxreg.create exec ~n ~m ~k () in
      let uapprox = Approx.Kmaxreg_unbounded.create exec ~k () in
      let top = ref 0 in
      let programs =
        Array.init n (fun _ -> fun pid ->
            for i = 1 to 400 do
              let v = (i * n) + pid in
              top := max !top v;
              Sim_algo.Tree_maxreg.write exact ~pid v;
              Approx.Kmaxreg.write approx ~pid v;
              Approx.Kmaxreg_unbounded.write uapprox ~pid v
            done)
      in
      let outcome =
        Sim.Exec.run exec ~programs
          ~policy:(Sim.Schedule.Pct
                     { seed; change_points = 8; expected_length = 10_000 })
          ()
      in
      Alcotest.(check bool) "finished" true
        (Array.for_all Fun.id outcome.completed);
      (* quiescent reads via a peek-free second phase: read through a
         fresh fiber is impossible (execution consumed), so check the
         final values by a solo reader in the same run instead: re-run
         with an extra reader process. *)
      ignore !top)
    [ 21; 22 ];
  (* Dedicated run with a final reader. *)
  let n = 6 in
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let k = 2 in
  let m = 1 lsl 16 in
  let exact = Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m () in
  let approx = Approx.Kmaxreg.create exec ~n ~m ~k () in
  let readings = ref (0, 0) in
  let programs =
    Array.init n (fun i ->
        if i = n - 1 then fun pid ->
          readings :=
            (Sim_algo.Tree_maxreg.read exact ~pid,
             Approx.Kmaxreg.read approx ~pid)
        else fun pid ->
          for j = 1 to 400 do
            let v = (j * n) + pid in
            Sim_algo.Tree_maxreg.write exact ~pid v;
            Approx.Kmaxreg.write approx ~pid v
          done)
  in
  ignore
    (Sim.Exec.run exec ~programs
       ~policy:(Sim.Schedule.Seq
                  (List.init n (fun p -> Sim.Schedule.Solo p)))
       ());
  let true_max = (400 * n) + (n - 2) in
  let exact_read, approx_read = !readings in
  check vi "exact watermark" true_max exact_read;
  Alcotest.(check bool) "approx watermark in (v, v*k]" true
    (approx_read > true_max && approx_read <= true_max * k)

let suite =
  [ ("soak kcounter envelopes", `Slow, test_soak_kcounter_envelopes);
    ("soak quiescent totals", `Slow, test_soak_quiescent_totals_all_counters);
    ("soak maxreg watermark", `Slow, test_soak_maxreg_watermark) ]

let () = Alcotest.run "soak" [ ("soak", suite) ]
