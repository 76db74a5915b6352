(* Tests for Algorithm 2 (k-multiplicative-accurate bounded max register)
   and its unbounded plug-in variant. *)

let check = Alcotest.check
let vi = Alcotest.int

let maxreg_programs handle script =
  let reads = ref [] in
  let programs =
    Workload.Script.maxreg_programs
      ~on_read:(fun ~pid result -> reads := (pid, result) :: !reads)
      handle script
  in
  (programs, reads)

(* ------------------------------------------------------------------ *)
(* Sequential accuracy                                                  *)
(* ------------------------------------------------------------------ *)

let test_sequential_zero () =
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg.create exec ~n:1 ~m:100 ~k:2 () in
  let result = ref (-1) in
  let program pid = result := Approx.Kmaxreg.read mr ~pid in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check vi "initial read" 0 !result

let test_sequential_accuracy_all_values () =
  (* Write every value of a small domain in increasing order; after each
     write the read must be in [v, v*k] (Lemma IV.1 actually gives
     v < x <= v*k for positive v). *)
  let k = 3 and m = 200 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg.create exec ~n:1 ~m ~k () in
  let failures = ref [] in
  let program pid =
    for v = 1 to m - 1 do
      Approx.Kmaxreg.write mr ~pid v;
      let x = Approx.Kmaxreg.read mr ~pid in
      if not (x >= v && x <= v * k) then failures := (v, x) :: !failures
    done
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check
    (Alcotest.list (Alcotest.pair vi vi))
    "no accuracy violations" [] !failures

let test_read_is_power_of_k () =
  let k = 5 and m = 10_000 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg.create exec ~n:1 ~m ~k () in
  let results = ref [] in
  let program pid =
    List.iter
      (fun v ->
        Approx.Kmaxreg.write mr ~pid v;
        results := Approx.Kmaxreg.read mr ~pid :: !results)
      [ 1; 7; 23; 124; 3_000; 9_999 ]
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "%d is a power of %d" x k)
        true
        (Zmath.is_power ~base:k x))
    !results

let test_non_decreasing () =
  (* Writes of smaller values never lower the read. *)
  let k = 2 and m = 1_000 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg.create exec ~n:1 ~m ~k () in
  let results = ref [] in
  let program pid =
    List.iter
      (fun v ->
        Approx.Kmaxreg.write mr ~pid v;
        results := Approx.Kmaxreg.read mr ~pid :: !results)
      [ 500; 3; 499; 1; 998 ]
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone (List.rev !results))

(* ------------------------------------------------------------------ *)
(* Worst-case step complexity (Theorem IV.2)                            *)
(* ------------------------------------------------------------------ *)

let test_step_complexity_loglog () =
  (* For m = 2^32, k = 2: inner bound = log2(m-1)+2 = 34, so each op on the
     inner tree costs <= ceil(log2 34) + 1 = 7ish steps. *)
  let m = 1 lsl 32 and k = 2 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg.create exec ~n:1 ~m ~k () in
  let program pid =
    Sim.Api.op_unit ~name:"write" ~arg:(m - 1) (fun () ->
        Approx.Kmaxreg.write mr ~pid (m - 1));
    ignore
      (Sim.Api.op_int ~name:"read" (fun () -> Approx.Kmaxreg.read mr ~pid))
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  let inner_bound = Zmath.floor_log ~base:k (m - 1) + 2 in
  let budget = 2 * (Zmath.ceil_log2 inner_bound + 1) in
  let worst = Sim.Metrics.worst_case (Sim.Exec.trace exec) in
  Alcotest.(check bool)
    (Printf.sprintf "worst %d <= %d = O(log2 log_k m)" worst budget)
    true (worst <= budget)

let test_exponential_gap_vs_exact () =
  (* The headline of Section IV: for the same m, the k-mult register's
     worst case is exponentially below the exact register's. *)
  let m = 1 lsl 40 in
  let exec = Sim.Exec.create ~n:2 () in
  let approx_mr = Approx.Kmaxreg.create exec ~n:2 ~m ~k:2 () in
  let exact_mr = Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m () in
  let worst_approx = ref 0 and worst_exact = ref 0 in
  let program pid =
    if pid = 0 then begin
      Sim.Api.op_unit ~name:"aw" (fun () ->
          Approx.Kmaxreg.write approx_mr ~pid (m - 1));
      ignore
        (Sim.Api.op_int ~name:"ar" (fun () ->
             Approx.Kmaxreg.read approx_mr ~pid))
    end
    else begin
      Sim.Api.op_unit ~name:"ew" (fun () ->
          Sim_algo.Tree_maxreg.write exact_mr ~pid (m - 1));
      ignore
        (Sim.Api.op_int ~name:"er" (fun () ->
             Sim_algo.Tree_maxreg.read exact_mr ~pid))
    end
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program; program |]
       ~policy:Sim.Schedule.Round_robin ());
  let trace = Sim.Exec.trace exec in
  worst_approx :=
    max
      (Sim.Metrics.worst_case ~name:"aw" trace)
      (Sim.Metrics.worst_case ~name:"ar" trace);
  worst_exact :=
    max
      (Sim.Metrics.worst_case ~name:"ew" trace)
      (Sim.Metrics.worst_case ~name:"er" trace);
  Alcotest.(check bool)
    (Printf.sprintf "approx %d << exact %d" !worst_approx !worst_exact)
    true
    (4 * !worst_approx < !worst_exact)

(* ------------------------------------------------------------------ *)
(* Linearizability (Lemma IV.1)                                         *)
(* ------------------------------------------------------------------ *)

let test_linearizable_small_histories () =
  let k = 2 in
  for seed = 0 to 39 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let mr = Approx.Kmaxreg.create exec ~n ~m:64 ~k () in
    let script =
      Workload.Script.writes_then_read ~seed ~n ~writes_per_process:3
        ~max_value:64
    in
    let programs, _ = maxreg_programs (Approx.Kmaxreg.handle mr) script in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace
        (Lincheck.Spec.k_max_register ~k)
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let prop_concurrent_envelope =
  (* Under arbitrary schedules, every read is between the max completed
     write before it and k times the max write invoked before it returns. *)
  QCheck.Test.make ~name:"concurrent accuracy envelope" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 2 6))
    (fun (seed, k) ->
      let n = 4 in
      let m = 10_000 in
      let exec = Sim.Exec.create ~n () in
      let mr = Approx.Kmaxreg.create exec ~n ~m ~k () in
      let script =
        Workload.Script.writes_then_read ~seed ~n ~writes_per_process:5
          ~max_value:m
      in
      let programs, _ = maxreg_programs (Approx.Kmaxreg.handle mr) script in
      ignore
        (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
      let ops = Lincheck.History.of_trace (Sim.Exec.trace exec) in
      Array.for_all
        (fun (op : Lincheck.History.op) ->
          op.name <> "read" || not op.completed
          ||
          let x = Option.get op.result in
          let v_before =
            Array.fold_left
              (fun acc (o : Lincheck.History.op) ->
                if o.name = "write" && Lincheck.History.precedes o op then
                  max acc (Option.get o.arg)
                else acc)
              0 ops
          in
          let v_possible =
            Array.fold_left
              (fun acc (o : Lincheck.History.op) ->
                if o.name = "write" && o.inv_index < op.ret_index then
                  max acc (Option.get o.arg)
                else acc)
              0 ops
          in
          (* x <= k * v_possible, and x * k >= v_before *)
          (if v_possible = 0 then x = 0 else x <= k * v_possible)
          && x * k >= v_before)
        ops)

(* ------------------------------------------------------------------ *)
(* Unbounded plug-in                                                    *)
(* ------------------------------------------------------------------ *)

let test_unbounded_sequential () =
  let k = 2 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg_unbounded.create exec ~k () in
  let failures = ref [] in
  let program pid =
    List.iter
      (fun v ->
        Approx.Kmaxreg_unbounded.write mr ~pid v;
        let x = Approx.Kmaxreg_unbounded.read mr ~pid in
        if not (x >= v && x <= v * k) then failures := (v, x) :: !failures)
      [ 1; 2; 3; 100; 1_000_000; 1 lsl 40 ]
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check
    (Alcotest.list (Alcotest.pair vi vi))
    "no violations" [] !failures

let test_unbounded_sublogarithmic_steps () =
  (* Steps are O(log2 log_k v): for v = 2^50, k = 2, index <= 51, so ops on
     the inner unbounded register cost O(log2 51) steps. *)
  let k = 2 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg_unbounded.create exec ~k () in
  let program pid =
    Sim.Api.op_unit ~name:"write" (fun () ->
        Approx.Kmaxreg_unbounded.write mr ~pid (1 lsl 50));
    ignore
      (Sim.Api.op_int ~name:"read" (fun () ->
           Approx.Kmaxreg_unbounded.read mr ~pid))
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  let worst = Sim.Metrics.worst_case (Sim.Exec.trace exec) in
  Alcotest.(check bool)
    (Printf.sprintf "steps %d sub-logarithmic in v" worst)
    true (worst <= 20)

(* k^p overflows for p = floor(log_1000 2^60) + 1 = 7: the read
   saturates at max_int, which is still within k of the write. *)
let test_unbounded_read_saturates () =
  let k = 1000 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Approx.Kmaxreg_unbounded.create exec ~k () in
  let x = ref (-1) in
  let program pid =
    Approx.Kmaxreg_unbounded.write mr ~pid (1 lsl 60);
    x := Approx.Kmaxreg_unbounded.read mr ~pid
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check vi "read saturates at max_int" max_int !x;
  Alcotest.(check bool) "saturated read is within k" true
    (Zmath.within_k ~k ~exact:(1 lsl 60) !x)

let test_unbounded_linearizable () =
  let k = 3 in
  for seed = 0 to 19 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let mr = Approx.Kmaxreg_unbounded.create exec ~k () in
    let script =
      Workload.Script.writes_then_read ~seed ~n ~writes_per_process:3
        ~max_value:100_000
    in
    let programs, _ =
      maxreg_programs (Approx.Kmaxreg_unbounded.handle mr) script
    in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace
        (Lincheck.Spec.k_max_register ~k)
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_create_validation () =
  let exec = Sim.Exec.create ~n:1 () in
  Alcotest.check_raises "k < 2"
    (Invalid_argument "Kmaxreg.create: k < 2") (fun () ->
      ignore (Approx.Kmaxreg.create exec ~n:1 ~m:10 ~k:1 ()));
  Alcotest.check_raises "m < 2"
    (Invalid_argument "Kmaxreg.create: m < 2") (fun () ->
      ignore (Approx.Kmaxreg.create exec ~n:1 ~m:1 ~k:2 ()))

let suite =
  [ ("sequential zero", `Quick, test_sequential_zero);
    ("sequential accuracy all values", `Quick,
     test_sequential_accuracy_all_values);
    ("read is power of k", `Quick, test_read_is_power_of_k);
    ("non decreasing", `Quick, test_non_decreasing);
    ("step complexity loglog", `Quick, test_step_complexity_loglog);
    ("exponential gap vs exact", `Quick, test_exponential_gap_vs_exact);
    ("linearizable small histories", `Slow, test_linearizable_small_histories);
    ("unbounded sequential", `Quick, test_unbounded_sequential);
    ("unbounded sublogarithmic steps", `Quick,
     test_unbounded_sublogarithmic_steps);
    ("unbounded read saturates", `Quick, test_unbounded_read_saturates);
    ("unbounded linearizable", `Quick, test_unbounded_linearizable);
    ("create validation", `Quick, test_create_validation);
    QCheck_alcotest.to_alcotest prop_concurrent_envelope ]

let () = Alcotest.run "approx_maxreg" [ ("kmaxreg", suite) ]
