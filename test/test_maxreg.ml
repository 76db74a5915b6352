(* Tests for the exact max registers: linear, AACH tree, bounded dispatch,
   unbounded two-level. *)

let check = Alcotest.check
let vi = Alcotest.int

(* Build script programs against a handle, collecting read results. *)
let maxreg_programs handle script =
  let reads = ref [] in
  let programs =
    Workload.Script.maxreg_programs
      ~on_read:(fun ~pid result -> reads := (pid, result) :: !reads)
      handle script
  in
  (programs, reads)

(* Generic sequential battery applied to each implementation. *)
let sequential_battery make_handle () =
  let exec = Sim.Exec.create ~n:1 () in
  let handle = make_handle exec in
  let results = ref [] in
  let program pid =
    let wr v = handle.Obj_intf.mr_write ~pid v in
    let rd () = results := handle.Obj_intf.mr_read ~pid :: !results in
    rd ();
    wr 5;
    rd ();
    wr 3;
    rd ();
    wr 12;
    rd ();
    wr 12;
    rd ()
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check (Alcotest.list vi) "sequential maxima" [ 0; 5; 5; 12; 12 ]
    (List.rev !results)

let test_linear_sequential () =
  sequential_battery
    (fun exec -> Maxreg.Linear_maxreg.handle
        (Maxreg.Linear_maxreg.create exec ~n:1 ()))
    ()

let test_tree_sequential () =
  sequential_battery
    (fun exec ->
      Sim_algo.Tree_maxreg.handle
        (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m:16 ()))
    ()

let test_bounded_sequential () =
  sequential_battery
    (fun exec ->
      Maxreg.Bounded_maxreg.handle
        (Maxreg.Bounded_maxreg.create exec ~n:1 ~m:16 ()))
    ()

let test_unbounded_sequential () =
  sequential_battery
    (fun exec ->
      Maxreg.Unbounded_maxreg.handle (Maxreg.Unbounded_maxreg.create exec ()))
    ()

(* Tree step complexity: O(log2 m) for both operations. *)
let test_tree_step_complexity () =
  let m = 1 lsl 20 in
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m () in
  let program pid =
    Sim.Api.op_unit ~name:"write" ~arg:(m - 1) (fun () ->
        Sim_algo.Tree_maxreg.write mr ~pid (m - 1));
    ignore
      (Sim.Api.op_int ~name:"read" (fun () ->
           Sim_algo.Tree_maxreg.read mr ~pid))
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  let budget = 2 * (Zmath.ceil_log2 m + 1) in
  let worst_w = Sim.Metrics.worst_case ~name:"write" (Sim.Exec.trace exec) in
  let worst_r = Sim.Metrics.worst_case ~name:"read" (Sim.Exec.trace exec) in
  Alcotest.(check bool)
    (Printf.sprintf "write %d <= %d" worst_w budget)
    true (worst_w <= budget);
  Alcotest.(check bool)
    (Printf.sprintf "read %d <= %d" worst_r budget)
    true (worst_r <= budget)

let test_tree_bounds_checked () =
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m:8 () in
  let program pid =
    Alcotest.check_raises "write 8 rejected"
      (Invalid_argument "Tree_maxreg_algo.write: value out of range") (fun () ->
        Sim_algo.Tree_maxreg.write mr ~pid 8);
    Alcotest.check_raises "write -1 rejected"
      (Invalid_argument "Tree_maxreg_algo.write: value out of range") (fun () ->
        Sim_algo.Tree_maxreg.write mr ~pid (-1))
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ())

let test_bounded_dispatch () =
  let exec = Sim.Exec.create ~n:4 () in
  let small = Maxreg.Bounded_maxreg.create exec ~n:4 ~m:16 () in
  let huge = Maxreg.Bounded_maxreg.create exec ~n:4 ~m:(1 lsl 50) () in
  Alcotest.(check bool) "log2 16 <= 4: tree" true
    (Maxreg.Bounded_maxreg.uses_tree small);
  Alcotest.(check bool) "log2 2^50 > 4: linear" false
    (Maxreg.Bounded_maxreg.uses_tree huge)

(* Concurrent linearizability of each implementation on small histories. *)
let concurrent_lincheck make_handle () =
  for seed = 0 to 29 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let handle = make_handle exec in
    let script =
      Workload.Script.writes_then_read ~seed ~n ~writes_per_process:3
        ~max_value:14
    in
    let programs, _ = maxreg_programs handle script in
    ignore
      (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace Lincheck.Spec.exact_max_register
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_linear_linearizable () =
  concurrent_lincheck (fun exec ->
      Maxreg.Linear_maxreg.handle (Maxreg.Linear_maxreg.create exec ~n:3 ()))
    ()

let test_tree_linearizable () =
  concurrent_lincheck (fun exec ->
      Sim_algo.Tree_maxreg.handle
        (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m:16 ()))
    ()

let test_unbounded_linearizable () =
  concurrent_lincheck (fun exec ->
      Maxreg.Unbounded_maxreg.handle (Maxreg.Unbounded_maxreg.create exec ()))
    ()

(* A completed write is never lost: reads that start after the write
   returns must return at least its value. *)
let prop_write_visible make_handle =
  QCheck.Test.make ~name:"completed writes visible" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let n = 4 in
      let exec = Sim.Exec.create ~n () in
      let handle = make_handle exec in
      let script =
        Workload.Script.writes_then_read ~seed ~n ~writes_per_process:4
          ~max_value:200
      in
      let programs, _ = maxreg_programs handle script in
      ignore
        (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
      let ops = Lincheck.History.of_trace (Sim.Exec.trace exec) in
      Array.for_all
        (fun (op : Lincheck.History.op) ->
          op.name <> "read" || not op.completed
          ||
          let x = Option.get op.result in
          (* max over writes completed before this read started *)
          let v_before =
            Array.fold_left
              (fun acc (o : Lincheck.History.op) ->
                if o.name = "write" && Lincheck.History.precedes o op then
                  max acc (Option.get o.arg)
                else acc)
              0 ops
          in
          (* max over writes invoked before this read returned *)
          let v_possible =
            Array.fold_left
              (fun acc (o : Lincheck.History.op) ->
                if o.name = "write" && o.inv_index < op.ret_index then
                  max acc (Option.get o.arg)
                else acc)
              0 ops
          in
          x >= v_before && x <= v_possible)
        ops)

let test_unbounded_big_values () =
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Maxreg.Unbounded_maxreg.create exec () in
  let big = (1 lsl 60) + 12345 in
  let result = ref 0 in
  let program pid =
    Maxreg.Unbounded_maxreg.write mr ~pid big;
    result := Maxreg.Unbounded_maxreg.read mr ~pid
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check vi "big value round-trips" big !result

let test_unbounded_log_steps () =
  (* Steps grow with log v, not v. *)
  let exec = Sim.Exec.create ~n:1 () in
  let mr = Maxreg.Unbounded_maxreg.create exec () in
  let program pid =
    Sim.Api.op_unit ~name:"write" (fun () ->
        Maxreg.Unbounded_maxreg.write mr ~pid ((1 lsl 40) + 7));
    ignore
      (Sim.Api.op_int ~name:"read" (fun () ->
           Maxreg.Unbounded_maxreg.read mr ~pid))
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  let worst = Sim.Metrics.worst_case (Sim.Exec.trace exec) in
  Alcotest.(check bool)
    (Printf.sprintf "steps %d = O(log v)" worst)
    true (worst <= 2 * (40 + 8))

let suite =
  [ ("linear sequential", `Quick, test_linear_sequential);
    ("tree sequential", `Quick, test_tree_sequential);
    ("bounded sequential", `Quick, test_bounded_sequential);
    ("unbounded sequential", `Quick, test_unbounded_sequential);
    ("tree step complexity", `Quick, test_tree_step_complexity);
    ("tree bounds checked", `Quick, test_tree_bounds_checked);
    ("bounded dispatch", `Quick, test_bounded_dispatch);
    ("linear linearizable", `Quick, test_linear_linearizable);
    ("tree linearizable", `Quick, test_tree_linearizable);
    ("unbounded linearizable", `Quick, test_unbounded_linearizable);
    ("unbounded big values", `Quick, test_unbounded_big_values);
    ("unbounded log steps", `Quick, test_unbounded_log_steps);
    QCheck_alcotest.to_alcotest
      (prop_write_visible (fun exec ->
           Sim_algo.Tree_maxreg.handle
             (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m:200 ())));
    QCheck_alcotest.to_alcotest
      (prop_write_visible (fun exec ->
           Maxreg.Unbounded_maxreg.handle
             (Maxreg.Unbounded_maxreg.create exec ()))) ]

let () = Alcotest.run "maxreg" [ ("maxreg", suite) ]
