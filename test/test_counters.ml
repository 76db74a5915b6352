(* Tests for the exact counter baselines: collect, snapshot, AACH tree and
   fetch&add. *)

let check = Alcotest.check
let vi = Alcotest.int

let counter_programs handle script =
  let reads = ref [] in
  let programs =
    Workload.Script.counter_programs
      ~on_read:(fun ~pid result -> reads := (pid, result) :: !reads)
      handle script
  in
  (programs, reads)

(* Sequential battery: a lone process's reads are exact. *)
let sequential_battery make_handle () =
  let exec = Sim.Exec.create ~n:1 () in
  let handle = make_handle exec in
  let results = ref [] in
  let program pid =
    for i = 1 to 20 do
      handle.Obj_intf.c_inc ~pid;
      if i mod 5 = 0 then results := handle.Obj_intf.c_read ~pid :: !results
    done
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check (Alcotest.list vi) "exact counts" [ 5; 10; 15; 20 ] (List.rev !results)

let test_collect_sequential () =
  sequential_battery (fun exec ->
      Sim_algo.Collect_counter.handle
        (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n:1 ()))
    ()

let test_snapshot_sequential () =
  sequential_battery (fun exec ->
      Counters.Snapshot_counter.handle
        (Counters.Snapshot_counter.create exec ~n:1 ()))
    ()

let test_tree_sequential () =
  sequential_battery (fun exec ->
      Counters.Tree_counter.handle (Counters.Tree_counter.create exec ~n:1 ()))
    ()

let test_faa_sequential () =
  sequential_battery (fun exec ->
      Counters.Faa_counter.handle (Counters.Faa_counter.create exec ()))
    ()

(* Quiescent exactness: after all processes finish, a final read by anyone
   returns the exact total. *)
let quiescent_exact make_handle () =
  let n = 5 in
  let per_process = 37 in
  let exec = Sim.Exec.create ~n () in
  let handle = make_handle exec n in
  let final = ref (-1) in
  let program pid =
    for _ = 1 to per_process do
      handle.Obj_intf.c_inc ~pid
    done
  in
  let reader pid =
    program pid;
    final := handle.Obj_intf.c_read ~pid
  in
  let programs = Array.init n (fun i -> if i = 0 then reader else program) in
  (* Everyone else first, then p0's read runs last under Seq. *)
  ignore
    (Sim.Exec.run exec ~programs
       ~policy:(Sim.Schedule.Seq
                  [ Sim.Schedule.Script
                      (Array.concat
                         (List.init (n * per_process * 400) (fun i ->
                              [| 1 + (i mod (n - 1)) |])));
                    Sim.Schedule.Solo 0 ])
       ());
  check vi "exact total" (n * per_process) !final

let test_collect_quiescent () =
  quiescent_exact (fun exec n ->
      Sim_algo.Collect_counter.handle
        (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ()))
    ()

let test_snapshot_quiescent () =
  quiescent_exact (fun exec n ->
      Counters.Snapshot_counter.handle
        (Counters.Snapshot_counter.create exec ~n ()))
    ()

let test_tree_quiescent () =
  quiescent_exact (fun exec n ->
      Counters.Tree_counter.handle (Counters.Tree_counter.create exec ~n ()))
    ()

(* Linearizability on small histories. *)
let concurrent_lincheck make_handle () =
  for seed = 0 to 29 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let handle = make_handle exec n in
    let script =
      Workload.Script.counter_mix ~seed ~n ~ops_per_process:5
        ~read_fraction:0.4
    in
    let programs, _ = counter_programs handle script in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace Lincheck.Spec.exact_counter
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_collect_linearizable () =
  concurrent_lincheck (fun exec n ->
      Sim_algo.Collect_counter.handle
        (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ()))
    ()

let test_snapshot_linearizable () =
  concurrent_lincheck (fun exec n ->
      Counters.Snapshot_counter.handle
        (Counters.Snapshot_counter.create exec ~n ()))
    ()

let test_tree_linearizable () =
  concurrent_lincheck (fun exec n ->
      Counters.Tree_counter.handle (Counters.Tree_counter.create exec ~n ()))
    ()

let test_faa_linearizable () =
  concurrent_lincheck (fun exec _n ->
      Counters.Faa_counter.handle (Counters.Faa_counter.create exec ()))
    ()

(* Step complexity shapes. *)
let test_collect_read_cost () =
  let n = 8 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n () in
  let script = Array.make n [ Workload.Script.Inc; Read ] in
  let programs, _ =
    counter_programs (Sim_algo.Collect_counter.handle counter) script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
  check vi "read costs n" n
    (Sim.Metrics.worst_case ~name:"read" (Sim.Exec.trace exec));
  check vi "inc costs 1" 1
    (Sim.Metrics.worst_case ~name:"inc" (Sim.Exec.trace exec))

let test_tree_counter_polylog_read () =
  (* Read cost O(log v): grows much slower than the collect counter for
     large n; with n=16 and v=about 800, reads should stay far below n^2. *)
  let n = 16 in
  let exec = Sim.Exec.create ~n () in
  let counter = Counters.Tree_counter.create exec ~n () in
  let script =
    Array.make n (List.init 50 (fun i ->
        if i mod 10 = 9 then Workload.Script.Read else Workload.Script.Inc))
  in
  let programs, _ =
    counter_programs (Counters.Tree_counter.handle counter) script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random 77) ());
  let worst_read = Sim.Metrics.worst_case ~name:"read" (Sim.Exec.trace exec) in
  Alcotest.(check bool)
    (Printf.sprintf "tree read %d = O(log v)" worst_read)
    true (worst_read <= 30)

let test_tree_counter_no_lost_updates () =
  (* Heavy random interleaving; final quiescent read is exact. *)
  for seed = 0 to 4 do
    let n = 7 in
    let per_process = 97 in
    let exec = Sim.Exec.create ~n () in
    let counter = Counters.Tree_counter.create exec ~n () in
    let program pid =
      for _ = 1 to per_process do
        Counters.Tree_counter.increment counter ~pid
      done
    in
    ignore
      (Sim.Exec.run exec ~programs:(Array.make n program)
         ~policy:(Sim.Schedule.Random seed) ());
    (* Quiescent read in a follow-up single-process check via direct
       inspection: rebuild a fiber? Simpler: read via a fresh execution is
       impossible (state is in this exec's memory), so run the read through
       the trace-free peek: the root max register must equal the total.
       We instead re-run with a reader process included. *)
    let exec2 = Sim.Exec.create ~n:(n + 1) () in
    let counter2 = Counters.Tree_counter.create exec2 ~n:(n + 1) () in
    let final = ref (-1) in
    let programs =
      Array.init (n + 1) (fun i ->
          if i = n then fun pid ->
            final := Counters.Tree_counter.read counter2 ~pid
          else fun pid ->
            for _ = 1 to per_process do
              Counters.Tree_counter.increment counter2 ~pid
            done)
    in
    (* A generous random script over the incrementers only; entries naming
       finished processes are skipped, so the script drains them fully
       before Solo hands control to the reader. *)
    let rng = Workload.Rng.create ~seed in
    let script =
      Array.init (n * per_process * 400) (fun _ -> Workload.Rng.int rng n)
    in
    ignore
      (Sim.Exec.run exec2 ~programs
         ~policy:(Sim.Schedule.Seq
                    [ Sim.Schedule.Script script; Sim.Schedule.Solo n ])
         ());
    check vi
      (Printf.sprintf "seed %d total" seed)
      (n * per_process) !final
  done

let suite =
  [ ("collect sequential", `Quick, test_collect_sequential);
    ("snapshot sequential", `Quick, test_snapshot_sequential);
    ("tree sequential", `Quick, test_tree_sequential);
    ("faa sequential", `Quick, test_faa_sequential);
    ("collect quiescent", `Quick, test_collect_quiescent);
    ("snapshot quiescent", `Quick, test_snapshot_quiescent);
    ("tree quiescent", `Quick, test_tree_quiescent);
    ("collect linearizable", `Quick, test_collect_linearizable);
    ("snapshot linearizable", `Slow, test_snapshot_linearizable);
    ("tree linearizable", `Quick, test_tree_linearizable);
    ("faa linearizable", `Quick, test_faa_linearizable);
    ("collect read cost", `Quick, test_collect_read_cost);
    ("tree polylog read", `Quick, test_tree_counter_polylog_read);
    ("tree no lost updates", `Quick, test_tree_counter_no_lost_updates) ]

let () = Alcotest.run "counters" [ ("counters", suite) ]
