(* Tests for the bounded tree counter (sim) and the additional multicore
   counters (k-additive collect counter, Tree_counter on atomics). *)

let check = Alcotest.check
let vi = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Bounded tree counter (simulator)                                    *)
(* ------------------------------------------------------------------ *)

let test_bounded_sequential_exact () =
  let exec = Sim.Exec.create ~n:1 () in
  let counter = Counters.Bounded_tree_counter.create exec ~n:1 ~m:100 () in
  let reads = ref [] in
  let program pid =
    for i = 1 to 60 do
      Counters.Bounded_tree_counter.increment counter ~pid;
      if i mod 20 = 0 then
        reads := Counters.Bounded_tree_counter.read counter ~pid :: !reads
    done
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check (Alcotest.list vi) "exact" [ 20; 40; 60 ] (List.rev !reads)

let test_bounded_enforces_bound () =
  let exec = Sim.Exec.create ~n:1 () in
  let counter = Counters.Bounded_tree_counter.create exec ~n:1 ~m:3 () in
  let program pid =
    for _ = 1 to 3 do
      Counters.Bounded_tree_counter.increment counter ~pid
    done;
    Alcotest.check_raises "bound enforced"
      (Invalid_argument "Bounded_tree_counter.increment: bound exceeded")
      (fun () -> Counters.Bounded_tree_counter.increment counter ~pid)
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ())

let test_bounded_linearizable () =
  for seed = 0 to 19 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let counter = Counters.Bounded_tree_counter.create exec ~n ~m:100 () in
    let script =
      Workload.Script.counter_mix ~seed ~n ~ops_per_process:5
        ~read_fraction:0.4
    in
    let programs =
      Workload.Script.counter_programs
        (Counters.Bounded_tree_counter.handle counter)
        script
    in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace Lincheck.Spec.exact_counter
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_bounded_step_complexity_in_m () =
  (* Worst-case read tracks log2(m), independent of the current value. *)
  let cost m =
    let n = 4 in
    let exec = Sim.Exec.create ~n () in
    let counter = Counters.Bounded_tree_counter.create exec ~n ~m () in
    let program pid =
      if pid = 0 then begin
        Counters.Bounded_tree_counter.increment counter ~pid;
        ignore
          (Sim.Api.op_int ~name:"read" (fun () ->
               Counters.Bounded_tree_counter.read counter ~pid))
      end
    in
    ignore
      (Sim.Exec.run exec
         ~programs:(Array.init n (fun _ -> program))
         ~policy:(Sim.Schedule.Solo 0) ());
    Sim.Metrics.worst_case ~name:"read" (Sim.Exec.trace exec)
  in
  (* m = 15: inner bound 16, tree depth 4; the read is a root max-register
     read whose cost tracks ceil(log2(m+1)). *)
  Alcotest.(check bool) "bigger m costs more" true (cost 4_000 > cost 15);
  Alcotest.(check bool) "read cost bounded by log2 m + 1" true
    (cost 15 <= Zmath.ceil_log2 16 + 1)

(* ------------------------------------------------------------------ *)
(* Multicore k-additive: the collect counter over atomics with ~k     *)
(* ------------------------------------------------------------------ *)

module Kadd = Mcore.Atomic_algo.Collect_counter

let atomic_ctx = Backend.Atomic_backend.ctx

let test_mc_kadditive_threshold () =
  let c = Kadd.create (atomic_ctx ()) ~n:4 ~k:100 () in
  check vi "threshold" 21 (Kadd.flush_threshold c)

let test_mc_kadditive_parallel_error_bound () =
  let domains = 4 and k = 1000 in
  let per_domain = 50_000 in
  let counter = Kadd.create (atomic_ctx ()) ~n:domains ~k () in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index:_ ->
         Kadd.increment counter ~pid));
  let v = domains * per_domain in
  let x = Kadd.read counter ~pid:0 in
  Alcotest.(check bool)
    (Printf.sprintf "|%d - %d| <= %d" x v k)
    true
    (abs (x - v) <= k)

let test_mc_kadditive_exact_when_k0 () =
  let domains = 3 in
  let counter = Kadd.create (atomic_ctx ()) ~n:domains ~k:0 () in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:10_000
       ~worker:(fun ~pid ~op_index:_ ->
         Kadd.increment counter ~pid));
  check vi "exact" 30_000 (Kadd.read counter ~pid:0)

(* ------------------------------------------------------------------ *)
(* Multicore tree counter                                              *)
(* ------------------------------------------------------------------ *)

let test_mc_tree_sequential () =
  let c = Mcore.Mc_more_counters.Tree_counter.create ~n:1 () in
  for i = 1 to 100 do
    Mcore.Mc_more_counters.Tree_counter.increment c ~pid:0;
    check vi "running count" i (Mcore.Mc_more_counters.Tree_counter.read c)
  done

let test_mc_tree_parallel_quiescent_exact () =
  let domains = 4 and per_domain = 30_000 in
  let counter = Mcore.Mc_more_counters.Tree_counter.create ~n:domains () in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index:_ ->
         Mcore.Mc_more_counters.Tree_counter.increment counter ~pid));
  check vi "exact at quiescence" (domains * per_domain)
    (Mcore.Mc_more_counters.Tree_counter.read counter)

let test_mc_tree_reads_monotone_under_load () =
  let domains = 3 in
  let counter = Mcore.Mc_more_counters.Tree_counter.create ~n:domains () in
  let ok = Atomic.make true in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:20_000
       ~worker:(fun ~pid ~op_index ->
         if pid = 0 && op_index mod 50 = 0 then begin
           let a = Mcore.Mc_more_counters.Tree_counter.read counter in
           let b = Mcore.Mc_more_counters.Tree_counter.read counter in
           if b < a then Atomic.set ok false
         end
         else Mcore.Mc_more_counters.Tree_counter.increment counter ~pid));
  Alcotest.(check bool) "reads never regress" true (Atomic.get ok)

let suite =
  [ ("bounded sequential exact", `Quick, test_bounded_sequential_exact);
    ("bounded enforces bound", `Quick, test_bounded_enforces_bound);
    ("bounded linearizable", `Quick, test_bounded_linearizable);
    ("bounded step complexity in m", `Quick,
     test_bounded_step_complexity_in_m);
    ("mc kadditive threshold", `Quick, test_mc_kadditive_threshold);
    ("mc kadditive parallel error", `Quick,
     test_mc_kadditive_parallel_error_bound);
    ("mc kadditive exact k=0", `Quick, test_mc_kadditive_exact_when_k0);
    ("mc tree sequential", `Quick, test_mc_tree_sequential);
    ("mc tree parallel quiescent", `Quick,
     test_mc_tree_parallel_quiescent_exact);
    ("mc tree reads monotone", `Quick, test_mc_tree_reads_monotone_under_load) ]

let () = Alcotest.run "more_counters" [ ("more_counters", suite) ]
