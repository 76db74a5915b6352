(* Tests for exhaustive schedule exploration and the PCT scheduler. *)

let check = Alcotest.check
let vi = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration                                              *)
(* ------------------------------------------------------------------ *)

let test_explore_faa_counter () =
  (* 2 processes x (inc; read): every interleaving linearizable. *)
  let build () =
    let exec = Sim.Exec.create ~n:2 () in
    let counter = Counters.Faa_counter.create exec () in
    let programs =
      Workload.Script.counter_programs (Counters.Faa_counter.handle counter)
        (Workload.Script.inc_then_read ~n:2)
    in
    (exec, programs)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build ~spec:Lincheck.Spec.exact_counter ()
  in
  check vi "violations" 0 stats.violations;
  Alcotest.(check bool) "not truncated" false stats.truncated;
  (* 2 procs, 2 steps each: (4 choose 2) = 6 interleavings. *)
  check vi "executions" 6 stats.executions

let test_explore_kcounter_exhaustive () =
  (* Exhaustively verify Algorithm 1's linearizability on a small
     instance: n = 2, k = 2, each process incs twice then reads. *)
  let build () =
    let exec = Sim.Exec.create ~n:2 () in
    let counter =
      Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n:2 ~k:2 ()
    in
    let programs =
      Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter)
        [| [ Inc; Inc; Read ]; [ Inc; Inc; Read ] |]
    in
    (exec, programs)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build ~spec:(Lincheck.Spec.k_counter ~k:2) ()
  in
  check vi "violations" 0 stats.violations;
  Alcotest.(check bool) "not truncated" false stats.truncated;
  Alcotest.(check bool) "explored many executions" true
    (stats.executions > 10)

(* The startup-corner erratum (EXPERIMENTS "Erratum"): Algorithm 1 as
   written is not k-accurate when n > k + 1. Naive exhaustive search
   finds it at n = 4, k = 2 with a sequential witness: five incs
   complete, then p1's read returns 2 < 5 / 2. [kcounter_explore n k
   script] runs the search on the paper's body. *)
let kcounter_explore ~n ~k script =
  let build () =
    let exec = Sim.Exec.create ~n () in
    let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
    let programs =
      Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter)
        script
    in
    (exec, programs)
  in
  (build, Lincheck.Explore.exhaustive ~build ~spec:(Lincheck.Spec.k_counter ~k) ())

let erratum_script =
  Workload.Script.[| [ Inc; Inc ]; [ Inc; Read ]; [ Inc ]; [ Inc ] |]

let test_explore_finds_startup_corner () =
  let build, stats = kcounter_explore ~n:4 ~k:2 erratum_script in
  check vi "executions" 1_114 stats.executions;
  check vi "violations" 2 stats.violations;
  Alcotest.(check bool) "not truncated" false stats.truncated;
  match stats.first_violation with
  | None -> Alcotest.fail "no witness"
  | Some schedule ->
    let exec, programs = build () in
    ignore
      (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Script schedule) ());
    (* Each read as (incs completed before its invocation, result). *)
    let names = Hashtbl.create 8 and incs = ref 0 and reads = ref [] in
    let at_invoke = Hashtbl.create 8 in
    Sim.Trace.iter
      (function
        | Sim.Trace.Invoke { op_id; name; _ } ->
          Hashtbl.replace names op_id name;
          Hashtbl.replace at_invoke op_id !incs
        | Return { op_id; result; _ } -> (
          match Hashtbl.find names op_id with
          | "inc" -> incr incs
          | _ -> reads := (Hashtbl.find at_invoke op_id, result) :: !reads)
        | Step _ | Note _ -> ())
      (Sim.Exec.trace exec);
    Alcotest.(check (list (pair int (option int))))
      "a read of 2 after five completed incs" [ (5, Some 2) ] !reads

(* Controls: with n <= k + 1 the same search finds nothing. *)
let test_explore_startup_controls () =
  let _, stats =
    kcounter_explore ~n:3 ~k:2
      Workload.Script.[| [ Inc; Inc ]; [ Inc; Read ]; [ Inc ] |]
  in
  check vi "n = 3, k = 2: executions" 118 stats.executions;
  check vi "n = 3, k = 2: violations" 0 stats.violations;
  Alcotest.(check bool) "n = 3, k = 2: not truncated" false stats.truncated;
  let _, stats = kcounter_explore ~n:4 ~k:3 erratum_script in
  check vi "n = 4, k = 3: executions" 120 stats.executions;
  check vi "n = 4, k = 3: violations" 0 stats.violations;
  Alcotest.(check bool) "n = 4, k = 3: not truncated" false stats.truncated

let test_explore_kmaxreg_exhaustive () =
  (* m = 5 keeps the inner register on the tree branch for n = 2 (the
     snapshot branch retries under contention, blowing up the state
     space beyond exhaustive reach). *)
  let build () =
    let exec = Sim.Exec.create ~n:2 () in
    let mr = Approx.Kmaxreg.create exec ~n:2 ~m:5 ~k:2 () in
    let programs =
      Workload.Script.maxreg_programs (Approx.Kmaxreg.handle mr)
        [| [ Write 2; Read ]; [ Write 4; Read ] |]
    in
    (exec, programs)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build
      ~spec:(Lincheck.Spec.k_max_register ~k:2) ()
  in
  check vi "violations" 0 stats.violations;
  Alcotest.(check bool) "not truncated" false stats.truncated

(* Algorithm 2's fast paths: the futile-write filter and the validated
   read cache, over the default switch heap. [write pid] picks the
   write path of process [pid]. *)
let fast_kmaxreg_stats ~write script =
  let build () =
    let exec = Sim.Exec.create ~n:2 () in
    let mr = Sim_algo.Kmaxreg.create (Sim_backend.ctx exec) ~n:2 ~m:5 ~k:2 () in
    let handle =
      { Obj_intf.mr_label = "kmaxreg-fast";
        mr_write = (fun ~pid v -> write pid mr ~pid v);
        mr_read = (fun ~pid -> Sim_algo.Kmaxreg.read_fast mr ~pid) }
    in
    (exec, Workload.Script.maxreg_programs handle script)
  in
  Lincheck.Explore.exhaustive ~build ~spec:(Lincheck.Spec.k_max_register ~k:2)
    ()

let test_explore_kmaxreg_write_fast () =
  let stats =
    fast_kmaxreg_stats
      ~write:(fun _ -> Sim_algo.Kmaxreg.write_fast)
      [| [ Write 2; Read ]; [ Write 4; Read ] |]
  in
  check vi "violations" 0 stats.violations;
  Alcotest.(check bool) "not truncated" false stats.truncated;
  (* pid 0's second write is filtered by its first, with pid 1's
     write and read interleaved anywhere around both. *)
  let stats =
    fast_kmaxreg_stats
      ~write:(fun _ -> Sim_algo.Kmaxreg.write_fast)
      [| [ Write 3; Write 3 ]; [ Write 1; Read ] |]
  in
  check vi "repeated write: violations" 0 stats.violations;
  Alcotest.(check bool) "repeated write: not truncated" false stats.truncated;
  (* The paper's write and write_fast on the same register. *)
  let stats =
    fast_kmaxreg_stats
      ~write:(fun pid ->
        if pid = 0 then Sim_algo.Kmaxreg.write_fast else Sim_algo.Kmaxreg.write)
      [| [ Write 2; Read ]; [ Write 4; Read ] |]
  in
  check vi "mixed write paths: violations" 0 stats.violations;
  Alcotest.(check bool) "mixed write paths: not truncated" false
    stats.truncated

(* Negative control for the filter: publishing the threshold before the
   inner write lands lets a covered write return while the register
   still reads below it. The explorer must catch this. *)
module Early_top_kmaxreg = struct
  module K = Sim_algo.Kmaxreg

  type t = { mr : K.t; top : Sim_backend.cas_cell; k : int }

  let create ctx ~n ~m ~k =
    { mr = K.create ctx ~n ~m ~k (); top = Sim_backend.cas_cell ctx 1; k }

  let rec raise_top t ~pid target =
    let cur = Sim_backend.cas_read t.top ~pid in
    if
      cur < target
      && not (Sim_backend.compare_and_set t.top ~pid ~expect:cur ~value:target)
    then raise_top t ~pid target

  let write t ~pid v =
    if v >= Sim_backend.cas_read t.top ~pid then begin
      raise_top t ~pid (Zmath.pow t.k (Zmath.floor_log ~base:t.k v + 1));
      K.write t.mr ~pid v
    end

  let handle t =
    { Obj_intf.mr_label = "kmaxreg-early-top";
      mr_write = (fun ~pid v -> write t ~pid v);
      mr_read = (fun ~pid -> K.read_fast t.mr ~pid) }
end

let test_explore_finds_early_top_bug () =
  let build () =
    let exec = Sim.Exec.create ~n:2 () in
    let mr = Early_top_kmaxreg.create (Sim_backend.ctx exec) ~n:2 ~m:5 ~k:2 in
    let programs =
      Workload.Script.maxreg_programs
        (Early_top_kmaxreg.handle mr)
        [| [ Write 2; Read ]; [ Write 4 ] |]
    in
    (exec, programs)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build
      ~spec:(Lincheck.Spec.k_max_register ~k:2) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "found %d violations in %d executions" stats.violations
       stats.executions)
    true
    (stats.violations > 0);
  Alcotest.(check bool) "not truncated" false stats.truncated

(* Negative control: the collect-based max register this repository's
   first Linear_maxreg used. A read that collects cells one by one is not
   linearizable (the maximum can jump past the assembled value); the
   explorer must find a violating interleaving. *)
module Broken_collect_maxreg = struct
  type t = { cells : Prims.Collect.t; own : int array }

  let create exec ~n =
    { cells = Prims.Collect.create exec ~name:"broken" ~n ();
      own = Array.make n 0 }

  let write t ~pid v =
    if v > t.own.(pid) then begin
      t.own.(pid) <- v;
      Prims.Collect.update t.cells ~pid v
    end

  let read t ~pid:_ = Prims.Collect.collect_fold t.cells ~init:0 ~f:max

  let handle t =
    { Obj_intf.mr_label = "broken-collect-maxreg";
      mr_write = (fun ~pid v -> write t ~pid v);
      mr_read = (fun ~pid -> read t ~pid) }
end

let test_explore_finds_collect_maxreg_bug () =
  (* 3 processes: a reader and two writers; writer A writes the larger
     value to the cell the reader scans first. *)
  let build () =
    let exec = Sim.Exec.create ~n:3 () in
    let mr = Broken_collect_maxreg.create exec ~n:3 in
    let programs =
      Workload.Script.maxreg_programs
        (Broken_collect_maxreg.handle mr)
        [| [ Write 9 ]; [ Write 7 ]; [ Read; Read ] |]
    in
    (exec, programs)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build ~spec:Lincheck.Spec.exact_max_register
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "found %d violations in %d executions" stats.violations
       stats.executions)
    true
    (stats.violations > 0);
  (* The witness schedule replays to a genuinely non-linearizable trace. *)
  match stats.first_violation with
  | None -> Alcotest.fail "no witness"
  | Some schedule ->
    let exec, programs = build () in
    ignore
      (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Script schedule) ());
    (match
       Lincheck.Checker.check_trace Lincheck.Spec.exact_max_register
         (Sim.Exec.trace exec)
     with
     | Lincheck.Checker.Not_linearizable -> ()
     | Lincheck.Checker.Linearizable _ ->
       Alcotest.fail "witness schedule did not reproduce")

let test_explore_limit () =
  let build () =
    let exec = Sim.Exec.create ~n:3 () in
    let counter =
      Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n:3 ()
    in
    let programs =
      Workload.Script.counter_programs
        (Sim_algo.Collect_counter.handle counter)
        (Array.make 3 [ Workload.Script.Inc; Read; Inc; Read ])
    in
    (exec, programs)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build ~spec:Lincheck.Spec.exact_counter
      ~limit:50 ()
  in
  Alcotest.(check bool) "truncated" true stats.truncated;
  check vi "leaves capped" 50 stats.executions

(* ------------------------------------------------------------------ *)
(* PCT scheduler                                                       *)
(* ------------------------------------------------------------------ *)

let test_pct_deterministic () =
  let draw seed =
    let c =
      Sim.Schedule.instantiate
        (Sim.Schedule.Pct { seed; change_points = 3; expected_length = 40 })
        ~n:4
    in
    List.init 40 (fun _ ->
        match Sim.Schedule.choose c ~runnable:(fun _ -> true) with
        | Some pid -> pid
        | None -> -1)
  in
  check (Alcotest.list vi) "same seed" (draw 5) (draw 5);
  Alcotest.(check bool) "different seeds differ" true (draw 5 <> draw 6)

let test_pct_priority_based () =
  (* With no change points, PCT runs the highest-priority process
     exclusively until it finishes. *)
  let c =
    Sim.Schedule.instantiate
      (Sim.Schedule.Pct { seed = 1; change_points = 1; expected_length = 10 })
      ~n:3
  in
  let picks =
    List.init 10 (fun _ ->
        match Sim.Schedule.choose c ~runnable:(fun _ -> true) with
        | Some pid -> pid
        | None -> -1)
  in
  match picks with
  | first :: rest ->
    Alcotest.(check bool) "single process runs" true
      (List.for_all (fun p -> p = first) rest)
  | [] -> Alcotest.fail "no picks"

let test_pct_demotion_changes_processes () =
  (* With change points, different processes get to run. *)
  let distinct seed =
    let c =
      Sim.Schedule.instantiate
        (Sim.Schedule.Pct { seed; change_points = 4; expected_length = 30 })
        ~n:4
    in
    List.init 30 (fun _ ->
        match Sim.Schedule.choose c ~runnable:(fun _ -> true) with
        | Some pid -> pid
        | None -> -1)
    |> List.sort_uniq compare |> List.length
  in
  (* over several seeds, at least one schedule exercises 3+ processes *)
  Alcotest.(check bool) "change points diversify" true
    (List.exists (fun s -> distinct s >= 3) [ 1; 2; 3; 4; 5 ])

let test_pct_respects_runnable () =
  let c =
    Sim.Schedule.instantiate
      (Sim.Schedule.Pct { seed = 9; change_points = 2; expected_length = 20 })
      ~n:3
  in
  let runnable pid = pid <> 1 in
  for _ = 1 to 20 do
    match Sim.Schedule.choose c ~runnable with
    | Some 1 -> Alcotest.fail "picked non-runnable process"
    | Some _ -> ()
    | None -> Alcotest.fail "abstained with runnable processes"
  done

let test_pct_drives_kcounter () =
  (* PCT schedules exercise the counter without violating the spec. *)
  for seed = 0 to 19 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 () in
    let script =
      Workload.Script.counter_mix ~seed ~n ~ops_per_process:5
        ~read_fraction:0.4
    in
    let programs =
      Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter) script
    in
    let outcome =
      Sim.Exec.run exec ~programs
        ~policy:(Sim.Schedule.Pct
                   { seed; change_points = 5; expected_length = 60 })
        ()
    in
    Alcotest.(check bool) "all finished" true
      (Array.for_all Fun.id outcome.completed);
    match
      Lincheck.Checker.check_trace (Lincheck.Spec.k_counter ~k:2)
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let suite =
  [ ("explore faa counter", `Quick, test_explore_faa_counter);
    ("explore kcounter exhaustive", `Slow, test_explore_kcounter_exhaustive);
    ("explore kmaxreg exhaustive", `Slow, test_explore_kmaxreg_exhaustive);
    ("explore finds collect-maxreg bug", `Quick,
     test_explore_finds_collect_maxreg_bug);
    ("explore limit", `Quick, test_explore_limit);
    ("pct deterministic", `Quick, test_pct_deterministic);
    ("pct priority based", `Quick, test_pct_priority_based);
    ("pct demotion diversifies", `Quick, test_pct_demotion_changes_processes);
    ("pct respects runnable", `Quick, test_pct_respects_runnable);
    ("pct drives kcounter", `Quick, test_pct_drives_kcounter);
    ("explore kmaxreg write_fast exhaustive", `Slow,
     test_explore_kmaxreg_write_fast);
    ("explore finds early-top bug", `Quick, test_explore_finds_early_top_bug);
    ("explore finds startup corner", `Quick, test_explore_finds_startup_corner);
    ("startup corner needs n > k + 1", `Quick, test_explore_startup_controls)
  ]

let () = Alcotest.run "explore" [ ("explore", suite) ]
