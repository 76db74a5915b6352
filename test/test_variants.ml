(* Tests for the ablation variants of Algorithm 1 and for the k-additive
   counter. *)

let check = Alcotest.check
let vi = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Ablation variants: still correct where expected                      *)
(* ------------------------------------------------------------------ *)

let lincheck_counter make ~k =
  for seed = 0 to 19 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let handle = make exec ~n ~k in
    let script =
      Workload.Script.counter_mix ~seed ~n ~ops_per_process:5
        ~read_fraction:0.4
    in
    let programs = Workload.Script.counter_programs handle script in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace (Lincheck.Spec.k_counter ~k)
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_no_helping_linearizable () =
  lincheck_counter ~k:2 (fun exec ~n ~k ->
      Approx.Kcounter_variants.No_helping.handle
        (Approx.Kcounter_variants.No_helping.create exec ~n ~k ()))

let test_no_probe_resume_linearizable () =
  lincheck_counter ~k:2 (fun exec ~n ~k ->
      Approx.Kcounter_variants.No_probe_resume.handle
        (Approx.Kcounter_variants.No_probe_resume.create exec ~n ~k ()))

let test_full_scan_linearizable () =
  lincheck_counter ~k:2 (fun exec ~n ~k ->
      Approx.Kcounter_variants.Full_scan_read.handle
        (Approx.Kcounter_variants.Full_scan_read.create exec ~n ~k ()))

(* The variants agree with Algorithm 1 on solo executions. *)
let test_variants_agree_solo () =
  let run make =
    let exec = Sim.Exec.create ~n:1 () in
    let handle = make exec ~n:1 ~k:3 in
    let reads = ref [] in
    let program pid =
      for i = 1 to 500 do
        handle.Obj_intf.c_inc ~pid;
        if i mod 50 = 0 then reads := handle.Obj_intf.c_read ~pid :: !reads
      done
    in
    ignore
      (Sim.Exec.run exec ~programs:[| program |]
         ~policy:Sim.Schedule.Round_robin ());
    List.rev !reads
  in
  let reference =
    run (fun exec ~n ~k ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ()))
  in
  List.iter
    (fun (label, make) ->
      check (Alcotest.list vi) label reference (run make))
    [ ("no-helping",
       fun exec ~n ~k ->
         Approx.Kcounter_variants.No_helping.handle
           (Approx.Kcounter_variants.No_helping.create exec ~n ~k ()));
      ("no-probe-resume",
       fun exec ~n ~k ->
         Approx.Kcounter_variants.No_probe_resume.handle
           (Approx.Kcounter_variants.No_probe_resume.create exec ~n ~k ())) ];
  (* The full scan sees interior switches the hop scan skips, so its reads
     dominate the reference pointwise (never less accurate). *)
  let full =
    run (fun exec ~n ~k ->
        Approx.Kcounter_variants.Full_scan_read.handle
          (Approx.Kcounter_variants.Full_scan_read.create exec ~n ~k ()))
  in
  List.iter2
    (fun f r ->
      Alcotest.(check bool)
        (Printf.sprintf "full-scan %d >= hop %d" f r)
        true (f >= r))
    full reference

(* No-probe-resume costs strictly more probe steps on a solo run that
   crosses interval boundaries. *)
let test_no_probe_resume_costs_more () =
  let total_steps make =
    let exec = Sim.Exec.create ~trace_steps:false ~n:1 () in
    let handle = make exec ~n:1 ~k:8 in
    let program pid =
      for _ = 1 to 100_000 do
        Sim.Api.op_unit ~name:"inc" (fun () -> handle.Obj_intf.c_inc ~pid)
      done
    in
    ignore
      (Sim.Exec.run exec ~programs:[| program |]
         ~policy:Sim.Schedule.Round_robin ());
    Sim.Exec.op_steps_total exec
  in
  let reference =
    total_steps (fun exec ~n ~k ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ()))
  in
  let ablated =
    total_steps (fun exec ~n ~k ->
        Approx.Kcounter_variants.No_probe_resume.handle
          (Approx.Kcounter_variants.No_probe_resume.create exec ~n ~k ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "without cursor %d > with %d" ablated reference)
    true (ablated > reference)

(* Full-scan reads cost more than first/last-hop reads once several
   intervals are set. *)
let test_full_scan_costs_more () =
  let read_steps make =
    let exec = Sim.Exec.create ~trace_steps:false ~n:1 () in
    let handle = make exec ~n:1 ~k:8 in
    let program pid =
      for _ = 1 to 100_000 do
        Sim.Api.op_unit ~name:"inc" (fun () -> handle.Obj_intf.c_inc ~pid)
      done;
      ignore
        (Sim.Api.op_int ~name:"read" (fun () -> handle.Obj_intf.c_read ~pid))
    in
    ignore
      (Sim.Exec.run exec ~programs:[| program |]
         ~policy:Sim.Schedule.Round_robin ());
    match
      List.find_opt (fun (n, _, _, _) -> n = "read") (Sim.Exec.op_stats exec)
    with
    | Some (_, _, worst, _) -> worst
    | None -> 0
  in
  let reference =
    read_steps (fun exec ~n ~k ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ()))
  in
  let ablated =
    read_steps (fun exec ~n ~k ->
        Approx.Kcounter_variants.Full_scan_read.handle
          (Approx.Kcounter_variants.Full_scan_read.create exec ~n ~k ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "full scan %d > hop scan %d" ablated reference)
    true (ablated > reference)

(* ------------------------------------------------------------------ *)
(* k-additive counter: the collect counter with ~k                    *)
(* ------------------------------------------------------------------ *)

module Kadd = Sim_algo.Collect_counter

let test_kadditive_threshold () =
  let exec = Sim.Exec.create ~n:4 () in
  let c0 = Kadd.create (Sim_backend.ctx exec) ~n:4 ~k:0 () in
  let c100 = Kadd.create (Sim_backend.ctx exec) ~n:4 ~k:100 () in
  check vi "k=0 threshold 1" 1 (Kadd.flush_threshold c0);
  check vi "k=100 n=4 threshold 21" 21
    (Kadd.flush_threshold c100)

let test_kadditive_exact_when_k0 () =
  let exec = Sim.Exec.create ~n:1 () in
  let counter = Kadd.create (Sim_backend.ctx exec) ~n:1 ~k:0 () in
  let reads = ref [] in
  let program pid =
    for i = 1 to 50 do
      Kadd.increment counter ~pid;
      if i mod 10 = 0 then
        reads := Kadd.read counter ~pid :: !reads
    done
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ());
  check (Alcotest.list vi) "exact" [ 10; 20; 30; 40; 50 ] (List.rev !reads)

let test_kadditive_error_bounded_sequential () =
  let n = 1 and k = 10 in
  let exec = Sim.Exec.create ~n () in
  let counter = Kadd.create (Sim_backend.ctx exec) ~n ~k () in
  let program pid =
    for v = 1 to 500 do
      Kadd.increment counter ~pid;
      let x = Kadd.read counter ~pid in
      if abs (x - v) > k then Alcotest.failf "v=%d x=%d" v x
    done
  in
  ignore
    (Sim.Exec.run exec ~programs:[| program |] ~policy:Sim.Schedule.Round_robin
       ())

let test_kadditive_linearizable () =
  let k = 5 in
  for seed = 0 to 19 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let counter = Kadd.create (Sim_backend.ctx exec) ~n ~k () in
    let script =
      Workload.Script.counter_mix ~seed ~n ~ops_per_process:5
        ~read_fraction:0.4
    in
    let programs =
      Workload.Script.counter_programs
        (Kadd.handle counter)
        script
    in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace
        (Lincheck.Spec.k_additive_counter ~k)
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_kadditive_cheap_incs () =
  (* k = 1000, n = 4: threshold 201, so 100k increments cost about
     100_000/201 = 498 shared steps. *)
  let n = 4 and k = 1000 in
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let counter = Kadd.create (Sim_backend.ctx exec) ~n ~k () in
  let program pid =
    for _ = 1 to 25_000 do
      Sim.Api.op_unit ~name:"inc" (fun () ->
          Kadd.increment counter ~pid)
    done
  in
  ignore
    (Sim.Exec.run exec ~programs:(Array.make n program)
       ~policy:(Sim.Schedule.Random 2) ());
  let steps = Sim.Exec.op_steps_total exec in
  Alcotest.(check bool)
    (Printf.sprintf "steps %d well below 100000" steps)
    true
    (steps < 1_000);
  (* And the quiescent read is within the additive envelope. *)
  let exec2 = Sim.Exec.create ~n:1 () in
  ignore exec2;
  ()

let test_kadditive_quiescent_error () =
  let n = 4 and k = 50 in
  let per_process = 10_000 in
  let exec = Sim.Exec.create ~n () in
  let counter = Kadd.create (Sim_backend.ctx exec) ~n ~k () in
  let final = ref 0 in
  let programs =
    Array.init n (fun i ->
        if i = 0 then fun pid ->
          (for _ = 1 to per_process do
             Kadd.increment counter ~pid
           done);
          final := Kadd.read counter ~pid
        else fun pid ->
          for _ = 1 to per_process do
            Kadd.increment counter ~pid
          done)
  in
  ignore
    (Sim.Exec.run exec ~programs
       ~policy:(Sim.Schedule.Seq
                  [ Sim.Schedule.Solo 1; Sim.Schedule.Solo 2;
                    Sim.Schedule.Solo 3; Sim.Schedule.Solo 0 ])
       ());
  let v = n * per_process in
  Alcotest.(check bool)
    (Printf.sprintf "|%d - %d| <= %d" !final v k)
    true
    (abs (!final - v) <= k)

let suite =
  [ ("no-helping linearizable", `Quick, test_no_helping_linearizable);
    ("no-probe-resume linearizable", `Quick,
     test_no_probe_resume_linearizable);
    ("full-scan linearizable", `Quick, test_full_scan_linearizable);
    ("variants agree solo", `Quick, test_variants_agree_solo);
    ("no-probe-resume costs more", `Quick, test_no_probe_resume_costs_more);
    ("full-scan costs more", `Quick, test_full_scan_costs_more);
    ("kadditive threshold", `Quick, test_kadditive_threshold);
    ("kadditive exact k=0", `Quick, test_kadditive_exact_when_k0);
    ("kadditive error bounded", `Quick, test_kadditive_error_bounded_sequential);
    ("kadditive linearizable", `Quick, test_kadditive_linearizable);
    ("kadditive cheap incs", `Quick, test_kadditive_cheap_incs);
    ("kadditive quiescent error", `Quick, test_kadditive_quiescent_error) ]

let () = Alcotest.run "variants" [ ("variants", suite) ]
