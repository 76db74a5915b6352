(* Cross-library integration tests: multiple objects in one execution,
   crash (fail-stop) fault injection, full-algorithm replay determinism,
   and end-to-end experiment plumbing. *)

let check = Alcotest.check
let vi = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Crash tolerance: wait-freedom under fail-stop                         *)
(* ------------------------------------------------------------------ *)

(* A process that stops taking steps forever (crash) must not block
   others: we run p0 for a few steps into an increment burst, never
   schedule it again, and require every other process to finish its
   whole workload. *)
let test_kcounter_crash_midway () =
  let n = 4 and k = 2 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let reads = ref [] in
  let program pid =
    for _ = 1 to 500 do
      Sim.Api.op_unit ~name:"inc" (fun () ->
          Sim_algo.Kcounter.increment counter ~pid)
    done;
    reads :=
      Sim.Api.op_int ~name:"read" (fun () ->
          Sim_algo.Kcounter.read counter ~pid)
      :: !reads
  in
  (* p0 takes 3 steps (mid-announce), then crashes; the others run under a
     random schedule that never includes p0. *)
  let survivors_script =
    let rng = Workload.Rng.create ~seed:77 in
    Array.init 200_000 (fun _ -> 1 + Workload.Rng.int rng (n - 1))
  in
  let outcome =
    Sim.Exec.run exec
      ~programs:(Array.make n program)
      ~policy:(Sim.Schedule.Seq
                 [ Sim.Schedule.Script [| 0; 0; 0 |];
                   Sim.Schedule.Script survivors_script ])
      ()
  in
  Alcotest.(check bool) "p0 crashed (unfinished)" false outcome.completed.(0);
  for pid = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "p%d finished despite crash" pid)
      true outcome.completed.(pid)
  done;
  (* Survivors' reads are within the envelope of the increments performed
     by survivors (p0's handful of hidden increments are within the
     counted slack). *)
  List.iter
    (fun x -> Alcotest.(check bool) "read positive" true (x > 0))
    !reads

let test_kmaxreg_crash_midway () =
  let n = 3 and k = 2 and m = 1 lsl 16 in
  let exec = Sim.Exec.create ~n () in
  let mr = Approx.Kmaxreg.create exec ~n ~m ~k () in
  let result = ref 0 in
  let programs =
    [| (fun pid -> Approx.Kmaxreg.write mr ~pid 9_999);
       (fun pid ->
         Approx.Kmaxreg.write mr ~pid 77;
         result := Approx.Kmaxreg.read mr ~pid);
       (fun pid -> Approx.Kmaxreg.write mr ~pid 1_234) |]
  in
  (* p0 performs half of its write then crashes; p1 and p2 proceed. *)
  let outcome =
    Sim.Exec.run exec ~programs
      ~policy:(Sim.Schedule.Seq
                 [ Sim.Schedule.Script [| 0; 0 |];
                   Sim.Schedule.Solo 2;
                   Sim.Schedule.Solo 1 ])
      ()
  in
  Alcotest.(check bool) "p1 finished" true outcome.completed.(1);
  Alcotest.(check bool) "p2 finished" true outcome.completed.(2);
  (* The read must cover p2's completed write; p0's pending write may or
     may not be visible. *)
  Alcotest.(check bool)
    (Printf.sprintf "read %d >= 1234" !result)
    true (!result >= 1_234)

(* ------------------------------------------------------------------ *)
(* Several objects sharing one execution                                *)
(* ------------------------------------------------------------------ *)

let test_counter_and_maxreg_together () =
  let n = 3 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 () in
  let mr = Approx.Kmaxreg.create exec ~n ~m:4096 ~k:2 () in
  let count_read = ref 0 and max_read = ref 0 in
  let program pid =
    for i = 1 to 100 do
      Sim_algo.Kcounter.increment counter ~pid;
      Approx.Kmaxreg.write mr ~pid ((pid * 1000) + i)
    done;
    if pid = 0 then begin
      count_read := Sim_algo.Kcounter.read counter ~pid;
      max_read := Approx.Kmaxreg.read mr ~pid
    end
  in
  ignore
    (Sim.Exec.run exec ~programs:(Array.make n program)
       ~policy:(Sim.Schedule.Random 31) ());
  Alcotest.(check bool) "counter in envelope" true
    (Zmath.within_k ~k:2 ~exact:300 !count_read);
  Alcotest.(check bool) "max in envelope" true
    (!max_read >= 2_100 && !max_read <= 2 * 2_100)

(* ------------------------------------------------------------------ *)
(* Replay determinism through the full stack                            *)
(* ------------------------------------------------------------------ *)

let test_full_stack_replay () =
  let build () =
    let n = 4 in
    let exec = Sim.Exec.create ~n () in
    let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 () in
    let script =
      Workload.Script.counter_mix ~seed:3 ~n ~ops_per_process:50
        ~read_fraction:0.3
    in
    let reads = ref [] in
    let programs =
      Workload.Script.counter_programs
        ~on_read:(fun ~pid x -> reads := (pid, x) :: !reads)
        (Sim_algo.Kcounter.handle counter)
        script
    in
    (exec, programs, reads)
  in
  let exec1, programs1, reads1 = build () in
  let o1 =
    Sim.Exec.run exec1 ~programs:programs1 ~policy:(Sim.Schedule.Random 9) ()
  in
  let exec2, programs2, reads2 = build () in
  let o2 =
    Sim.Exec.run exec2 ~programs:programs2
      ~policy:(Sim.Schedule.Script o1.schedule_taken) ()
  in
  check (Alcotest.array vi) "schedules equal" o1.schedule_taken
    o2.schedule_taken;
  Alcotest.(check bool) "reads equal" true (!reads1 = !reads2);
  check vi "steps equal" o1.steps_total o2.steps_total

(* ------------------------------------------------------------------ *)
(* Exec live statistics vs trace-derived metrics                        *)
(* ------------------------------------------------------------------ *)

let test_live_stats_match_metrics () =
  let n = 4 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n () in
  let script =
    Workload.Script.counter_mix ~seed:5 ~n ~ops_per_process:100
      ~read_fraction:0.4
  in
  let programs =
    Workload.Script.counter_programs
      (Sim_algo.Collect_counter.handle counter)
      script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random 5) ());
  let trace = Sim.Exec.trace exec in
  check (Alcotest.float 1e-9) "amortized agree" (Sim.Metrics.amortized trace)
    (Sim.Exec.amortized exec);
  let live = Sim.Exec.op_stats exec in
  let from_trace = Sim.Metrics.by_name trace in
  List.iter2
    (fun (ln, lc, lmax, lmean) (tn, tc, tmax, tmean) ->
      check Alcotest.string "name" tn ln;
      check vi "count" tc lc;
      check vi "max" tmax lmax;
      check (Alcotest.float 1e-9) "mean" tmean lmean)
    live from_trace

let test_trace_steps_off_keeps_history () =
  let n = 2 in
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let counter = Counters.Faa_counter.create exec () in
  let script = Array.make n [ Workload.Script.Inc; Workload.Script.Read ] in
  let programs =
    Workload.Script.counter_programs (Counters.Faa_counter.handle counter)
      script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
  (* Invoke/Return events survive, so linearizability checking still
     works... *)
  (match
     Lincheck.Checker.check_trace Lincheck.Spec.exact_counter
       (Sim.Exec.trace exec)
   with
   | Lincheck.Checker.Linearizable _ -> ()
   | Lincheck.Checker.Not_linearizable -> Alcotest.fail "not linearizable");
  (* ...but no Step events were recorded. *)
  Sim.Trace.iter
    (fun e ->
      match e with
      | Sim.Trace.Step _ -> Alcotest.fail "step recorded despite trace_steps"
      | _ -> ())
    (Sim.Exec.trace exec);
  (* and live stats still saw the steps *)
  check vi "steps counted" 4 (Sim.Exec.op_steps_total exec)

(* ------------------------------------------------------------------ *)
(* The unbounded k-mult max register composed with the counter           *)
(* ------------------------------------------------------------------ *)

let test_kmaxreg_unbounded_watermark_of_counter () =
  (* A common composition: use the approximate counter's reads as values
     written into an approximate max register (watermark of a counter). *)
  let n = 3 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 () in
  let mr = Approx.Kmaxreg_unbounded.create exec ~k:2 () in
  let watermark = ref 0 in
  let program pid =
    for _ = 1 to 200 do
      Sim_algo.Kcounter.increment counter ~pid
    done;
    let x = Sim_algo.Kcounter.read counter ~pid in
    Approx.Kmaxreg_unbounded.write mr ~pid x;
    if pid = 0 then watermark := Approx.Kmaxreg_unbounded.read mr ~pid
  in
  ignore
    (Sim.Exec.run exec ~programs:(Array.make n program)
       ~policy:(Sim.Schedule.Seq
                  [ Sim.Schedule.Solo 1; Sim.Schedule.Solo 2;
                    Sim.Schedule.Solo 0 ])
       ());
  (* p0 reads last: count = 600, counter read in [300, 1200], watermark
     within another factor 2: [300, 2400]; and monotone >= earlier writes. *)
  Alcotest.(check bool)
    (Printf.sprintf "watermark %d in [300, 2400]" !watermark)
    true
    (!watermark >= 300 && !watermark <= 2_400)

let suite =
  [ ("kcounter crash midway", `Quick, test_kcounter_crash_midway);
    ("kmaxreg crash midway", `Quick, test_kmaxreg_crash_midway);
    ("counter and maxreg together", `Quick, test_counter_and_maxreg_together);
    ("full stack replay", `Quick, test_full_stack_replay);
    ("live stats match metrics", `Quick, test_live_stats_match_metrics);
    ("trace_steps off keeps history", `Quick,
     test_trace_steps_off_keeps_history);
    ("watermark of counter", `Quick, test_kmaxreg_unbounded_watermark_of_counter) ]

let () = Alcotest.run "integration" [ ("integration", suite) ]
