(* Quickstart: create the paper's two objects in the step-counting
   simulator, run a small concurrent workload, and print what you get.

     dune exec examples/quickstart.exe

   Walks through: building an execution, allocating a
   k-multiplicative-accurate counter (Algorithm 1) and max register
   (Algorithm 2), running processes under a schedule, and inspecting
   accuracy + step metrics. *)

let () =
  let n = 4 in
  (* Algorithm 1's accuracy guarantee needs k >= sqrt(n). *)
  let k = Zmath.ceil_sqrt n in
  Printf.printf "== k-multiplicative-accurate counter (n=%d, k=%d) ==\n" n k;

  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in

  (* Each process: 1000 increments, then one read. *)
  let reads = Array.make n 0 in
  let program pid =
    for _ = 1 to 1_000 do
      Sim.Api.op_unit ~name:"inc" (fun () ->
          Sim_algo.Kcounter.increment counter ~pid)
    done;
    reads.(pid) <-
      Sim.Api.op_int ~name:"read" (fun () ->
          Sim_algo.Kcounter.read counter ~pid)
  in
  let outcome =
    Sim.Exec.run exec ~programs:(Array.make n program)
      ~policy:(Sim.Schedule.Random 2024) ()
  in

  let true_count = n * 1_000 in
  Array.iteri
    (fun pid x ->
      Printf.printf "  process %d read %d (true count %d, within [v/k, v*k]: %b)\n"
        pid x true_count
        (Approx.Accuracy.within ~k ~exact:true_count x))
    reads;
  Printf.printf "  total steps: %d, amortized steps/op: %.2f\n" outcome.steps_total
    (Sim.Metrics.amortized (Sim.Exec.trace exec));

  Printf.printf "\n== k-multiplicative-accurate max register (m=2^20, k=2) ==\n";
  let exec2 = Sim.Exec.create ~n () in
  let m = 1 lsl 20 in
  let mr = Approx.Kmaxreg.create exec2 ~n ~m ~k:2 () in
  let final = Array.make n 0 in
  let program2 pid =
    (* Process pid writes pid-flavoured values. *)
    List.iter
      (fun v ->
        Sim.Api.op_unit ~name:"write" ~arg:v (fun () ->
            Approx.Kmaxreg.write mr ~pid v))
      [ (pid + 1) * 100; (pid + 1) * 3_000; (pid + 1) * 77 ];
    final.(pid) <-
      Sim.Api.op_int ~name:"read" (fun () -> Approx.Kmaxreg.read mr ~pid)
  in
  ignore
    (Sim.Exec.run exec2 ~programs:(Array.make n program2)
       ~policy:Sim.Schedule.Round_robin ());
  let true_max = n * 3_000 in
  Array.iteri
    (fun pid x ->
      Printf.printf "  process %d read %d (true max %d; guaranteed v < x <= v*k)\n"
        pid x true_max)
    final;
  Printf.printf "  worst-case steps of any op: %d (exact register would need ~%d)\n"
    (Sim.Metrics.worst_case (Sim.Exec.trace exec2))
    (Zmath.ceil_log2 m);

  Printf.printf "\nDone. See examples/telemetry.ml and examples/watermark.ml \
                 for the multicore API,\nand examples/adversary.ml for \
                 adversarial schedules and the linearizability checker.\n"
