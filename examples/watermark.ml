(* Watermark: high-watermark tracking with approximate max registers.

     dune exec examples/watermark.exe

   Max registers are the natural object for monotone watermarks: the
   largest sequence number applied to a replica, the worst latency seen,
   the peak queue depth. When the consumer only needs the order of
   magnitude (alerting thresholds, backpressure bands), the
   k-multiplicative-accurate register gives an exponentially cheaper read
   path (Theorem IV.2: O(log log m) vs Theta(log m)).

   This example tracks the peak latency (in microseconds) observed by
   parallel workers, with an exact CAS-loop register and the k=2 register
   side by side, then shows the simulated step costs for both. *)

let () =
  let domains = 4 in
  let samples_per_domain = 100_000 in
  let m = 1 lsl 30 in
  let k = 2 in

  let exact =
    Mcore.Atomic_algo.Cas_maxreg.create (Backend.Atomic_backend.ctx ()) ()
  in
  let approx = Mcore.Mc_kmaxreg.create ~m ~k () in

  (* Deterministic synthetic latency trace: a heavy-tailed-ish pattern with
     a known global maximum, so we can score accuracy afterwards. *)
  let latency ~pid ~op_index =
    let base = 100 + ((op_index * 7 + pid * 13) mod 900) in
    let spike =
      if op_index mod 10_000 = 9_999 then (op_index / 10) + (pid * 50_000)
      else 0
    in
    base + spike
  in
  let true_peak = ref 0 in
  for pid = 0 to domains - 1 do
    for op_index = 0 to samples_per_domain - 1 do
      true_peak := max !true_peak (latency ~pid ~op_index)
    done
  done;

  Printf.printf "Tracking peak latency across %d domains x %d samples...\n%!"
    domains samples_per_domain;
  let result =
    Mcore.Throughput.run ~domains ~ops_per_domain:samples_per_domain
      ~worker:(fun ~pid ~op_index ->
        let l = latency ~pid ~op_index in
        Mcore.Atomic_algo.Cas_maxreg.write exact ~pid l;
        Mcore.Mc_kmaxreg.write approx l)
  in

  let x_exact = Mcore.Atomic_algo.Cas_maxreg.read exact ~pid:0 in
  let x_approx = Mcore.Mc_kmaxreg.read approx in
  Printf.printf "\n  true peak        : %d us\n" !true_peak;
  Printf.printf "  exact register   : %d us\n" x_exact;
  Printf.printf "  k=2 register     : %d us (guaranteed in (peak, peak*%d])\n"
    x_approx k;
  Printf.printf "  updates/s        : %.2f M\n"
    (result.ops_per_sec /. 1_000_000.0);

  (* The asymptotic story, measured exactly in the simulator. *)
  Printf.printf
    "\nStep complexity in the shared-memory model (simulator, m = 2^30):\n";
  (* n = 8 so the bounded-register dispatch picks the tree branch and the
     O(log2 log_k m) shape is visible (with n = 1 it would pick the O(n)
     collect and report one step). *)
  let exec = Sim.Exec.create ~n:8 () in
  let exact_sim = Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m () in
  let approx_sim = Approx.Kmaxreg.create exec ~n:8 ~m ~k () in
  let program pid =
    Sim.Api.op_unit ~name:"exact-write" (fun () ->
        Sim_algo.Tree_maxreg.write exact_sim ~pid (m - 1));
    ignore
      (Sim.Api.op_int ~name:"exact-read" (fun () ->
           Sim_algo.Tree_maxreg.read exact_sim ~pid));
    Sim.Api.op_unit ~name:"approx-write" (fun () ->
        Approx.Kmaxreg.write approx_sim ~pid (m - 1));
    ignore
      (Sim.Api.op_int ~name:"approx-read" (fun () ->
           Approx.Kmaxreg.read approx_sim ~pid))
  in
  ignore
    (Sim.Exec.run exec ~programs:(Array.init 8 (fun i -> if i = 0 then program else fun _ -> ())) ~policy:Sim.Schedule.Round_robin
       ());
  List.iter
    (fun (name, _, worst, _) ->
      Printf.printf "  %-12s worst-case steps: %d\n" name worst)
    (Sim.Metrics.by_name (Sim.Exec.trace exec))
