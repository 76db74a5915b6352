(* Adversary: what the accuracy guarantee does and does not promise.

     dune exec examples/adversary.exe

   Three demonstrations on the simulator:

   1. The linearizability checker validating Algorithm 1's histories
      against the relaxed k-counter specification.
   2. The k >= sqrt(n) precondition is real: with k far below sqrt(n), an
      adversarial schedule drives reads outside the envelope relative to
      the number of increments (every process hoards announcements).
   3. The perturbation adversary of Section V driving an exact max
      register through Theta(log_k m) response changes, next to the
      k-multiplicative register whose reader touches exponentially fewer
      base objects. *)

let pf = Printf.printf

let demo_lincheck () =
  pf "== 1. Machine-checked linearizability ==\n";
  let n = 3 and k = 2 in
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let script =
    Workload.Script.counter_mix ~seed:7 ~n ~ops_per_process:4
      ~read_fraction:0.5
  in
  let programs =
    Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter) script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random 7) ());
  let ops = Lincheck.History.of_trace (Sim.Exec.trace exec) in
  pf "  history (%d ops):\n" (Array.length ops);
  Array.iter (fun op -> Format.printf "    %a@." Lincheck.History.pp_op op) ops;
  (match Lincheck.Checker.check (Lincheck.Spec.k_counter ~k) ops with
   | Lincheck.Checker.Linearizable witness ->
     pf "  linearizable; witness order: %s\n"
       (String.concat " " (List.map string_of_int witness))
   | Lincheck.Checker.Not_linearizable -> pf "  NOT linearizable (bug!)\n")

let demo_small_k () =
  pf "\n== 2. The k >= sqrt(n) precondition matters ==\n";
  (* n processes each perform `burst` increments; an adversarial schedule
     lets every process stop just below its announce threshold, so all
     increments stay invisible. A read then returns far less than v/k when
     n is large relative to k^2. *)
  let demo ~n ~k =
    let exec = Sim.Exec.create ~n () in
    let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
    let burst = (k * k) - 1 in
    (* below the k^2 announce threshold, after the switch_0 + interval-1
       phases: each process announces at 1, then k, then k^2... we stop
       every process right before its k^2-th increment. *)
    let reader_result = ref None in
    let programs =
      Array.init n (fun i ->
          if i = n - 1 then fun pid ->
            reader_result :=
              Some
                (Sim.Api.op_int ~name:"read" (fun () ->
                     Sim_algo.Kcounter.read counter ~pid))
          else fun pid ->
            for _ = 1 to burst + k + 1 do
              Sim.Api.op_unit ~name:"inc" (fun () ->
                  Sim_algo.Kcounter.increment counter ~pid)
            done)
    in
    (* All incrementers run to completion, then the reader. *)
    let policy =
      Sim.Schedule.Seq
        (List.init n (fun pid -> Sim.Schedule.Solo pid))
    in
    ignore (Sim.Exec.run exec ~programs ~policy ());
    let v = (n - 1) * (burst + k + 1) in
    let x = Option.get !reader_result in
    pf "  n=%-3d k=%d: true count %-5d read %-5d within envelope: %b\n" n k v x
      (Approx.Accuracy.within ~k ~exact:v x)
  in
  demo ~n:4 ~k:2;
  (* k = 2 >= sqrt(4): holds *)
  demo ~n:64 ~k:2;
  (* k = 2 << sqrt(64) = 8: the guarantee is void and the read is stale *)
  demo ~n:64 ~k:8;
  (* k = 8 = sqrt(64): holds again *)
  pf "  (The middle line shows reads may fall below v/k when k < sqrt n.)\n"

let demo_perturbation () =
  pf "\n== 3. Perturbation adversary (Section V) ==\n";
  let m = 1 lsl 30 and k = 2 in
  let run label make =
    let rounds = Lowerbound.Perturb.perturb_maxreg ~make ~m ~k in
    let last = List.nth rounds (List.length rounds - 1) in
    pf "  %-16s rounds=%-3d final read touches %d distinct base objects \
        (log2 rounds = %.1f)\n"
      label (List.length rounds)
      last.Lowerbound.Perturb.distinct_objects
      (Float.log (float_of_int (List.length rounds)) /. Float.log 2.0)
  in
  run "exact maxreg" (fun exec ~n:_ ->
      Sim_algo.Tree_maxreg.handle
        (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m ()));
  run "k-mult maxreg" (fun exec ~n ->
      Approx.Kmaxreg.handle (Approx.Kmaxreg.create exec ~n ~m ~k ()));
  pf "  (Both obey the Omega(log2 L) bound; the approximate register \
      nearly meets it.)\n"

let () =
  demo_lincheck ();
  demo_small_k ();
  demo_perturbation ()
