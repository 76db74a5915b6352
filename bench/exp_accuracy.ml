(* E7 (Claim III.6): the accuracy envelope, measured — including its
   failure mode when k < sqrt(n).

   Part 1 (random schedules): for every completed read, score the returned
   value x against the conservative envelope
   [completed-incs-before-invocation / k, k * incs-invoked-before-return].
   A violation of this envelope implies a violation of the linearizable
   k-accuracy spec. Expected: zero violations for k >= sqrt(n).

   Part 2 (hoarding adversary): every process is stopped just under its
   announce threshold, then one process reads. The read sees only
   announced increments; for k < sqrt(n) the linearized count can exceed
   k * x, breaking the envelope — exactly the regime the paper's
   precondition excludes. *)

let random_schedule_violations ~n ~k ~seed =
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let script =
    Workload.Script.counter_mix ~seed ~n ~ops_per_process:500
      ~read_fraction:0.25
  in
  let programs =
    Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter) script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
  let ops = Lincheck.History.of_trace (Sim.Exec.trace exec) in
  let reads = ref 0 and violations = ref 0 in
  Array.iter
    (fun (op : Lincheck.History.op) ->
      if op.name = "read" && op.completed then begin
        incr reads;
        let x = Option.get op.result in
        let v_low = ref 0 and v_high = ref 0 in
        Array.iter
          (fun (o : Lincheck.History.op) ->
            if o.name = "inc" then begin
              if o.completed && o.ret_index < op.inv_index then incr v_low;
              if o.inv_index < op.ret_index then incr v_high
            end)
          ops;
        if (x * k < !v_low) || (!v_high > 0 && x > k * !v_high) then
          incr violations
      end)
    ops;
  (!reads, !violations)

let hoarding_read ~n ~k =
  (* Every incrementer performs k^2 + k increments solo (announcing only
     the cheap early switches), then a reader reads. *)
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let result = ref 0 in
  let per_process = (k * k) + k + 1 in
  let programs =
    Array.init n (fun i ->
        if i = n - 1 then fun pid ->
          result :=
            Sim.Api.op_int ~name:"read" (fun () ->
                Sim_algo.Kcounter.read counter ~pid)
        else fun pid ->
          for _ = 1 to per_process do
            Sim.Api.op_unit ~name:"inc" (fun () ->
                Sim_algo.Kcounter.increment counter ~pid)
          done)
  in
  ignore
    (Sim.Exec.run exec ~programs
       ~policy:(Sim.Schedule.Seq (List.init n (fun pid -> Sim.Schedule.Solo pid)))
       ());
  let v = (n - 1) * per_process in
  (v, !result)

(* The startup-corner erratum (EXPERIMENTS.md): every process parks just
   below its announce threshold, so only switch_0 is set; the read returns
   ReturnValue(0,0) = k against up to 1 + n(k-1) completed increments. *)
let parked_corner ~n ~k ~read =
  let exec = Sim.Exec.create ~n () in
  let inc, do_read = read exec ~n ~k in
  let result = ref 0 in
  let programs =
    Array.init n (fun i ->
        if i = n - 1 then fun pid ->
          result := Sim.Api.op_int ~name:"read" (fun () -> do_read ~pid)
        else fun pid ->
          let incs = if pid = 0 then k else k - 1 in
          for _ = 1 to incs do
            Sim.Api.op_unit ~name:"inc" (fun () -> inc ~pid)
          done)
  in
  ignore
    (Sim.Exec.run exec ~programs
       ~policy:(Sim.Schedule.Seq (List.init n (fun p -> Sim.Schedule.Solo p)))
       ());
  (k + ((n - 2) * (k - 1)), !result)

let run_erratum () =
  let original exec ~n ~k =
    let c = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
    ((fun ~pid -> Sim_algo.Kcounter.increment c ~pid),
     fun ~pid -> Sim_algo.Kcounter.read c ~pid)
  in
  let corrected exec ~n ~k =
    let c = Approx.Kcounter_variants.Startup_corrected.create exec ~n ~k () in
    ((fun ~pid ->
       Approx.Kcounter_variants.Startup_corrected.increment c ~pid),
     fun ~pid -> Approx.Kcounter_variants.Startup_corrected.read c ~pid)
  in
  let rows =
    List.concat_map
      (fun (n, k) ->
        let describe label read =
          let v, x = parked_corner ~n ~k ~read in
          [ string_of_int n;
            string_of_int k;
            (if Approx.Accuracy.valid_k ~k ~n then "yes" else "no");
            label;
            string_of_int v;
            string_of_int x;
            (if Approx.Accuracy.within ~k ~exact:v x then "within"
             else "OUTSIDE") ]
        in
        [ describe "Algorithm 1" original;
          describe "startup-corrected" corrected ])
      [ (4, 2); (9, 3); (16, 4); (64, 8) ]
  in
  Tables.print_table
    ~title:"startup-corner (parked) adversary: the Lemma III.5 erratum"
    ~header:[ "n"; "k"; "k>=sqrt n"; "variant"; "true v"; "read"; "envelope" ]
    rows;
  print_endline
    "finding: for n > k+1 the paper's algorithm violates the envelope even\n\
     with k = sqrt(n) (ReturnValue(0,0) = k cannot cover the 1 + n(k-1)\n\
     increments parked below the announce thresholds; the proof of Lemma\n\
     III.5 assumes q >= 1 or p >= 1). The startup-corrected variant\n\
     (first-increment announce bits + a corner collect) repairs it for\n\
     every n and k; see Kcounter_variants.Startup_corrected."

let run () =
  Tables.section "E7  Accuracy envelope and its k >= sqrt(n) precondition";
  let n = 16 in
  let rows =
    List.map
      (fun k ->
        let reads, violations =
          List.fold_left
            (fun (r, v) seed ->
              let r', v' = random_schedule_violations ~n ~k ~seed in
              (r + r', v + v'))
            (0, 0)
            [ 1; 2; 3; 4; 5 ]
        in
        let v, x = hoarding_read ~n ~k in
        [ string_of_int k;
          (if Approx.Accuracy.valid_k ~k ~n then "yes" else "no");
          Printf.sprintf "%d/%d" violations reads;
          string_of_int v;
          string_of_int x;
          (if Approx.Accuracy.within ~k ~exact:v x then "within"
           else "OUTSIDE") ])
      [ 2; 3; 4; 6; 8 ]
  in
  Tables.print_table
    ~title:(Printf.sprintf
              "n = %d (sqrt n = 4): random-schedule violations and the \
               hoarding adversary" n)
    ~header:[ "k"; "k>=sqrt n"; "violations (random)"; "hoard v";
              "hoard read"; "envelope" ]
    rows;
  print_endline
    "paper: for k >= sqrt(n) every read is within [v/k, v*k] (Claim III.6 /\n\
     Theorem III.9) -- those rows must show 0 violations and 'within'. For\n\
     k < sqrt(n) the guarantee is void: the hoarding adversary hides up to\n\
     n*(k^2-1) increments and drives reads OUTSIDE the envelope.";
  run_erratum ()
