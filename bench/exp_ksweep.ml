(* E2 (Lemma III.8 regimes): amortized cost of Algorithm 1 as a function of
   the accuracy parameter k, for fixed n. The analysis gives constant
   amortized complexity for k >= sqrt(n); below that the object is still
   wait-free and cheap, but its accuracy guarantee degrades (E7 measures
   that side). This table shows cost vs k, plus the largest relative error
   observed by any read under a random schedule. *)

let measure ~n ~k ~ops_per_process ~seed =
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  (* Track the true number of completed increments to score read error.
     The count is maintained by the driver (local computation). *)
  let completed = ref 0 in
  let worst_ratio = ref 1.0 in
  let script =
    Workload.Script.counter_mix ~seed ~n ~ops_per_process ~read_fraction:0.3
  in
  let handle = Sim_algo.Kcounter.handle counter in
  let counting_handle =
    { handle with
      Obj_intf.c_inc =
        (fun ~pid ->
          handle.Obj_intf.c_inc ~pid;
          incr completed) }
  in
  let programs =
    Workload.Script.counter_programs
      ~on_read:(fun ~pid:_ x ->
        if !completed > 0 && x > 0 then begin
          let v = float_of_int !completed in
          let r = Float.max (float_of_int x /. v) (v /. float_of_int x) in
          if r > !worst_ratio then worst_ratio := r
        end)
      counting_handle script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
  (Sim.Exec.amortized exec, !worst_ratio)

let run () =
  Tables.section
    "E2  Cost and accuracy of Algorithm 1 vs k (Lemma III.8)\n\
     workload: 30% reads, 2048 ops/process, random schedule";
  List.iter
    (fun n ->
      let rows =
        List.map
          (fun k ->
            let amortized, worst_ratio =
              measure ~n ~k ~ops_per_process:2048 ~seed:7
            in
            [ string_of_int k;
              (if Approx.Accuracy.valid_k ~k ~n then "yes" else "no");
              Tables.fmt_float amortized;
              Tables.fmt_float worst_ratio;
              string_of_int k ])
          [ 2; 4; 8; 16; 32 ]
      in
      Tables.print_table
        ~title:(Printf.sprintf "n = %d (sqrt n = %.1f)" n
                  (Float.sqrt (float_of_int n)))
        ~header:[ "k"; "k>=sqrt n"; "amortized"; "worst x/v ratio";
                  "ratio bound" ]
        rows)
    [ 16; 64 ];
  print_endline
    "paper: amortized cost is constant for every k (the analysis needs\n\
     k >= sqrt n only for accuracy); the observed worst ratio generally\n\
     stays within k whenever k >= sqrt n. (The ratio is scored against\n\
     the completed count at read-return, so reads concurrent with bursts\n\
     of increments -- and startup-corner reads, see the erratum in\n\
     EXPERIMENTS.md -- can exceed it slightly even in 'yes' rows.)"
