(* E11: bounded model checking of linearizability — every interleaving of
   small configurations is enumerated (Lincheck.Explore) and each complete
   trace checked against the (relaxed) sequential specification.

   This upgrades the sampled linearizability evidence of E7 to exhaustive
   evidence on small instances of Lemma III.5 (Algorithm 1), Lemma IV.1
   (Algorithm 2) and the substrates. The "broken collect maxreg" row is the
   negative control: the non-linearizable max register this repository's
   first draft used (a read that collects cells one at a time), which the
   explorer duly catches. *)

type case = {
  label : string;
  spec_check : (unit -> Sim.Exec.t * (int -> unit) array) -> Lincheck.Explore.stats;
  build : unit -> Sim.Exec.t * (int -> unit) array;
}

let counter_case ~label ~spec ~make script =
  { label;
    spec_check =
      (fun build -> Lincheck.Explore.exhaustive ~build ~spec ());
    build =
      (fun () ->
        let n = Array.length script in
        let exec = Sim.Exec.create ~n () in
        let handle = make exec ~n in
        (exec, Workload.Script.counter_programs handle script)) }

let maxreg_case ~label ~spec ~make script =
  { label;
    spec_check =
      (fun build -> Lincheck.Explore.exhaustive ~build ~spec ());
    build =
      (fun () ->
        let n = Array.length script in
        let exec = Sim.Exec.create ~n () in
        let handle = make exec ~n in
        (exec, Workload.Script.maxreg_programs handle script)) }

(* The deliberately broken single-collect max register (negative control;
   see Linear_maxreg's documentation for why this is not linearizable). *)
let broken_collect_maxreg exec ~n =
  let cells = Prims.Collect.create exec ~name:"broken" ~n () in
  let own = Array.make n 0 in
  { Obj_intf.mr_label = "broken-collect-maxreg";
    mr_write =
      (fun ~pid v ->
        if v > own.(pid) then begin
          own.(pid) <- v;
          Prims.Collect.update cells ~pid v
        end);
    mr_read = (fun ~pid:_ -> Prims.Collect.collect_fold cells ~init:0 ~f:max) }

let cases =
  [ counter_case ~label:"kcounter (Alg 1), k=2"
      ~spec:(Lincheck.Spec.k_counter ~k:2)
      ~make:(fun exec ~n ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 ()))
      [| [ Inc; Inc; Read ]; [ Inc; Inc; Read ] |];
    counter_case ~label:"kcounter 3 procs"
      ~spec:(Lincheck.Spec.k_counter ~k:2)
      ~make:(fun exec ~n ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k:2 ()))
      [| [ Inc; Read ]; [ Inc; Read ]; [ Inc; Read ] |];
    counter_case ~label:"startup-corrected kcounter"
      ~spec:(Lincheck.Spec.k_counter ~k:2)
      ~make:(fun exec ~n ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec)
             ~variant:Startup_corrected ~n ~k:2 ()))
      [| [ Inc; Inc; Read ]; [ Inc; Read ] |];
    counter_case ~label:"collect counter (exact)"
      ~spec:Lincheck.Spec.exact_counter
      ~make:(fun exec ~n ->
        Sim_algo.Collect_counter.handle
          (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ()))
      [| [ Inc; Read ]; [ Inc; Read ]; [ Inc; Read ] |];
    counter_case ~label:"kadditive counter, k=3"
      ~spec:(Lincheck.Spec.k_additive_counter ~k:3)
      ~make:(fun exec ~n ->
        Sim_algo.Collect_counter.handle
          (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ~k:3 ()))
      [| [ Inc; Inc; Read ]; [ Inc; Inc; Read ] |];
    maxreg_case ~label:"kmaxreg (Alg 2), m=5 k=2"
      ~spec:(Lincheck.Spec.k_max_register ~k:2)
      ~make:(fun exec ~n ->
        Approx.Kmaxreg.handle (Approx.Kmaxreg.create exec ~n ~m:5 ~k:2 ()))
      [| [ Write 2; Read ]; [ Write 4; Read ] |];
    maxreg_case ~label:"tree maxreg (exact), m=8"
      ~spec:Lincheck.Spec.exact_max_register
      ~make:(fun exec ~n:_ ->
        Sim_algo.Tree_maxreg.handle
          (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m:8 ()))
      [| [ Write 3; Read ]; [ Write 6; Read ] |];
    maxreg_case ~label:"BROKEN collect maxreg (control)"
      ~spec:Lincheck.Spec.exact_max_register ~make:broken_collect_maxreg
      [| [ Write 9 ]; [ Write 7 ]; [ Read; Read ] |] ]

let run () =
  Tables.section
    "E11  Exhaustive interleaving exploration (bounded model checking)";
  let rows =
    List.map
      (fun case ->
        let stats = case.spec_check case.build in
        [ case.label;
          string_of_int stats.Lincheck.Explore.executions;
          string_of_int stats.Lincheck.Explore.replays;
          string_of_int stats.Lincheck.Explore.max_depth;
          string_of_int stats.Lincheck.Explore.violations;
          (if stats.Lincheck.Explore.truncated then "yes" else "no") ])
      cases
  in
  Tables.print_table
    ~title:"all interleavings of each tiny configuration, checked"
    ~header:[ "object"; "executions"; "replays"; "depth"; "violations";
              "truncated" ]
    rows;
  print_endline
    "every implementation shows 0 violations over its full interleaving\n\
     space; the BROKEN control (a max register whose read is a plain\n\
     collect) is caught, demonstrating the harness has teeth."
