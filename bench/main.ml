(* Experiment harness: regenerates every "table and figure" of the paper.

   The paper is a theory paper (its single figure is an illustration in a
   proof), so each theorem/claim is reproduced as a measured table -- see
   DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured records.

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- e1      # just one experiment
     dune exec bench/main.exe -- list    # list experiment ids
*)

let experiments =
  [ ("e1", "amortized counter complexity (Thm III.9)", Exp_amortized.run);
    ("e2", "cost/accuracy vs k (Lemma III.8)", Exp_ksweep.run);
    ("e3", "awareness-set lower bound (Thm III.11)", Exp_awareness.run);
    ("e4", "max-register worst case (Thm IV.2)", Exp_maxreg_wc.run);
    ("e5e6", "perturbation adversaries (Section V)", Exp_perturb.run);
    ("fig1", "switch-interval states (Figure 1)", Exp_fig1.run);
    ("e7", "accuracy envelope and k >= sqrt(n) (Claim III.6)",
     Exp_accuracy.run);
    ("e9e10", "ablations + additive relaxation", Exp_ablation.run);
    ("e11", "exhaustive interleaving exploration", Exp_exhaustive.run);
    ("backends", "functor-instantiation smoke matrix", Exp_backends.run);
    ("mc", "multicore throughput (E8)", Exp_mc.run);
    ("mlp", "tree max-register layout, boxed vs flat (peak RSS ~1.3 GB)",
     Exp_mlp.run);
    ("floor", "CI floor probe: kcounter read-heavy median (ops/s)",
     Exp_mc.floor);
    ("bechamel", "wall-clock microbenchmarks (T1)", Bechamel_suite.run) ]

let list_experiments () =
  List.iter
    (fun (id, doc, _) -> Printf.printf "  %-10s %s\n" id doc)
    experiments

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    Printf.printf
      "Deterministic Approximate Objects: experiment harness\n\
       (run `dune exec bench/main.exe -- list` for individual ids)\n";
    List.iter (fun (_, _, run) -> run ()) experiments
  | [ _; "list" ] -> list_experiments ()
  | _ :: ids ->
    List.iter
      (fun id ->
        match List.find_opt (fun (i, _, _) -> i = id) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S; available:\n" id;
          list_experiments ();
          exit 2)
      ids
  | [] -> assert false
