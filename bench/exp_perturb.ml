(* E5 + E6 (Section V): the perturbation lower-bound constructions, run
   against our implementations.

   E5 (Lemma V.1 / Theorem V.2, max registers): round r writes
   v_r = k^2 v_{r-1} + 1; each round provably changes the reader's solo
   response. We report the rounds achieved L (predicted Theta(log_k m)),
   the distinct base objects the reader's final solo read touches, and the
   log2 L bound it must respect.

   E6 (Lemma V.3 / Theorem V.4, counters): increment batches
   I_r = (k^2-1) sum I_j + r under a total budget m. *)

let run_maxreg () =
  Tables.section
    "E5  Perturbation adversary vs bounded max registers (Lemma V.1)";
  let rows =
    List.concat_map
      (fun e ->
        let m = 1 lsl e in
        List.concat_map
          (fun k ->
            let for_impl label make =
              let rounds = Lowerbound.Perturb.perturb_maxreg ~make ~m ~k in
              let l = List.length rounds in
              let final = List.nth rounds (l - 1) in
              [ Tables.fmt_pow2 m;
                string_of_int k;
                label;
                string_of_int l;
                Tables.fmt_float
                  (float_of_int (Zmath.floor_log ~base:k (m - 1)) /. 2.0);
                string_of_int final.Lowerbound.Perturb.distinct_objects;
                Tables.fmt_float
                  (Float.log (float_of_int l) /. Float.log 2.0) ]
            in
            [ for_impl "kmaxreg" (fun exec ~n ->
                  Approx.Kmaxreg.handle
                    (Approx.Kmaxreg.create exec ~n ~m ~k ()));
              for_impl "exact" (fun exec ~n:_ ->
                  Sim_algo.Tree_maxreg.handle
                    (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec)
                       ~m ())) ])
          [ 2; 4 ])
      [ 12; 24; 36; 48 ]
  in
  Tables.print_table
    ~title:"perturbation rounds and reader's distinct base objects"
    ~header:[ "m"; "k"; "impl"; "rounds L"; "log_k(m)/2"; "reader objects";
              "log2 L" ]
    rows;
  print_endline
    "paper: L matches Theta(log_k m) (compare with the log_k(m)/2 column);\n\
     every reader respects the Omega(log2 L) object bound; Algorithm 2's\n\
     reader sits close to log2 L while the exact register pays log2 m."

let run_counter () =
  Tables.section
    "E6  Perturbation adversary vs bounded counters (Lemma V.3)";
  let rows =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun k ->
            let for_impl label make =
              let rounds = Lowerbound.Perturb.perturb_counter ~make ~m ~k in
              let l = List.length rounds in
              let final = List.nth rounds (l - 1) in
              [ Tables.fmt_pow2 m;
                string_of_int k;
                label;
                string_of_int l;
                Tables.fmt_float
                  (float_of_int (Zmath.floor_log ~base:k m) /. 2.0);
                string_of_int final.Lowerbound.Perturb.distinct_objects;
                Tables.fmt_float
                  (Float.log (float_of_int l) /. Float.log 2.0);
                string_of_int final.Lowerbound.Perturb.read_steps ]
            in
            [ for_impl "kcounter" (fun exec ~n ->
                  Sim_algo.Kcounter.handle
                    (Sim_algo.Kcounter.create (Sim_backend.ctx exec)
                       ~n ~k:(max 2 k) ()));
              for_impl "collect" (fun exec ~n ->
                  Sim_algo.Collect_counter.handle
                    (Sim_algo.Collect_counter.create (Sim_backend.ctx exec)
                       ~n ())) ])
          [ 2; 4 ])
      [ 10_000; 100_000; 1_000_000 ]
  in
  Tables.print_table
    ~title:"perturbation rounds and reader's distinct base objects"
    ~header:[ "m (budget)"; "k"; "impl"; "rounds L"; "log_k(m)/2";
              "reader objects"; "log2 L"; "read steps" ]
    rows;
  print_endline
    "paper: rounds L = Theta(log_k m); the reader's final solo read must\n\
     touch at least log2 L distinct base objects (Theorem V.4's\n\
     Omega(min(log2 log_k m, n)) follows since L = Theta(log_k m))."

let run () =
  run_maxreg ();
  run_counter ()
