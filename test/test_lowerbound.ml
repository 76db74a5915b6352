(* Tests for the lower-bound experiment machinery: awareness experiment
   (Theorem III.11 / Corollary III.10.1) and perturbation adversaries
   (Lemmas V.1 / V.3). *)

let check = Alcotest.check
let vi = Alcotest.int

let kcounter_make ~k exec ~n =
  Sim_algo.Kcounter.handle
    (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ())

let collect_make exec ~n =
  Sim_algo.Collect_counter.handle
    (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ())

(* ------------------------------------------------------------------ *)
(* Awareness experiment                                                *)
(* ------------------------------------------------------------------ *)

let test_awareness_collect_counter () =
  (* The exact collect counter makes every reader aware of every
     incrementer it reads: top-half awareness should be close to n. *)
  let n = 16 in
  let result =
    Lowerbound.Awareness_exp.run ~make:collect_make ~n ~k:1
      ~policy:Sim.Schedule.Round_robin
  in
  check vi "n recorded" n result.n;
  Alcotest.(check bool)
    (Printf.sprintf "corollary holds: %d >= %.1f" result.top_half_min
       result.awareness_bound)
    true
    (float_of_int result.top_half_min >= result.awareness_bound);
  (* Round-robin: all incs land before the reads scan, so readers see
     everyone. *)
  Alcotest.(check bool) "readers see everyone" true (result.top_half_min >= n)

let test_awareness_kcounter_satisfies_corollary () =
  (* Any correct k-multiplicative counter satisfies Corollary III.10.1:
     n/2 processes reach awareness n/(2k^2). *)
  List.iter
    (fun (n, k) ->
      List.iter
        (fun policy ->
          let result =
            Lowerbound.Awareness_exp.run ~make:(kcounter_make ~k) ~n ~k
              ~policy
          in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d k=%d: %d >= %.1f" n k result.top_half_min
               result.awareness_bound)
            true
            (float_of_int result.top_half_min >= result.awareness_bound))
        [ Sim.Schedule.Round_robin;
          Sim.Schedule.Random 1;
          Sim.Schedule.Random 99 ])
    [ (16, 4); (36, 6); (64, 8) ]

let test_awareness_total_events_reasonable () =
  let n = 32 in
  let result =
    Lowerbound.Awareness_exp.run ~make:collect_make ~n ~k:1
      ~policy:Sim.Schedule.Round_robin
  in
  (* n incs (1 step each) + n reads (n steps each) = n + n^2 events. *)
  check vi "collect events" (n + (n * n)) result.total_events

(* ------------------------------------------------------------------ *)
(* Perturbation schedules                                              *)
(* ------------------------------------------------------------------ *)

let test_maxreg_value_schedule_rounds () =
  (* v_r = k^2 v_{r-1} + 1 with k=2: 1, 5, 21, 85, ... (~4^r/3), so the
     round count is about log4(3m). *)
  check vi "m=2^20 k=2" 10 (Lowerbound.Perturb.rounds_bound_maxreg
                              ~m:(1 lsl 20) ~k:2);
  check vi "m=2^40 k=2" 20 (Lowerbound.Perturb.rounds_bound_maxreg
                              ~m:(1 lsl 40) ~k:2);
  (* Theta(log_k m): doubling log m doubles rounds. *)
  let r20 = Lowerbound.Perturb.rounds_bound_maxreg ~m:(1 lsl 20) ~k:2 in
  let r40 = Lowerbound.Perturb.rounds_bound_maxreg ~m:(1 lsl 40) ~k:2 in
  check vi "linear in log m" (2 * r20) r40

let test_counter_batch_schedule () =
  (* I_1=1, I_r = (k^2-1) sum + r: for k=2: 1, 5, 21, 88(?), ... total <= m *)
  let batches_total m k =
    let rounds = Lowerbound.Perturb.rounds_bound_counter ~m ~k in
    rounds
  in
  Alcotest.(check bool) "more budget, more rounds" true
    (batches_total 1_000_000 2 > batches_total 1_000 2);
  Alcotest.(check bool) "larger k, fewer rounds" true
    (batches_total 1_000_000 4 < batches_total 1_000_000 2)

let test_perturb_kmaxreg () =
  let m = 1 lsl 24 and k = 2 in
  let rounds =
    Lowerbound.Perturb.perturb_maxreg
      ~make:(fun exec ~n ->
        Approx.Kmaxreg.handle (Approx.Kmaxreg.create exec ~n ~m ~k ()))
      ~m ~k
  in
  let total = List.length rounds in
  check vi "rounds achieved" (Lowerbound.Perturb.rounds_bound_maxreg ~m ~k)
    total;
  (* Responses strictly increase (each round perturbed the reader) -- the
     adversary itself asserts this; double-check here. *)
  let responses = List.map (fun r -> r.Lowerbound.Perturb.response) rounds in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "responses increase" true
    (strictly_increasing responses);
  (* [5, Theorem 1]: the reader accesses >= log2(rounds) distinct objects
     in the final round. *)
  let final = List.nth rounds (total - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "distinct objects %d >= log2 %d"
       final.Lowerbound.Perturb.distinct_objects total)
    true
    (float_of_int final.Lowerbound.Perturb.distinct_objects
     >= Float.log (float_of_int total) /. Float.log 2.0)

let test_perturb_exact_tree_maxreg () =
  (* The exact register is also perturbable and its reader pays the full
     Theta(log m) object count, far above log2(rounds). *)
  let m = 1 lsl 24 and k = 2 in
  let rounds =
    Lowerbound.Perturb.perturb_maxreg
      ~make:(fun exec ~n:_ ->
        Sim_algo.Tree_maxreg.handle
          (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m ()))
      ~m ~k
  in
  let total = List.length rounds in
  let final = List.nth rounds (total - 1) in
  let kmax_final_objects =
    let rounds' =
      Lowerbound.Perturb.perturb_maxreg
        ~make:(fun exec ~n ->
          Approx.Kmaxreg.handle (Approx.Kmaxreg.create exec ~n ~m ~k ()))
        ~m ~k
    in
    (List.nth rounds' (List.length rounds' - 1)).Lowerbound.Perturb
      .distinct_objects
  in
  Alcotest.(check bool)
    (Printf.sprintf "exact %d >> approx %d"
       final.Lowerbound.Perturb.distinct_objects kmax_final_objects)
    true
    (final.Lowerbound.Perturb.distinct_objects > 2 * kmax_final_objects)

let test_perturb_kcounter () =
  let m = 200_000 and k = 2 in
  let rounds =
    Lowerbound.Perturb.perturb_counter ~make:(kcounter_make ~k) ~m ~k
  in
  let total = List.length rounds in
  check vi "rounds achieved" (Lowerbound.Perturb.rounds_bound_counter ~m ~k)
    total;
  Alcotest.(check bool) "at least 5 rounds" true (total >= 5);
  let final = List.nth rounds (total - 1) in
  Alcotest.(check bool) "reader did real work" true
    (final.Lowerbound.Perturb.read_steps >= 1)

let test_perturb_collect_counter () =
  (* The exact O(n) counter: reader's distinct objects grow with the number
     of participating writers (the perturbation forces it to look at many
     cells). *)
  let m = 100_000 and k = 2 in
  let rounds =
    Lowerbound.Perturb.perturb_counter ~make:collect_make ~m ~k
  in
  let total = List.length rounds in
  let final = List.nth rounds (total - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "collect reader objects %d >= rounds %d"
       final.Lowerbound.Perturb.distinct_objects total)
    true
    (final.Lowerbound.Perturb.distinct_objects >= total)

let suite =
  [ ("awareness collect counter", `Quick, test_awareness_collect_counter);
    ("awareness kcounter corollary", `Quick,
     test_awareness_kcounter_satisfies_corollary);
    ("awareness total events", `Quick, test_awareness_total_events_reasonable);
    ("maxreg value schedule", `Quick, test_maxreg_value_schedule_rounds);
    ("counter batch schedule", `Quick, test_counter_batch_schedule);
    ("perturb kmaxreg", `Quick, test_perturb_kmaxreg);
    ("perturb exact tree maxreg", `Quick, test_perturb_exact_tree_maxreg);
    ("perturb kcounter", `Quick, test_perturb_kcounter);
    ("perturb collect counter", `Quick, test_perturb_collect_counter) ]

let () = Alcotest.run "lowerbound" [ ("lowerbound", suite) ]
