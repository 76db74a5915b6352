(* Tests for the real-multicore (Atomic/Domain) implementations. The
   container may have a single core; these tests validate safety and
   accuracy, not speedups. *)

let check = Alcotest.check
let vi = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Mc_kcounter                                                         *)
(* ------------------------------------------------------------------ *)

let test_kcounter_sequential_accuracy () =
  let k = 3 in
  let counter = Mcore.Mc_kcounter.create ~n:1 ~k () in
  for v = 1 to 5_000 do
    Mcore.Mc_kcounter.increment counter ~pid:0;
    let x = Mcore.Mc_kcounter.read counter ~pid:0 in
    if not (Zmath.within_k ~k ~exact:v x) then
      Alcotest.failf "read %d of count %d outside envelope" x v
  done

let test_kcounter_parallel_quiescent () =
  let domains = 4 in
  let per_domain = 20_000 in
  let k = 2 in
  (* k < sqrt(4) = 2 is allowed boundary: k = 2 >= sqrt(4). *)
  let counter = Mcore.Mc_kcounter.create ~n:domains ~k () in
  let result =
    Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
      ~worker:(fun ~pid ~op_index:_ ->
        Mcore.Mc_kcounter.increment counter ~pid)
  in
  check vi "all ops ran" (domains * per_domain) result.total_ops;
  (* Quiescent read: actual total v = domains * per_domain, but up to
     (limit - 1) increments per process may remain unannounced; the
     k-multiplicative envelope must still hold. *)
  let x = Mcore.Mc_kcounter.read counter ~pid:0 in
  let v = domains * per_domain in
  Alcotest.(check bool)
    (Printf.sprintf "quiescent read %d within [v/k, v*k] of %d" x v)
    true
    (Zmath.within_k ~k ~exact:v x)

let test_kcounter_parallel_mixed_envelope () =
  let domains = 3 in
  let per_domain = 10_000 in
  let k = 2 in
  let counter = Mcore.Mc_kcounter.create ~n:domains ~k () in
  let violations = Atomic.make 0 in
  let done_incs = Array.init domains (fun _ -> Atomic.make 0) in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index ->
         if op_index mod 100 = 99 then begin
           (* Reads interleaved with increments: check the coarse envelope
              [completed/k, k*(all possibly started)]. *)
           let low_bound =
             Array.fold_left (fun acc c -> acc + Atomic.get c) 0 done_incs
           in
           let x = Mcore.Mc_kcounter.read counter ~pid in
           let high_possible = domains * per_domain in
           if x * k < low_bound || x > k * high_possible then
             Atomic.incr violations;
           ignore low_bound
         end
         else begin
           Mcore.Mc_kcounter.increment counter ~pid;
           Atomic.incr done_incs.(pid)
         end));
  check vi "no envelope violations" 0 (Atomic.get violations)

(* ------------------------------------------------------------------ *)
(* Mc_kmaxreg                                                          *)
(* ------------------------------------------------------------------ *)

let test_kmaxreg_sequential () =
  let k = 2 and m = 1 lsl 20 in
  let mr = Mcore.Mc_kmaxreg.create ~m ~k () in
  check vi "initial" 0 (Mcore.Mc_kmaxreg.read mr);
  let best = ref 0 in
  List.iter
    (fun v ->
      Mcore.Mc_kmaxreg.write mr v;
      best := max !best v;
      let x = Mcore.Mc_kmaxreg.read mr in
      if not (x >= !best && x <= !best * k) then
        Alcotest.failf "read %d for max %d" x !best)
    [ 1; 100; 7; 65_535; 3; 1_000_000 ]

let test_kmaxreg_parallel_watermark () =
  let domains = 4 in
  let per_domain = 25_000 in
  let k = 2 and m = 1 lsl 30 in
  let mr = Mcore.Mc_kmaxreg.create ~m ~k () in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index ->
         Mcore.Mc_kmaxreg.write mr ((op_index * domains) + pid + 1)));
  let v = ((per_domain - 1) * domains) + domains in
  let x = Mcore.Mc_kmaxreg.read mr in
  Alcotest.(check bool)
    (Printf.sprintf "quiescent read %d within envelope of %d" x v)
    true
    (x >= v && x <= v * k)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_faa_parallel_exact () =
  let domains = 4 and per_domain = 50_000 in
  let counter = Mcore.Mc_baselines.Faa_counter.create () in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid:_ ~op_index:_ ->
         Mcore.Mc_baselines.Faa_counter.increment counter));
  check vi "exact" (domains * per_domain)
    (Mcore.Mc_baselines.Faa_counter.read counter)

let test_collect_parallel_exact () =
  let domains = 4 and per_domain = 50_000 in
  let counter =
    Mcore.Atomic_algo.Collect_counter.create (Backend.Atomic_backend.ctx ())
      ~n:domains ()
  in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index:_ ->
         Mcore.Atomic_algo.Collect_counter.increment counter ~pid));
  check vi "exact" (domains * per_domain)
    (Mcore.Atomic_algo.Collect_counter.read counter ~pid:0)

let test_lock_parallel_exact () =
  let domains = 4 and per_domain = 20_000 in
  let counter = Mcore.Mc_baselines.Lock_counter.create () in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid:_ ~op_index:_ ->
         Mcore.Mc_baselines.Lock_counter.increment counter));
  check vi "exact" (domains * per_domain)
    (Mcore.Mc_baselines.Lock_counter.read counter)

let test_cas_maxreg_parallel_exact () =
  let domains = 4 and per_domain = 25_000 in
  let mr =
    Mcore.Atomic_algo.Cas_maxreg.create (Backend.Atomic_backend.ctx ()) ()
  in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index ->
         Mcore.Atomic_algo.Cas_maxreg.write mr ~pid
           ((op_index * domains) + pid)));
  check vi "exact max"
    (((per_domain - 1) * domains) + domains - 1)
    (Mcore.Atomic_algo.Cas_maxreg.read mr ~pid:0)

let test_throughput_reports () =
  let r =
    Mcore.Throughput.run ~domains:2 ~ops_per_domain:1_000
      ~worker:(fun ~pid:_ ~op_index:_ -> ())
  in
  check vi "domains" 2 r.domains;
  check vi "total ops" 2_000 r.total_ops;
  Alcotest.(check bool) "positive throughput" true (r.ops_per_sec > 0.0)

let test_kcounter_validation () =
  Alcotest.check_raises "k < 2"
    (Invalid_argument "Kcounter_algo.create: k < 2") (fun () ->
      ignore (Mcore.Mc_kcounter.create ~n:2 ~k:1 ()));
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Mc_kcounter.create: switch_capacity out of range")
    (fun () -> ignore (Mcore.Mc_kcounter.create ~switch_capacity:0 ~n:1 ~k:2 ()));
  (* The ceiling is exported and matches the packed encoding's range. *)
  check vi "max_capacity" (1 lsl 20) Mcore.Mc_kcounter.max_capacity;
  Alcotest.check_raises "capacity above ceiling"
    (Invalid_argument "Mc_kcounter.create: switch_capacity out of range")
    (fun () ->
      ignore
        (Mcore.Mc_kcounter.create
           ~switch_capacity:(Mcore.Mc_kcounter.max_capacity + 1)
           ~n:1 ~k:2 ()))

(* ------------------------------------------------------------------ *)
(* Packed announcement encoding                                        *)
(* ------------------------------------------------------------------ *)

let test_packed_roundtrip () =
  let cases =
    [ (0, 0); (0, 1); (1, 0); (1, 1);
      (Backend.Packed.max_value, 0);
      (0, Backend.Packed.sn_mask);
      (Backend.Packed.max_value, Backend.Packed.sn_mask);
      (12345, 6789) ]
  in
  List.iter
    (fun (value, sn) ->
      let p = Backend.Packed.pack ~value ~sn in
      Alcotest.(check bool) "packed word non-negative" true (p >= 0);
      check vi (Printf.sprintf "value of pack(%d,%d)" value sn) value
        (Backend.Packed.value p);
      check vi (Printf.sprintf "sn of pack(%d,%d)" value sn) sn
        (Backend.Packed.sn p))
    cases;
  (* sn is stored modulo 2^sn_bits *)
  check vi "sn wraps" 1
    (Backend.Packed.sn (Backend.Packed.pack ~value:0 ~sn:(Backend.Packed.sn_mask + 2)))

let test_packed_sn_delta () =
  let m = Backend.Packed.sn_mask in
  check vi "no wrap" 2 (Backend.Packed.sn_delta 5 3);
  check vi "wrap by one" 1 (Backend.Packed.sn_delta 0 m);
  check vi "wrap by three" 3 (Backend.Packed.sn_delta 1 (m - 1));
  check vi "equal" 0 (Backend.Packed.sn_delta 7 7)

(* ------------------------------------------------------------------ *)
(* Padded helpers                                                      *)
(* ------------------------------------------------------------------ *)

let test_padded_int_array () =
  let a = Backend.Padded.Int_array.make 5 3 in
  check vi "length" 5 (Backend.Padded.Int_array.length a);
  check vi "init" 3 (Backend.Padded.Int_array.get a 4);
  Backend.Padded.Int_array.set a 2 10;
  check vi "set/get" 10 (Backend.Padded.Int_array.get a 2);
  check vi "sum" (3 + 3 + 10 + 3 + 3) (Backend.Padded.Int_array.sum a)

let test_padded_atomic () =
  let a = Backend.Padded.atomic 7 in
  check vi "initial" 7 (Atomic.get a);
  Atomic.set a 9;
  check vi "set" 9 (Atomic.get a);
  check vi "faa" 9 (Atomic.fetch_and_add a 4);
  check vi "after faa" 13 (Atomic.get a);
  (* copy preserves record contents and mutability *)
  let r = Backend.Padded.copy (ref 5) in
  r := 6;
  check vi "padded ref" 6 !r;
  (* non-blocks pass through *)
  check vi "immediate" 42 (Backend.Padded.copy 42)

(* ------------------------------------------------------------------ *)
(* Switch-capacity growth                                              *)
(* ------------------------------------------------------------------ *)

let test_kcounter_capacity_growth () =
  let k = 2 in
  let counter = Mcore.Mc_kcounter.create ~switch_capacity:1 ~n:1 ~k () in
  (* The chunked switch directory rounds the hint up to whole chunks;
     directory growth itself is exercised at the backend level
     (test_backend.ml drives indices past the initial chunks). *)
  let cap0 = Mcore.Mc_kcounter.capacity counter in
  Alcotest.(check bool) "initial capacity covers the hint" true (cap0 >= 1);
  for v = 1 to 10_000 do
    Mcore.Mc_kcounter.increment counter ~pid:0;
    if v mod 100 = 0 then begin
      let x = Mcore.Mc_kcounter.read counter ~pid:0 in
      if not (Approx.Accuracy.within ~k ~exact:v x) then
        Alcotest.failf "read %d of count %d outside envelope after growth" x v
    end
  done;
  Alcotest.(check bool)
    "capacity still covers every set switch" true
    (Mcore.Mc_kcounter.capacity counter >= cap0)

(* A default counter starts with one 64-switch chunk; at k = 2 a
   single add of 2^34 drives the announcement past switch 64, so the
   directory must grow mid-add and both reads must stay in the
   envelope afterwards. *)
let test_kcounter_default_capacity_grows () =
  let k = 2 and v = 1 lsl 34 in
  let counter = Mcore.Mc_kcounter.create ~n:1 ~k () in
  check vi "default capacity is one chunk" 64
    (Mcore.Mc_kcounter.capacity counter);
  Mcore.Mc_kcounter.add counter ~pid:0 v;
  Alcotest.(check bool)
    "add crossed switch 64" true
    (Mcore.Mc_kcounter.switches_set counter > 64);
  Alcotest.(check bool)
    "capacity grew" true
    (Mcore.Mc_kcounter.capacity counter > 64);
  List.iter
    (fun (label, x) ->
      if not (Approx.Accuracy.within ~k ~exact:v x) then
        Alcotest.failf "%s %d of count %d outside envelope after growth"
          label x v)
    [ ("read", Mcore.Mc_kcounter.read counter ~pid:0);
      ("read_fast", Mcore.Mc_kcounter.read_fast counter ~pid:0);
      ("cached read_fast", Mcore.Mc_kcounter.read_fast counter ~pid:0) ]

(* Live heap bytes per object: [Gc] live words across building
   [count] objects (kept alive in one array, whose slot is counted
   too), after a compaction on both sides. *)
let live_bytes_per ~count make =
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let objs = Array.init count make in
  let after = live () in
  ignore (Sys.opaque_identity objs);
  (after - before) * (Sys.word_size / 8) / count

let test_kcounter_space_budget () =
  let bytes =
    live_bytes_per ~count:10_000 (fun _ ->
        Mcore.Mc_kcounter.create ~n:1 ~k:4 ())
  in
  if bytes > 900 then
    Alcotest.failf "Mc_kcounter ~n:1 holds %d B live, budget 900 B" bytes

(* Algorithm 2's 32-slot switch heap for m = 2^30, k = 4 is one
   stride-1 flat block, not a padded cell per switch. *)
let test_kmaxreg_space_budget () =
  let bytes =
    live_bytes_per ~count:10_000 (fun _ ->
        Mcore.Mc_kmaxreg.create ~m:(1 lsl 30) ~k:4 ())
  in
  if bytes > 1100 then
    Alcotest.failf "Mc_kmaxreg ~m:2^30 ~k:4 holds %d B live, budget 1100 B"
      bytes

(* ------------------------------------------------------------------ *)
(* Zero-allocation fast paths                                          *)
(* ------------------------------------------------------------------ *)

(* [Gc.minor_words] itself boxes its float result, so allow a small
   slack; any per-operation allocation over [ops] iterations would blow
   far past it. *)
let assert_no_alloc label ~ops f =
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    f i
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 256.0 then
    Alcotest.failf "%s allocated %.0f minor words over %d ops" label delta ops

let test_kcounter_increment_no_alloc () =
  let counter = Mcore.Mc_kcounter.create ~n:2 ~k:2 () in
  (* Warmup: cross several limit boundaries so announcements happen
     both before and during the measured window. *)
  for _ = 1 to 10_000 do
    Mcore.Mc_kcounter.increment counter ~pid:0
  done;
  assert_no_alloc "increment" ~ops:100_000 (fun _ ->
      Mcore.Mc_kcounter.increment counter ~pid:0)

let test_kcounter_read_no_alloc () =
  let counter = Mcore.Mc_kcounter.create ~n:2 ~k:2 () in
  for _ = 1 to 10_000 do
    Mcore.Mc_kcounter.increment counter ~pid:0
  done;
  ignore (Mcore.Mc_kcounter.read counter ~pid:1);
  assert_no_alloc "read" ~ops:10_000 (fun _ ->
      ignore (Mcore.Mc_kcounter.read counter ~pid:1))

let test_kmaxreg_no_alloc () =
  let mr = Mcore.Mc_kmaxreg.create ~m:(1 lsl 30) ~k:2 () in
  Mcore.Mc_kmaxreg.write mr 1;
  assert_no_alloc "maxreg write+read" ~ops:10_000 (fun i ->
      Mcore.Mc_kmaxreg.write mr (i + 1);
      ignore (Mcore.Mc_kmaxreg.read mr))

(* ------------------------------------------------------------------ *)
(* Accuracy stress across domains (the padded/packed hot paths)        *)
(* ------------------------------------------------------------------ *)

(* Every read must land in the k-multiplicative envelope of some count
   between the increments already completed when the read starts (lo)
   and all increments the run can possibly perform (hi): within the
   interval [lo/k, hi*k], i.e. within ~k of a witness in [lo, hi]. *)
let stress_accuracy ~domains () =
  let per_domain = 20_000 in
  let k = 2 in
  let counter = Mcore.Mc_kcounter.create ~n:domains ~k () in
  let completed = Array.init domains (fun _ -> Atomic.make 0) in
  let hi = domains * per_domain in
  let violations = Atomic.make 0 in
  ignore
    (Mcore.Throughput.run ~domains ~ops_per_domain:per_domain
       ~worker:(fun ~pid ~op_index ->
         if op_index mod 50 = 49 then begin
           let lo =
             Array.fold_left (fun acc c -> acc + Atomic.get c) 0 completed
           in
           let x = Mcore.Mc_kcounter.read counter ~pid in
           let ok =
             Approx.Accuracy.within ~k ~exact:lo x
             || Approx.Accuracy.within ~k ~exact:hi x
             || (lo <= x && x <= hi)
           in
           if not ok then Atomic.incr violations
         end
         else begin
           Mcore.Mc_kcounter.increment counter ~pid;
           Atomic.incr completed.(pid)
         end));
  check vi
    (Printf.sprintf "no envelope violations at domains=%d" domains)
    0 (Atomic.get violations);
  (* quiescent read must be k-accurate for the exact final count *)
  let final = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 completed in
  let x = Mcore.Mc_kcounter.read counter ~pid:0 in
  Alcotest.(check bool)
    (Printf.sprintf "quiescent read %d within envelope of %d" x final)
    true
    (Approx.Accuracy.within ~k ~exact:final x)

(* ------------------------------------------------------------------ *)
(* Throughput harness stats                                            *)
(* ------------------------------------------------------------------ *)

let test_throughput_measure_stats () =
  let s =
    Mcore.Throughput.measure ~warmup_trials:1 ~trials:5 ~domains:2
      ~ops_per_domain:500
      ~worker:(fun ~pid:_ ~op_index:_ -> ())
      ()
  in
  check vi "domains" 2 s.Mcore.Throughput.s_domains;
  check vi "trials" 5 s.Mcore.Throughput.s_trials;
  check vi "ops per trial" 1_000 s.Mcore.Throughput.s_ops_per_trial;
  Alcotest.(check bool) "min <= median" true
    (s.Mcore.Throughput.s_min_ops_per_sec
     <= s.Mcore.Throughput.s_median_ops_per_sec);
  Alcotest.(check bool) "median <= max" true
    (s.Mcore.Throughput.s_median_ops_per_sec
     <= s.Mcore.Throughput.s_max_ops_per_sec);
  Alcotest.(check bool) "positive" true
    (s.Mcore.Throughput.s_min_ops_per_sec > 0.0)

let test_sweep_domains () =
  let sweep = Mcore.Throughput.sweep_domains () in
  Alcotest.(check bool) "starts with 1;2" true
    (match sweep with 1 :: 2 :: _ -> true | _ -> false);
  List.iter
    (fun d ->
      Alcotest.(check bool) "within cap" true (d >= 1 && d <= 8))
    sweep;
  let capped = Mcore.Throughput.sweep_domains ~max_domains:2 () in
  Alcotest.(check (list int)) "capped at 2" [ 1; 2 ] capped

let test_mixed_worker_rates () =
  let incs = ref 0 and reads = ref 0 in
  let worker =
    Mcore.Throughput.mixed_worker Mcore.Throughput.read_heavy
      ~inc:(fun ~pid:_ -> incr incs)
      ~read:(fun ~pid:_ -> incr reads)
  in
  for op_index = 0 to 999 do
    worker ~pid:0 ~op_index
  done;
  check vi "read-heavy reads per 1000" 950 !reads;
  check vi "read-heavy incs per 1000" 50 !incs

let suite =
  [ ("kcounter sequential accuracy", `Quick, test_kcounter_sequential_accuracy);
    ("kcounter parallel quiescent", `Quick, test_kcounter_parallel_quiescent);
    ("kcounter parallel mixed", `Quick, test_kcounter_parallel_mixed_envelope);
    ("kmaxreg sequential", `Quick, test_kmaxreg_sequential);
    ("kmaxreg parallel watermark", `Quick, test_kmaxreg_parallel_watermark);
    ("faa parallel exact", `Quick, test_faa_parallel_exact);
    ("collect parallel exact", `Quick, test_collect_parallel_exact);
    ("lock parallel exact", `Quick, test_lock_parallel_exact);
    ("cas maxreg parallel exact", `Quick, test_cas_maxreg_parallel_exact);
    ("throughput reports", `Quick, test_throughput_reports);
    ("kcounter validation", `Quick, test_kcounter_validation);
    ("packed roundtrip", `Quick, test_packed_roundtrip);
    ("packed sn delta", `Quick, test_packed_sn_delta);
    ("padded int array", `Quick, test_padded_int_array);
    ("padded atomic", `Quick, test_padded_atomic);
    ("kcounter capacity growth", `Quick, test_kcounter_capacity_growth);
    ("kcounter default capacity grows", `Quick,
     test_kcounter_default_capacity_grows);
    ("kcounter space budget", `Quick, test_kcounter_space_budget);
    ("kmaxreg space budget", `Quick, test_kmaxreg_space_budget);
    ("kcounter increment zero-alloc", `Quick, test_kcounter_increment_no_alloc);
    ("kcounter read zero-alloc", `Quick, test_kcounter_read_no_alloc);
    ("kmaxreg zero-alloc", `Quick, test_kmaxreg_no_alloc);
    ("accuracy stress domains=1", `Quick, stress_accuracy ~domains:1);
    ("accuracy stress domains=2", `Quick, stress_accuracy ~domains:2);
    ("throughput measure stats", `Quick, test_throughput_measure_stats);
    ("sweep domains", `Quick, test_sweep_domains);
    ("mixed worker rates", `Quick, test_mixed_worker_rates) ]

let () = Alcotest.run "mcore" [ ("mcore", suite) ]
