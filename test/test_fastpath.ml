(* Slack-aware fast paths: validated-cache reads ([read_fast]) and
   bulk increments ([add]).

   - A qcheck property replays arbitrary sequential interleavings of
     inc/add/read/read_fast over three backend instantiations (sim,
     atomic, chaos(atomic)) and checks that all three produce the same
     observable read sequence and that every read — cached or not —
     stays inside the k-multiplicative envelope of an exact shadow
     count.
   - Sim step accounting: a cache-hit read_fast costs exactly one
     charged primitive step (the watermark load), and [add] is
     step-for-step equivalent to the unit increments it batches, so
     Theorem III.9's amortized accounting is preserved verbatim.
   - Gc.minor_words: the cache-hit read and the bulk add allocate
     nothing on the atomic backend.
   - The kmaxreg validated cache agrees with the plain read, including
     the degraded custom-inner case.
   - The kmaxreg futile-write filter: [write_fast] then reads observe
     what [write] then reads do on every backend; a covered write
     charges one step, keeps the read cache valid and allocates
     nothing. *)

let check = Alcotest.check

module SK = Algo.Kcounter_algo.Make (Sim_backend)
module AK = Algo.Kcounter_algo.Make (Backend.Atomic_backend)
module Chaos_atomic = Backend.Chaos_backend.Make (Backend.Atomic_backend)
module CK = Algo.Kcounter_algo.Make (Chaos_atomic)
module AM = Algo.Kmaxreg_algo.Make (Backend.Atomic_backend)
module SM = Sim_algo.Kmaxreg
module CM = Algo.Kmaxreg_algo.Make (Chaos_atomic)
module AT = Algo.Tree_maxreg_algo.Make (Backend.Atomic_backend)
module AColl = Algo.Collect_counter_algo.Make (Backend.Atomic_backend)

(* ------------------------------------------------------------------ *)
(* Cross-backend differential property                                 *)
(* ------------------------------------------------------------------ *)

let n = 3
let k = 2

let op_to_string (pid, op) =
  match op with
  | `Inc -> Printf.sprintf "i%d" pid
  | `Add d -> Printf.sprintf "a%d(%d)" pid d
  | `Read -> Printf.sprintf "r%d" pid
  | `Read_fast -> Printf.sprintf "f%d" pid

let gen_op =
  QCheck.Gen.(
    frequency
      [ (4, return `Inc);
        (2, map (fun d -> `Add d) (int_bound 24));
        (2, return `Read);
        (3, return `Read_fast) ])

let gen_seq =
  QCheck.Gen.(list_size (int_range 1 60) (pair (int_bound (n - 1)) gen_op))

let arb_seq =
  QCheck.make
    ~print:(fun seq -> String.concat " " (List.map op_to_string seq))
    gen_seq

let apply_direct ~increment ~add ~read ~read_fast obj seq =
  List.filter_map
    (fun (pid, op) ->
      match op with
      | `Inc ->
        increment obj ~pid;
        None
      | `Add d ->
        add obj ~pid d;
        None
      | `Read -> Some (read obj ~pid)
      | `Read_fast -> Some (read_fast obj ~pid))
    seq

(* Fiber 0 of a fresh n-process simulator execution applies the whole
   interleaving; the ~pid each op carries selects the object-level
   process (the test_backend_diff idiom). *)
let apply_in_sim seq =
  let exec = Sim.Exec.create ~n () in
  let obj = SK.create (Sim_backend.ctx exec) ~n ~k () in
  let reads = ref [] in
  let programs =
    Array.init n (fun i _fiber ->
        if i = 0 then
          List.iter
            (fun (pid, op) ->
              match op with
              | `Inc -> SK.increment obj ~pid
              | `Add d -> SK.add obj ~pid d
              | `Read -> reads := SK.read obj ~pid :: !reads
              | `Read_fast -> reads := SK.read_fast obj ~pid :: !reads)
            seq)
  in
  let outcome = Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin () in
  Alcotest.(check bool) "sim run finished" true
    (Array.for_all Fun.id outcome.completed);
  List.rev !reads

let envelope_ok seq reads =
  let exact = ref 0 and rest = ref reads and ok = ref true in
  List.iter
    (fun (_pid, op) ->
      match op with
      | `Inc -> incr exact
      | `Add d -> exact := !exact + d
      | `Read | `Read_fast ->
        (match !rest with
         | r :: tl ->
           rest := tl;
           if not (Zmath.within_k ~k ~exact:!exact r) then ok := false
         | [] -> ok := false))
    seq;
  !ok && !rest = []

let prop_cross_backend =
  QCheck.Test.make ~count:60
    ~name:"inc/add/read/read_fast: backends agree, reads within envelope"
    arb_seq
    (fun seq ->
      let atomic = AK.create (Backend.Atomic_backend.ctx ()) ~n ~k () in
      let a_reads =
        apply_direct ~increment:AK.increment ~add:AK.add ~read:AK.read
          ~read_fast:AK.read_fast atomic seq
      in
      let chaos_ctx =
        Chaos_atomic.ctx ~rate:2 ~seed:(List.length seq) ~n
          (Backend.Atomic_backend.ctx ())
      in
      let chaotic = CK.create chaos_ctx ~n ~k () in
      let c_reads =
        apply_direct ~increment:CK.increment ~add:CK.add ~read:CK.read
          ~read_fast:CK.read_fast chaotic seq
      in
      let s_reads = apply_in_sim seq in
      a_reads = c_reads && a_reads = s_reads && envelope_ok seq a_reads)

(* ------------------------------------------------------------------ *)
(* Sim step accounting                                                 *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_costs_one_step () =
  let exec = Sim.Exec.create ~n:1 () in
  let c = Sim_backend.ctx exec in
  let counter = SK.create c ~n:1 ~k:2 () in
  let hit_steps = ref (-1) and miss_value = ref (-1) and hit_value = ref (-1) in
  let programs =
    [| (fun _fiber ->
         for _ = 1 to 10 do
           SK.increment counter ~pid:0
         done;
         miss_value := SK.read_fast counter ~pid:0;
         let before = Sim_backend.steps c ~pid:0 in
         hit_value := SK.read_fast counter ~pid:0;
         hit_steps := Sim_backend.steps c ~pid:0 - before) |]
  in
  ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
  check Alcotest.int "cache-hit read_fast charges exactly 1 step" 1 !hit_steps;
  check Alcotest.int "hit serves the cached value" !miss_value !hit_value;
  check Alcotest.int "one hit counted" 1 (SK.fast_hits counter ~pid:0);
  check Alcotest.int "one miss counted" 1 (SK.fast_misses counter ~pid:0)

(* [add] must pin the local counter to each crossed boundary exactly as
   the unit increments would, so the charged primitive sequence — and
   with it the Theorem III.9 amortized accounting — is identical. *)
let test_add_step_equivalence () =
  let total = 443 in
  let run_variant f =
    let exec = Sim.Exec.create ~n:1 () in
    let c = Sim_backend.ctx exec in
    let counter = SK.create c ~n:1 ~k:2 () in
    let value = ref (-1) in
    let programs =
      [| (fun _fiber ->
           f counter;
           value := SK.read counter ~pid:0) |]
    in
    ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
    (Sim_backend.steps c ~pid:0, !value)
  in
  let unit_steps, unit_value =
    run_variant (fun counter ->
        for _ = 1 to total do
          SK.increment counter ~pid:0
        done)
  in
  let doubling_steps, doubling_value =
    run_variant (fun counter ->
        (* Growing batches with a ragged tail. *)
        let left = ref total and b = ref 1 in
        while !left > 0 do
          let amount = min !left !b in
          SK.add counter ~pid:0 amount;
          left := !left - amount;
          b := !b * 2
        done)
  in
  let single_steps, single_value =
    run_variant (fun counter -> SK.add counter ~pid:0 total)
  in
  check Alcotest.int "doubling batches: same charged steps" unit_steps
    doubling_steps;
  check Alcotest.int "single bulk add: same charged steps" unit_steps
    single_steps;
  check Alcotest.int "doubling batches: same read" unit_value doubling_value;
  check Alcotest.int "single bulk add: same read" unit_value single_value;
  (* The shared constant-amortized bound, stated explicitly. *)
  Alcotest.(check bool) "amortized steps per increment stay O(1)" true
    (unit_steps <= 8 * total)

(* ------------------------------------------------------------------ *)
(* Zero allocation on the atomic backend                               *)
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

let test_read_fast_hit_no_alloc () =
  let counter = Mcore.Mc_kcounter.create ~n:2 ~k:2 () in
  for _ = 1 to 10_000 do
    Mcore.Mc_kcounter.increment counter ~pid:0
  done;
  (* Populate pid 1's cache, then measure a pure-hit window (pid 0 is
     quiescent, so the watermark cannot move). *)
  ignore (Mcore.Mc_kcounter.read_fast counter ~pid:1);
  let hits_before = Mcore.Mc_kcounter.fast_hits counter ~pid:1 in
  assert_no_alloc "read_fast hit" ~ops:100_000 (fun _ ->
      ignore (Mcore.Mc_kcounter.read_fast counter ~pid:1));
  check Alcotest.int "window was all cache hits" 100_000
    (Mcore.Mc_kcounter.fast_hits counter ~pid:1 - hits_before)

let test_add_no_alloc () =
  let counter = Mcore.Mc_kcounter.create ~n:2 ~k:2 () in
  Mcore.Mc_kcounter.add counter ~pid:0 10_000;
  assert_no_alloc "bulk add" ~ops:100_000 (fun _ ->
      Mcore.Mc_kcounter.add counter ~pid:0 3)

(* The flattened (index-arithmetic) tree read: the loop and its
   prefetch hints must stay allocation-free, or the layout win drowns
   in GC traffic. Full-depth walk (m = 2^20, 21 levels). *)
let test_tree_read_no_alloc () =
  let tree = AT.create (Backend.Atomic_backend.ctx ()) ~m:(1 lsl 20) () in
  AT.write tree ~pid:0 123_456;
  assert_no_alloc "flattened tree read" ~ops:100_000 (fun _ ->
      ignore (Sys.opaque_identity (AT.read tree ~pid:0)));
  check Alcotest.int "window read the written maximum" 123_456
    (AT.read tree ~pid:0)

(* The strided 4-accumulator collect scan, including the n mod 4 tail. *)
let test_collect_read_no_alloc () =
  let c = AColl.create (Backend.Atomic_backend.ctx ()) ~n:7 () in
  for pid = 0 to 6 do
    for _ = 1 to pid + 1 do
      AColl.increment c ~pid
    done
  done;
  assert_no_alloc "strided collect read" ~ops:100_000 (fun _ ->
      ignore (Sys.opaque_identity (AColl.read c ~pid:0)));
  check Alcotest.int "strided sum is exact" 28 (AColl.read c ~pid:0)

(* The op sequence of the mlp layout sweep ([bench/main.exe -- mlp]) at
   smoke size: 2 objects, m = 256, 500 ops, 50 permille random-value
   writes, drand48's LCG from seed 42. Every read of the flat tree max
   register must equal its object's exact running max. *)
let test_tree_mlp_running_max () =
  let objects = 2 and m = 256 and write_permille = 50 in
  let lcg_next s =
    s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !s lsr 16
  in
  let module T = Mcore.Atomic_algo.Tree_maxreg in
  let ctx = Backend.Atomic_backend.ctx () in
  let ts =
    Array.init objects (fun j ->
        T.create ctx ~name:(Printf.sprintf "mlp%d" j) ~m ())
  in
  let exact = Array.make objects 0 in
  let rng = ref 42 and writes = ref 0 in
  for op = 1 to 500 do
    let j = lcg_next rng mod objects in
    if lcg_next rng mod 1000 < write_permille then begin
      let v = lcg_next rng mod m in
      T.write ts.(j) ~pid:0 v;
      exact.(j) <- max exact.(j) v;
      incr writes
    end
    else
      check Alcotest.int
        (Printf.sprintf "op %d: read of object %d" op j)
        exact.(j) (T.read ts.(j) ~pid:0)
  done;
  Alcotest.(check bool) "the sequence wrote both objects" true
    (!writes > 0 && Array.for_all (fun v -> v > 0) exact)

(* ------------------------------------------------------------------ *)
(* kmaxreg validated cache                                             *)
(* ------------------------------------------------------------------ *)

let test_kmaxreg_read_fast_agrees () =
  let mr =
    AM.create (Backend.Atomic_backend.ctx ()) ~n:2 ~m:(1 lsl 20) ~k:2 ()
  in
  let exact = ref 0 in
  List.iter
    (fun v ->
      AM.write mr ~pid:0 v;
      exact := max !exact v;
      let plain = AM.read mr ~pid:1 in
      let fast = AM.read_fast mr ~pid:1 in
      let fast2 = AM.read_fast mr ~pid:1 in
      check Alcotest.int
        (Printf.sprintf "read_fast = read after write %d" v)
        plain fast;
      check Alcotest.int "repeated read_fast stable" fast fast2;
      Alcotest.(check bool)
        (Printf.sprintf "served %d within [exact, k*exact] of %d" fast !exact)
        true
        (fast >= !exact && fast <= k * !exact))
    [ 1; 5; 3; 100; 99; 1000; 4096; 4097; 65535; 2; 70000 ];
  Alcotest.(check bool) "cache hits occurred" true (AM.fast_hits mr ~pid:1 > 0);
  Alcotest.(check bool) "misses counted too" true (AM.fast_misses mr ~pid:1 > 0)

let test_kmaxreg_custom_inner_fallback () =
  (* With a caller-supplied inner register the watermark is opaque, so
     read_fast must degrade to the plain read (never crash, never
     cache). *)
  let ctx = Backend.Atomic_backend.ctx () in
  let tree = AT.create ctx ~m:24 () in
  let mr = AM.create ctx ~inner:(AT.handle tree) ~m:(1 lsl 20) ~k:2 () in
  AM.write mr ~pid:0 77;
  check Alcotest.int "fallback read_fast = read" (AM.read mr ~pid:0)
    (AM.read_fast mr ~pid:0);
  check Alcotest.int "no hits on the fallback path" 0 (AM.fast_hits mr ~pid:0)

(* ------------------------------------------------------------------ *)
(* kmaxreg futile-write filter                                         *)
(* ------------------------------------------------------------------ *)

let mr_m = 1 lsl 20

let arb_writes =
  QCheck.make
    ~print:(fun seq ->
      String.concat " "
        (List.map
           (fun (pid, w) ->
             match w with
             | Some v -> Printf.sprintf "w%d(%d)" pid v
             | None -> Printf.sprintf "r%d" pid)
           seq))
    QCheck.Gen.(
      list_size (int_range 1 60)
        (pair (int_bound (n - 1))
           (frequency
              [ (3, map Option.some (int_bound (mr_m - 1)));
                (* k^e - 1, k^e and k^e + 1: where a write's index,
                   and the threshold it publishes, step *)
                ( 2,
                  map2
                    (fun e d -> Some (min (mr_m - 1) ((1 lsl e) + d)))
                    (int_range 1 19) (int_range (-1) 1) );
                (2, return None) ])))

(* Reads of one interleaving (pid, Some v = write v | None = read_fast),
   written through [write]. *)
let mr_reads ~write ~read_fast mr seq =
  List.filter_map
    (fun (pid, op) ->
      match op with
      | Some v ->
        write mr ~pid v;
        None
      | None -> Some (read_fast mr ~pid))
    seq

let mr_reads_in_sim ~fast seq =
  let exec = Sim.Exec.create ~n () in
  let mr = SM.create (Sim_backend.ctx exec) ~n ~m:mr_m ~k () in
  let write = if fast then SM.write_fast else SM.write in
  let reads = ref [] in
  let programs =
    Array.init n (fun i _fiber ->
        if i = 0 then reads := mr_reads ~write ~read_fast:SM.read_fast mr seq)
  in
  ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
  !reads

let prop_write_fast_agrees =
  QCheck.Test.make ~count:60
    ~name:"write_fast/read_fast: same reads as write, on every backend"
    arb_writes
    (fun seq ->
      let atomic fast =
        let mr = AM.create (Backend.Atomic_backend.ctx ()) ~n ~m:mr_m ~k () in
        mr_reads ~write:(if fast then AM.write_fast else AM.write)
          ~read_fast:AM.read_fast mr seq
      in
      let chaos fast =
        let ctx =
          Chaos_atomic.ctx ~rate:2 ~seed:(List.length seq) ~n
            (Backend.Atomic_backend.ctx ())
        in
        let mr = CM.create ctx ~n ~m:mr_m ~k () in
        mr_reads ~write:(if fast then CM.write_fast else CM.write)
          ~read_fast:CM.read_fast mr seq
      in
      let reference = atomic false in
      reference = atomic true
      && reference = chaos true
      && reference = chaos false
      && reference = mr_reads_in_sim ~fast:true seq
      && reference = mr_reads_in_sim ~fast:false seq)

(* A covered write costs the threshold load and nothing else: it leaves
   the switch heap's watermark alone, so the next read_fast still hits.
   The paper's write of the same value walks the heap and raises its
   switches again, so the following read_fast misses. *)
let test_futile_write_one_step () =
  let exec = Sim.Exec.create ~n:1 () in
  let c = Sim_backend.ctx exec in
  let fast = SM.create c ~m:mr_m ~k:2 ()
  and plain = SM.create c ~m:mr_m ~k:2 () in
  let futile_steps = ref (-1) and plain_steps = ref (-1) in
  let programs =
    [| (fun _fiber ->
         SM.write_fast fast ~pid:0 1000;
         SM.write plain ~pid:0 1000;
         ignore (SM.read_fast fast ~pid:0);
         ignore (SM.read_fast plain ~pid:0);
         let before = Sim_backend.steps c ~pid:0 in
         SM.write_fast fast ~pid:0 700;
         futile_steps := Sim_backend.steps c ~pid:0 - before;
         let before = Sim_backend.steps c ~pid:0 in
         SM.write plain ~pid:0 700;
         plain_steps := Sim_backend.steps c ~pid:0 - before;
         ignore (SM.read_fast fast ~pid:0);
         ignore (SM.read_fast plain ~pid:0)) |]
  in
  ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
  check Alcotest.int "futile write_fast charges exactly 1 step" 1 !futile_steps;
  Alcotest.(check bool)
    (Printf.sprintf "the paper's write walks the heap (%d steps)" !plain_steps)
    true (!plain_steps > 1);
  check Alcotest.int "read_fast after the futile write hits" 1
    (SM.fast_hits fast ~pid:0);
  check Alcotest.int "read_fast after the plain write misses" 0
    (SM.fast_hits plain ~pid:0)

let test_futile_write_no_alloc () =
  let mr = AM.create (Backend.Atomic_backend.ctx ()) ~m:mr_m ~k:2 () in
  AM.write_fast mr ~pid:0 70_000;
  assert_no_alloc "futile write_fast" ~ops:100_000 (fun i ->
      AM.write_fast mr ~pid:0 (i land 0xffff));
  check Alcotest.int "register still reads the covering write" (1 lsl 17)
    (AM.read mr ~pid:0)

(* When k^p overflows, the threshold saturates at max_int instead of
   raising, and still filters: every writable value is below it. The
   read saturates the same way, inside the k-envelope. *)
let test_write_fast_saturates () =
  let ctx = Backend.Atomic_backend.ctx ~count_steps:1 () in
  let mr = AM.create ctx ~m:max_int ~k:1000 () in
  AM.write_fast mr ~pid:0 (max_int - 1);
  let before = Backend.Atomic_backend.steps ctx ~pid:0 in
  AM.write_fast mr ~pid:0 (max_int / 2);
  check Alcotest.int "write under the saturated threshold is filtered" 1
    (Backend.Atomic_backend.steps ctx ~pid:0 - before);
  let x = AM.read mr ~pid:0 in
  check Alcotest.int "read saturates at max_int" max_int x;
  Alcotest.(check bool) "saturated read is within k" true
    (Zmath.within_k ~k:1000 ~exact:(max_int - 1) x)

let test_mc_kmaxreg_wrapper () =
  let mr = Mcore.Mc_kmaxreg.create ~m:(1 lsl 20) ~k:2 () in
  check Alcotest.int "empty register reads 0 through the cache" 0
    (Mcore.Mc_kmaxreg.read_fast mr);
  Mcore.Mc_kmaxreg.write mr 123;
  check Alcotest.int "wrapper read_fast = read" (Mcore.Mc_kmaxreg.read mr)
    (Mcore.Mc_kmaxreg.read_fast mr);
  Alcotest.(check bool) "wrapper exposes hit counters" true
    (Mcore.Mc_kmaxreg.fast_hits mr + Mcore.Mc_kmaxreg.fast_misses mr >= 2);
  (* [write] is the filtered write: a covered value leaves the cache
     valid. *)
  let hits = Mcore.Mc_kmaxreg.fast_hits mr in
  Mcore.Mc_kmaxreg.write mr 100;
  check Alcotest.int "covered write: read_fast still 128" 128
    (Mcore.Mc_kmaxreg.read_fast mr);
  check Alcotest.int "covered write keeps the cache valid" (hits + 1)
    (Mcore.Mc_kmaxreg.fast_hits mr)

(* ------------------------------------------------------------------ *)
(* add argument validation                                             *)
(* ------------------------------------------------------------------ *)

let test_add_rejects_negative () =
  let counter = AK.create (Backend.Atomic_backend.ctx ()) ~n:1 ~k:2 () in
  Alcotest.check_raises "negative amount"
    (Invalid_argument "Kcounter_algo.add: negative amount") (fun () ->
      AK.add counter ~pid:0 (-1));
  AK.add counter ~pid:0 0;
  check Alcotest.int "add 0 is a no-op" 0 (AK.read counter ~pid:0)

let () =
  Alcotest.run "fastpath"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest prop_cross_backend ]);
      ("sim steps",
       [ ("cache hit costs one step", `Quick, test_cache_hit_costs_one_step);
         ("add is step-equivalent to unit incs", `Quick,
          test_add_step_equivalence) ]);
      ("allocation",
       [ ("read_fast hit allocates nothing", `Quick,
          test_read_fast_hit_no_alloc);
         ("bulk add allocates nothing", `Quick, test_add_no_alloc);
         ("flattened tree read allocates nothing", `Quick,
          test_tree_read_no_alloc);
         ("strided collect read allocates nothing", `Quick,
          test_collect_read_no_alloc) ]);
      ("tree maxreg",
       [ ("mlp op sequence reads the running max", `Quick,
          test_tree_mlp_running_max) ]);
      ("kmaxreg",
       [ ("read_fast agrees with read", `Quick, test_kmaxreg_read_fast_agrees);
         ("custom inner degrades to plain read", `Quick,
          test_kmaxreg_custom_inner_fallback);
         ("mcore wrapper", `Quick, test_mc_kmaxreg_wrapper);
         QCheck_alcotest.to_alcotest prop_write_fast_agrees;
         ("futile write_fast costs one step", `Quick,
          test_futile_write_one_step);
         ("futile write_fast allocates nothing", `Quick,
          test_futile_write_no_alloc);
         ("write_fast threshold saturates", `Quick, test_write_fast_saturates)
       ]);
      ("validation",
       [ ("add rejects negative amounts", `Quick, test_add_rejects_negative) ])
    ]
