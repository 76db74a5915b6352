(* Cross-backend differential tests: the same workload script, pushed
   through the same functor body over Sim_backend and Atomic_backend,
   must produce identical observable read sequences.

   One deterministic global interleaving (Workload.Script.interleave)
   is replayed op-by-op: on the simulator inside a single fiber (the
   object is created for n processes; fiber 0 performs every operation
   with the operation's own ~pid), on hardware as a plain sequential
   loop (domains = 1). Both executions apply the same abstract
   operation sequence, so any divergence is a backend bug — a packed
   encoding slip, a switch-growth bug, a step-sequence divergence that
   changes helping. *)

let check = Alcotest.check

module SK = Algo.Kcounter_algo.Make (Sim_backend)
module AK = Algo.Kcounter_algo.Make (Backend.Atomic_backend)
module SM = Algo.Kmaxreg_algo.Make (Sim_backend)
module AM = Algo.Kmaxreg_algo.Make (Backend.Atomic_backend)
module SC = Algo.Collect_counter_algo.Make (Sim_backend)
module AC = Algo.Collect_counter_algo.Make (Backend.Atomic_backend)
module Chaos_atomic = Backend.Chaos_backend.Make (Backend.Atomic_backend)
module CK = Algo.Kcounter_algo.Make (Chaos_atomic)

(* Run [apply] over the interleaving inside fiber 0 of a fresh
   n-process simulator execution (processes 1 .. n-1 are idle; the
   ~pid each operation carries selects the object-level process). *)
let run_in_sim ~n ~build ~apply seq =
  let exec = Sim.Exec.create ~n () in
  let obj = build exec in
  let reads = ref [] in
  let programs =
    Array.init n (fun i _fiber ->
        if i = 0 then
          List.iter
            (fun (pid, op) ->
              match apply obj ~pid op with
              | None -> ()
              | Some v -> reads := v :: !reads)
            seq)
  in
  let outcome = Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin () in
  Alcotest.(check bool) "sim run finished" true
    (Array.for_all Fun.id outcome.completed);
  List.rev !reads

let run_direct ~apply obj seq =
  let reads = ref [] in
  List.iter
    (fun (pid, op) ->
      match apply obj ~pid op with
      | None -> ()
      | Some v -> reads := v :: !reads)
    seq;
  List.rev !reads

(* ------------------------------------------------------------------ *)
(* k-multiplicative counter (Algorithm 1)                              *)
(* ------------------------------------------------------------------ *)

let apply_counter increment read obj ~pid op =
  match op with
  | Workload.Script.Inc ->
    increment obj ~pid;
    None
  | Workload.Script.Read -> Some (read obj ~pid)
  | Workload.Script.Write _ -> assert false

let test_kcounter_diff () =
  List.iter
    (fun (n, k, seed) ->
      let seq =
        Workload.Script.interleave ~seed
          (Workload.Script.counter_mix ~seed ~n ~ops_per_process:60
             ~read_fraction:0.3)
      in
      let sim_reads =
        run_in_sim ~n
          ~build:(fun exec -> SK.create (Sim_backend.ctx exec) ~n ~k ())
          ~apply:(apply_counter SK.increment SK.read)
          seq
      in
      let atomic =
        AK.create (Backend.Atomic_backend.ctx ()) ~capacity_hint:1 ~n ~k ()
      in
      let atomic_reads =
        run_direct ~apply:(apply_counter AK.increment AK.read) atomic seq
      in
      check
        Alcotest.(list int)
        (Printf.sprintf "kcounter reads agree (n=%d k=%d seed=%d)" n k seed)
        sim_reads atomic_reads)
    [ (1, 2, 1); (2, 2, 2); (3, 4, 3); (4, 3, 4) ]

let test_kcounter_diff_chaos () =
  (* Chaos injection only adds delay primitives; sequentially it must
     not change a single read. *)
  List.iter
    (fun seed ->
      let n = 3 and k = 2 in
      let seq =
        Workload.Script.interleave ~seed
          (Workload.Script.counter_mix ~seed ~n ~ops_per_process:50
             ~read_fraction:0.25)
      in
      let plain = AK.create (Backend.Atomic_backend.ctx ()) ~n ~k () in
      let plain_reads =
        run_direct ~apply:(apply_counter AK.increment AK.read) plain seq
      in
      let chaos_ctx =
        Chaos_atomic.ctx ~rate:2 ~seed ~n (Backend.Atomic_backend.ctx ())
      in
      let chaotic = CK.create chaos_ctx ~n ~k () in
      let chaos_reads =
        run_direct ~apply:(apply_counter CK.increment CK.read) chaotic seq
      in
      check
        Alcotest.(list int)
        (Printf.sprintf "chaos-wrapped reads agree (seed=%d)" seed)
        plain_reads chaos_reads)
    [ 5; 6 ]

(* ------------------------------------------------------------------ *)
(* k-multiplicative max register (Algorithm 2)                         *)
(* ------------------------------------------------------------------ *)

let apply_maxreg write read obj ~pid op =
  match op with
  | Workload.Script.Write v ->
    write obj ~pid v;
    None
  | Workload.Script.Read -> Some (read obj ~pid)
  | Workload.Script.Inc -> assert false

let test_kmaxreg_diff () =
  List.iter
    (fun (n, k, seed) ->
      let m = 1 lsl 20 in
      let script =
        Workload.Script.writes_then_read ~seed ~n ~writes_per_process:25
          ~max_value:m
      in
      let seq = Workload.Script.interleave ~seed script in
      let sim_reads =
        run_in_sim ~n
          ~build:(fun exec -> SM.create (Sim_backend.ctx exec) ~m ~k ())
          ~apply:(apply_maxreg SM.write SM.read)
          seq
      in
      let atomic = AM.create (Backend.Atomic_backend.ctx ()) ~m ~k () in
      let atomic_reads =
        run_direct ~apply:(apply_maxreg AM.write AM.read) atomic seq
      in
      check
        Alcotest.(list int)
        (Printf.sprintf "kmaxreg reads agree (n=%d k=%d seed=%d)" n k seed)
        sim_reads atomic_reads)
    [ (1, 2, 7); (2, 3, 8); (4, 2, 9) ]

(* ------------------------------------------------------------------ *)
(* Exact tree max register: flat read loop vs recursive walk           *)
(* ------------------------------------------------------------------ *)

(* The flattened index-arithmetic read (the shipped implementation)
   against the (index, span) recursion it replaced, replayed over the
   same interleavings. The reference maintains its own switch-heap
   mirror with the textbook recursive rules; sequentially the two
   heaps evolve identically, so any divergence is a flattening bug —
   an index slip, a wrong half split on a non-power-of-2 span, a hint
   that turned into a real (semantics-changing) access. *)
module Recursive_tree_ref = struct
  type t = { m : int; switch : int array }

  let create ~m =
    { m; switch = Array.make (2 * Zmath.pow 2 (Zmath.ceil_log2 (max m 1))) 0 }

  let rec write_node t i span v =
    if span > 1 then begin
      let half = (span + 1) / 2 in
      if v < half then begin
        if t.switch.(i) = 0 then write_node t (2 * i) half v
      end
      else begin
        write_node t ((2 * i) + 1) (span - half) (v - half);
        t.switch.(i) <- 1
      end
    end

  let write t v = write_node t 1 t.m v

  let rec read_node t i span acc =
    if span <= 1 then acc
    else
      let half = (span + 1) / 2 in
      if t.switch.(i) = 1 then
        read_node t ((2 * i) + 1) (span - half) (acc + half)
      else read_node t (2 * i) half acc

  let read t = read_node t 1 t.m 0
end

module TA = Algo.Tree_maxreg_algo.Make (Backend.Atomic_backend)
module TS = Algo.Tree_maxreg_algo.Make (Sim_backend)

let test_tree_flat_vs_recursive () =
  List.iter
    (fun (n, m, seed) ->
      let script =
        Workload.Script.writes_then_read ~seed ~n ~writes_per_process:30
          ~max_value:m
      in
      let seq = Workload.Script.interleave ~seed script in
      let flat = TA.create (Backend.Atomic_backend.ctx ()) ~m () in
      let reference = Recursive_tree_ref.create ~m in
      let running_max = ref 0 in
      List.iter
        (fun (pid, op) ->
          match op with
          | Workload.Script.Write v ->
            TA.write flat ~pid v;
            Recursive_tree_ref.write reference v;
            running_max := max !running_max v
          | Workload.Script.Read ->
            (* Compare after every read op AND keep a plain-max oracle
               so flat and reference cannot agree by being wrong the
               same way. *)
            let f = TA.read flat ~pid in
            check Alcotest.int
              (Printf.sprintf "flat = recursive (n=%d m=%d seed=%d)" n m seed)
              (Recursive_tree_ref.read reference)
              f;
            check Alcotest.int "flat = running max" !running_max f
          | Workload.Script.Inc -> assert false)
        seq;
      check Alcotest.int "final values agree"
        (Recursive_tree_ref.read reference)
        (TA.read flat ~pid:0))
    (* Non-power-of-2 bounds exercise the half = (span+1)/2 splits. *)
    [ (1, 1 lsl 16, 21); (2, 100_000, 22); (3, 777, 23); (4, 2, 24) ]

(* The same exact tree through Sim_backend: the flat loop issues the
   identical primitive sequence on a backend that charges steps, so a
   sequential replay must read identically to the hardware backend. *)
let test_tree_sim_vs_atomic () =
  List.iter
    (fun (n, m, seed) ->
      let script =
        Workload.Script.writes_then_read ~seed ~n ~writes_per_process:20
          ~max_value:m
      in
      let seq = Workload.Script.interleave ~seed script in
      let sim_reads =
        run_in_sim ~n
          ~build:(fun exec -> TS.create (Sim_backend.ctx exec) ~m ())
          ~apply:(apply_maxreg TS.write TS.read)
          seq
      in
      let atomic = TA.create (Backend.Atomic_backend.ctx ()) ~m () in
      let atomic_reads =
        run_direct ~apply:(apply_maxreg TA.write TA.read) atomic seq
      in
      check
        Alcotest.(list int)
        (Printf.sprintf "tree reads agree (n=%d m=%d seed=%d)" n m seed)
        sim_reads atomic_reads)
    [ (1, 1 lsl 12, 31); (3, 999, 32) ]

(* ------------------------------------------------------------------ *)
(* Collect counter baseline (exact)                                    *)
(* ------------------------------------------------------------------ *)

let test_collect_diff () =
  List.iter
    (fun (n, seed) ->
      let script =
        Workload.Script.counter_mix ~seed ~n ~ops_per_process:40
          ~read_fraction:0.5
      in
      let seq = Workload.Script.interleave ~seed script in
      let sim_reads =
        run_in_sim ~n
          ~build:(fun exec -> SC.create (Sim_backend.ctx exec) ~n ())
          ~apply:(apply_counter SC.increment SC.read)
          seq
      in
      let atomic = AC.create (Backend.Atomic_backend.ctx ()) ~n () in
      let atomic_reads =
        run_direct ~apply:(apply_counter AC.increment AC.read) atomic seq
      in
      check
        Alcotest.(list int)
        (Printf.sprintf "collect reads agree (n=%d seed=%d)" n seed)
        sim_reads atomic_reads;
      (* The collect counter is exact, so sequentially every read equals
         the number of increments applied before it — a cheap oracle that
         both backends are not merely wrong in the same way. *)
      let incs = ref 0 and oracle = ref [] in
      List.iter
        (fun (_, op) ->
          match op with
          | Workload.Script.Inc -> incr incs
          | Workload.Script.Read -> oracle := !incs :: !oracle
          | Workload.Script.Write _ -> ())
        seq;
      check
        Alcotest.(list int)
        (Printf.sprintf "collect reads exact (n=%d seed=%d)" n seed)
        (List.rev !oracle) atomic_reads)
    [ (1, 11); (3, 12); (5, 13) ]

(* The same collect counter relaxed with ~k (the k-additive counter):
   sim and atomic read sequences agree for k = 0 and k > 0, every read
   is within k of the increments applied before it, and at k = 0 the
   simulator charges exactly the exact collect counter's steps — 1 per
   increment, n per read. *)
let test_kadditive_diff () =
  List.iter
    (fun (n, k, seed) ->
      let script =
        Workload.Script.counter_mix ~seed ~n ~ops_per_process:60
          ~read_fraction:0.3
      in
      let seq = Workload.Script.interleave ~seed script in
      let sim_exec = ref None in
      let sim_reads =
        run_in_sim ~n
          ~build:(fun exec ->
            sim_exec := Some exec;
            SC.create (Sim_backend.ctx exec) ~n ~k ())
          ~apply:(apply_counter SC.increment SC.read)
          seq
      in
      let atomic = AC.create (Backend.Atomic_backend.ctx ()) ~n ~k () in
      let atomic_reads =
        run_direct ~apply:(apply_counter AC.increment AC.read) atomic seq
      in
      let label what = Printf.sprintf "%s (n=%d k=%d seed=%d)" what n k seed in
      check Alcotest.(list int) (label "reads agree") sim_reads atomic_reads;
      let incs = ref 0 and reads = ref 0 and worst = ref 0 in
      List.iter2
        (fun x v -> worst := max !worst (abs (x - v)))
        atomic_reads
        (List.filter_map
           (fun (_, op) ->
             match op with
             | Workload.Script.Inc ->
               incr incs;
               None
             | Workload.Script.Read ->
               incr reads;
               Some !incs
             | Workload.Script.Write _ -> None)
           seq);
      Alcotest.(check bool) (label "reads within k") true (!worst <= k);
      if k = 0 then
        check Alcotest.int (label "k=0 charged steps")
          (!incs + (n * !reads))
          (Sim.Exec.steps_total (Option.get !sim_exec)))
    [ (1, 0, 41); (3, 0, 42); (5, 0, 43); (3, 7, 44); (4, 25, 45) ]

(* ------------------------------------------------------------------ *)
(* Interleave itself                                                   *)
(* ------------------------------------------------------------------ *)

let test_interleave_properties () =
  let script =
    Workload.Script.counter_mix ~seed:42 ~n:4 ~ops_per_process:30
      ~read_fraction:0.5
  in
  let seq = Workload.Script.interleave ~seed:42 script in
  check Alcotest.int "length" (Workload.Script.total_ops script)
    (List.length seq);
  (* Per-process order is preserved. *)
  Array.iteri
    (fun pid ops ->
      let projected =
        List.filter_map (fun (p, op) -> if p = pid then Some op else None) seq
      in
      Alcotest.(check bool)
        (Printf.sprintf "pid %d program order" pid)
        true (projected = ops))
    script;
  (* Deterministic in the seed. *)
  Alcotest.(check bool) "same seed" true
    (Workload.Script.interleave ~seed:42 script = seq);
  Alcotest.(check bool) "different seed differs" true
    (Workload.Script.interleave ~seed:43 script <> seq)

let suite =
  [ ("kcounter sim vs atomic", `Quick, test_kcounter_diff);
    ("kcounter atomic vs chaos", `Quick, test_kcounter_diff_chaos);
    ("kmaxreg sim vs atomic", `Quick, test_kmaxreg_diff);
    ("tree flat vs recursive walk", `Quick, test_tree_flat_vs_recursive);
    ("tree sim vs atomic", `Quick, test_tree_sim_vs_atomic);
    ("collect sim vs atomic", `Quick, test_collect_diff);
    ("kadditive sim vs atomic", `Quick, test_kadditive_diff);
    ("interleave properties", `Quick, test_interleave_properties) ]

let () = Alcotest.run "backend_diff" [ ("backend_diff", suite) ]
