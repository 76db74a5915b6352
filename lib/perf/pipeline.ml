module J = Mcore.Bench_json

type config = {
  trials : int;
  warmup_trials : int;
  ops_per_domain : int;
  sim_n : int;
  sim_k : int;
  sim_ops_per_process : int;
  mlp_cells : (string * int * int) list;
      (* (label, objects, m) working-set sweep of the walk-vs-flat
         memory-level-parallelism cells: [objects] tree max registers
         of bound [m] each, driven read-heavy. Sized so the boxed
         pre-PR layout (one padded cache line per switch) crosses the
         LLC while the flat layout may still fit — the density gap is
         part of what the flat layout buys. *)
  mlp_write_permille : int;
      (* random-value writes per 1000 ops in the mlp cells (the rest
         are reads); writes keep the registers' max paths moving so
         reads do not settle on one immutable spine *)
  out_path : string;
}

(* ------------------------------------------------------------------ *)
(* Host core detection                                                 *)
(* ------------------------------------------------------------------ *)

type cores = { raw_cores : int; effective_cores : int; cores_source : string }

(* Some container runtimes pin Domain.recommended_domain_count to 1
   even when more CPUs are online; ask the OS before believing it. *)
let first_int_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> int_of_string_opt line
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let detect_cores () =
  let raw = Domain.recommended_domain_count () in
  if raw > 1 then { raw_cores = raw; effective_cores = raw; cores_source = "runtime" }
  else
    match first_int_line "getconf _NPROCESSORS_ONLN 2>/dev/null" with
    | Some c when c >= 1 ->
      { raw_cores = raw; effective_cores = max raw c; cores_source = "getconf" }
    | _ ->
      (match first_int_line "nproc 2>/dev/null" with
       | Some c when c >= 1 ->
         { raw_cores = raw; effective_cores = max raw c; cores_source = "nproc" }
       | _ -> { raw_cores = raw; effective_cores = raw; cores_source = "runtime" })

let default_config =
  { trials = 5;
    warmup_trials = 1;
    ops_per_domain = 100_000;
    sim_n = 16;
    sim_k = 4;
    sim_ops_per_process = 2048;
    (* Boxed-layout footprint per cell: objects * 2^(ceil_log2 m + 1)
       nodes * 144 B/node (a 136 B padded box plus its pointer slot) —
       72 MiB / 576 MiB / 1.1 GiB across the three cells, walking the
       pre-PR layout from comfortably cache-resident to several times
       any plausible LLC; the flat layout is 18x denser (8 B/node), so
       it still fits where the boxed heap has long since spilled.
       Many medium-depth objects with random per-op object selection,
       rather than one giant register, is what keeps each object's
       root-to-leaf spine cold between visits — a single object's
       current-max path stays hot no matter how large m is. *)
    mlp_cells =
      [ ("cache-resident", 256, 1 lsl 10);
        ("llc-edge", 1024, 1 lsl 11);
        ("llc-exceeding", 1024, 1 lsl 12) ];
    mlp_write_permille = 50;
    out_path = "BENCH_12.json" }

let smoke_config =
  { trials = 3;
    warmup_trials = 0;
    ops_per_domain = 500;
    sim_n = 4;
    sim_k = 2;
    sim_ops_per_process = 64;
    mlp_cells = [ ("smoke", 2, 1 lsl 8) ];
    mlp_write_permille = 50;
    out_path = Filename.concat (Filename.get_temp_dir_name ()) "BENCH_smoke.json" }

(* ------------------------------------------------------------------ *)
(* Memory-level parallelism: walk vs flat tree-maxreg layouts          *)
(* ------------------------------------------------------------------ *)

let stats_fields (s : Mcore.Throughput.stats) =
  [ ("domains", J.Int s.s_domains);
    ("trials", J.Int s.s_trials);
    ("ops_per_trial", J.Int s.s_ops_per_trial);
    ("ops_per_sec_min", J.Float s.s_min_ops_per_sec);
    ("ops_per_sec_median", J.Float s.s_median_ops_per_sec);
    ("ops_per_sec_max", J.Float s.s_max_ops_per_sec) ]

(* The flat layout under test: the AACH switch tree over the atomic
   backend's contiguous register block — stride-1 siblings, the read
   loop's index arithmetic and uncharged prefetch hints. Every mlp
   cell's heap (2 * 2^ceil(log2 m) >= 512 slots) is past the backend's
   boxed-to-flat crossover, so the backend picks this layout itself. *)
module Mlp_flat_tree = Mcore.Atomic_algo.Tree_maxreg

(* The pre-PR layout, replicated bench-locally so the record carries
   the ablation instead of a before/after diff across revisions: an
   [int Atomic.t array] of per-slot boxed atomics, each inflated to
   its own cache line ([Backend.Padded.atomic_array] — exactly what the
   atomic backend's register arrays used to be), walked by the old
   (index, span) recursion with no hints. Every level of the walk is
   two dependent loads (pointer-array slot, then the box it points
   at) and every node is 128 B apart, so a cold walk is a serial
   chain of line misses — the behaviour the flat layout kills. The
   node sequence and split arithmetic are identical to the flat
   walk's, so both variants do the same number of switch probes per
   op; only memory layout and load independence differ. (The flat
   side also pays one predictable ctx branch per probe for step
   accounting — noise next to a line fetch.) *)
module Mlp_boxed_tree = struct
  type t = { m : int; cells : int Atomic.t array }

  let create ~m =
    let len = 2 * Zmath.pow 2 (Zmath.ceil_log2 (max m 1)) in
    { m; cells = Backend.Padded.atomic_array len 0 }

  let rec write_node t i span v =
    if span > 1 then begin
      let half = (span + 1) / 2 in
      if v < half then begin
        if Atomic.get t.cells.(i) = 0 then write_node t (2 * i) half v
      end
      else begin
        write_node t ((2 * i) + 1) (span - half) (v - half);
        Atomic.set t.cells.(i) 1
      end
    end

  let write t v = write_node t 1 t.m v

  let rec read_node t i span acc =
    if span <= 1 then acc
    else
      let half = (span + 1) / 2 in
      if Atomic.get t.cells.(i) = 1 then
        read_node t ((2 * i) + 1) (span - half) (acc + half)
      else read_node t (2 * i) half acc

  let read t = read_node t 1 t.m 0
end

(* Deterministic 48-bit LCG (the classic drand48 multiplier): both
   variants of a cell replay the identical op sequence from the same
   seed, so their final register values must agree — recorded as a
   correctness gate on the bench itself. Constants fit OCaml's 63-bit
   ints without assembly. *)
let mlp_lcg_next s =
  s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  !s lsr 16

(* One (objects, m) cell, one layout variant. Read-heavy: most ops
   walk one of [objects] trees root-to-leaf; [write_permille] ops
   write a uniformly random value, which (a) descends a uniformly
   random root-to-leaf path — at the large-m cells those paths range
   over a heap far past the LLC, so the walk runs against cold lines
   — and (b) keeps the maximum (and with it the read path) moving
   until it saturates. Reads re-walk the current-max path; their cost
   is what the interleaved write traffic leaves of it in cache. *)
let mlp_cell cfg ~label ~objects ~m ~write_permille =
  let variants =
    [ ("boxed-walk",
       fun () ->
         let ts = Array.init objects (fun _ -> Mlp_boxed_tree.create ~m) in
         ((fun j v -> Mlp_boxed_tree.write ts.(j) v),
          (fun j -> Mlp_boxed_tree.read ts.(j))));
      ("flat",
       fun () ->
         let ctx = Backend.Atomic_backend.ctx () in
         let ts =
           Array.init objects (fun j ->
               Mlp_flat_tree.create ctx ~name:(Printf.sprintf "mlp%d" j) ~m ())
         in
         ((fun j v -> Mlp_flat_tree.write ts.(j) ~pid:0 v),
          (fun j -> Mlp_flat_tree.read ts.(j) ~pid:0))) ]
  in
  let rows =
    List.map
      (fun (variant, make) ->
        let write, read = make () in
        let rng = ref 42 in
        let final = ref 0 in
        let worker ~pid:_ ~op_index:_ =
          let r = mlp_lcg_next rng in
          let j = r mod objects in
          if mlp_lcg_next rng mod 1000 < write_permille then
            write j (mlp_lcg_next rng mod m)
          else final := read j
        in
        let stats =
          Mcore.Throughput.measure ~warmup_trials:cfg.warmup_trials
            ~trials:cfg.trials ~domains:1 ~ops_per_domain:cfg.ops_per_domain
            ~worker ()
        in
        (variant, stats, !final))
      variants
  in
  let median variant =
    List.find_map
      (fun (v, s, _) ->
        if String.equal v variant then
          Some s.Mcore.Throughput.s_median_ops_per_sec
        else None)
      rows
  in
  let finals = List.map (fun (_, _, f) -> f) rows in
  let agree =
    match finals with f :: rest -> List.for_all (Int.equal f) rest | [] -> true
  in
  let speedup =
    match (median "flat", median "boxed-walk") with
    | Some f, Some b when b > 0.0 -> f /. b
    | _ -> Float.nan
  in
  ( J.Obj
      [ ("cell", J.Str label);
        ("objects", J.Int objects);
        ("m", J.Int m);
        ("write_permille", J.Int write_permille);
        ("workload", J.Str "read-heavy");
        ("boxed_heap_bytes",
         (* 17-word padded box + pointer-array slot per node *)
         J.Int (objects * 2 * Zmath.pow 2 (Zmath.ceil_log2 m) * 144));
        ("flat_heap_bytes",
         (* one word per node in the contiguous block *)
         J.Int (objects * 2 * Zmath.pow 2 (Zmath.ceil_log2 m) * 8));
        ("variants",
         J.List
           (List.map
              (fun (variant, stats, _) ->
                J.Obj (("variant", J.Str variant) :: stats_fields stats))
              rows));
        ("finals_agree", J.Bool agree);
        ("flat_over_boxed_speedup", J.Float speedup) ],
    (label, speedup, agree) )

let mlp cfg =
  let cells =
    List.map
      (fun (label, objects, m) ->
        mlp_cell cfg ~label ~objects ~m
          ~write_permille:cfg.mlp_write_permille)
      cfg.mlp_cells
  in
  let rows = List.map fst cells in
  let summaries = List.map snd cells in
  (* The headline number: the largest (last) cell — the LLC-exceeding
     regime where dependent-load serialisation dominates. *)
  let last_speedup =
    match List.rev summaries with (_, s, _) :: _ -> s | [] -> Float.nan
  in
  let all_agree = List.for_all (fun (_, _, a) -> a) summaries in
  J.Obj
    [ ("cells", J.List rows);
      ("summary",
       J.Obj
         [ ("largest_cell_flat_over_boxed_speedup", J.Float last_speedup);
           ("all_finals_agree", J.Bool all_agree) ]) ]

(* ------------------------------------------------------------------ *)
(* Simulator amortized-step metrics (Theorem III.9, Algorithm 1)       *)
(* ------------------------------------------------------------------ *)

let simulator_metrics cfg =
  let n = cfg.sim_n and k = cfg.sim_k in
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let script =
    Workload.Script.counter_mix ~seed:42 ~n
      ~ops_per_process:cfg.sim_ops_per_process ~read_fraction:0.3
  in
  let programs =
    Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter) script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random 42) ());
  let per_op =
    List.map
      (fun (name, count, worst, mean) ->
        J.Obj
          [ ("name", J.Str name);
            ("count", J.Int count);
            ("worst_steps", J.Int worst);
            ("mean_steps", J.Float mean) ])
      (Sim.Exec.op_stats exec)
  in
  J.Obj
    [ ("object", J.Str "kcounter (Algorithm 1)");
      ("n", J.Int n);
      ("k", J.Int k);
      ("ops_per_process", J.Int cfg.sim_ops_per_process);
      ("read_fraction", J.Float 0.3);
      ("ops_invoked", J.Int (Sim.Exec.ops_invoked exec));
      ("op_steps_total", J.Int (Sim.Exec.op_steps_total exec));
      ("amortized_steps_per_op", J.Float (Sim.Exec.amortized exec));
      ("per_op", J.List per_op) ]

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let bench_json cfg =
  let cores = detect_cores () in
  J.Obj
    [ ("schema_version", J.Int 12);
      ("suite", J.Str "approx_objects perf pipeline");
      ("host",
       J.Obj
         [ ("recognized_cores", J.Int cores.raw_cores);
           ("effective_cores", J.Int cores.effective_cores);
           ("cores_source", J.Str cores.cores_source);
           ("ocaml_version", J.Str Sys.ocaml_version);
           ("word_size", J.Int Sys.word_size) ]);
      ("config",
       J.Obj
         [ ("trials", J.Int cfg.trials);
           ("warmup_trials", J.Int cfg.warmup_trials);
           ("ops_per_domain", J.Int cfg.ops_per_domain);
           ("mlp_cells",
            J.List
              (List.map
                 (fun (label, objects, m) ->
                   J.Obj
                     [ ("cell", J.Str label); ("objects", J.Int objects);
                       ("m", J.Int m) ])
                 cfg.mlp_cells));
           ("mlp_write_permille", J.Int cfg.mlp_write_permille) ]);
      ("mlp", mlp cfg);
      ("simulator", J.Obj [ ("algorithm1", simulator_metrics cfg) ]) ]

(* ------------------------------------------------------------------ *)
(* CI floor probe                                                      *)
(* ------------------------------------------------------------------ *)

(* The CI guard's measurement: the committed BENCH_2 record's kcounter
   read-heavy domains=1 cell (Algorithm 1 at k = 2, cached reads),
   always at full measurement size — smoke-sized trials are dominated
   by Domain.spawn/join, so their absolute medians cannot be compared
   against a committed full-size record. At the cached-read throughput
   this costs well under a second. *)
let read_heavy_floor_probe ?(trials = 3) ?(ops_per_domain = 200_000) () =
  let kc = Mcore.Mc_kcounter.create ~n:1 ~k:2 () in
  let worker =
    Mcore.Throughput.mixed_worker Mcore.Throughput.read_heavy
      ~inc:(fun ~pid -> Mcore.Mc_kcounter.increment kc ~pid)
      ~read:(fun ~pid -> ignore (Mcore.Mc_kcounter.read_fast kc ~pid))
  in
  let stats =
    Mcore.Throughput.measure ~warmup_trials:1 ~trials ~domains:1
      ~ops_per_domain ~worker ()
  in
  stats.Mcore.Throughput.s_median_ops_per_sec

let run ?(quiet = false) cfg =
  let json = bench_json cfg in
  J.write_file ~path:cfg.out_path json;
  if not quiet then begin
    Printf.printf "perf pipeline: %d trial(s) x %d ops/domain\n" cfg.trials
      cfg.ops_per_domain;
    (match json with
     | J.Obj fields ->
       let str_of r k' =
         match List.assoc_opt k' r with Some (J.Str s) -> s | _ -> "?"
       in
       let num_of r k' =
         match List.assoc_opt k' r with
         | Some (J.Float f) -> f
         | Some (J.Int i) -> float_of_int i
         | _ -> Float.nan
       in
       (match List.assoc_opt "mlp" fields with
        | Some (J.Obj mlp) ->
          (match List.assoc_opt "cells" mlp with
           | Some (J.List rows) ->
             List.iter
               (fun row ->
                 match row with
                 | J.Obj r ->
                   let med variant =
                     match List.assoc_opt "variants" r with
                     | Some (J.List vs) ->
                       List.fold_left
                         (fun acc v ->
                           match v with
                           | J.Obj vr when str_of vr "variant" = variant ->
                             num_of vr "ops_per_sec_median"
                           | _ -> acc)
                         Float.nan vs
                     | _ -> Float.nan
                   in
                   Printf.printf
                     "  mlp       %-14s m=%-7.0f boxed %8.2f Mops/s  flat %8.2f Mops/s  speedup %5.2fx\n"
                     (str_of r "cell") (num_of r "m")
                     (med "boxed-walk" /. 1e6) (med "flat" /. 1e6)
                     (num_of r "flat_over_boxed_speedup")
                 | _ -> ())
               rows
           | _ -> ())
        | _ -> ())
     | _ -> ());
    Printf.printf "written to %s\n" cfg.out_path
  end;
  json
