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
  service_scale_conns : int list;  (* epoll cells of the big sweep *)
  service_scale_select_conns : int list;  (* select contrast cells *)
  service_scale_ops_per_connection : int;
  service_scale_trials : int;
  service_scale_ramp : int;  (* loadgen ramp_conns_per_tick *)
  service_scale_server_exe : string option;
      (* [Some exe]: each scale trial runs [exe serve ...] as a child
         process so server and loadgen each get their own
         RLIMIT_NOFILE budget (10k conns each side would blow a
         shared one); [None] serves in-process (smoke/tests). Also
         selects subprocess nodes (and kill -9 chaos) for the cluster
         sweep. *)
  service_cluster_cells : (int * int * int) list;
      (* (nodes, replicas, gossip_interval_ms) sweep of the
         delta-gossip replication plane. *)
  service_cluster_connections : int;
  service_cluster_ops_per_connection : int;
  service_cluster_chaos_ops : int;
      (* ops per connection of the node-kill chaos cell (3 nodes,
         2 replicas, fastest gossip); 0 skips the chaos cell. *)
  service_durability_connections : int;
  service_durability_chaos_ops : int;
      (* ops per connection of the kill -9 recovery cell (subprocess
         server; skipped without [service_scale_server_exe]); 0 skips. *)
  service_comms_cells : (int * int) list;
      (* (nodes, replicas) sweep of the gossip data path: each cell
         records steady-state peer bytes-per-op. *)
  service_comms_connections : int;
  service_comms_ops_per_connection : int;
  service_comms_heal_diverged : int list;
      (* partition/reconnect heal cells (3 nodes, 2 replicas, durable
         victim): each entry diverges that many of the
         cluster counters while one node is down and measures the heal
         bytes and time after it rejoins — the proportional-to-
         divergence claim needs at least two sizes. Empty skips. *)
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
    service_scale_conns = [ 1_000; 4_000; 10_000 ];
    service_scale_select_conns = [ 1_000; 4_000 ];
    service_scale_ops_per_connection = 100;
    service_scale_trials = 3;
    service_scale_ramp = 500;
    service_scale_server_exe = None;
    service_cluster_cells =
      [ (1, 1, 10); (1, 1, 100); (3, 1, 10); (3, 1, 100); (3, 2, 10);
        (3, 2, 100) ];
    service_cluster_connections = 6;
    service_cluster_ops_per_connection = 5_000;
    service_cluster_chaos_ops = 50_000;
    service_comms_cells = [ (1, 1); (1, 2); (3, 1); (3, 2) ];
    service_comms_connections = 6;
    service_comms_ops_per_connection = 5_000;
    service_comms_heal_diverged = [ 1; 4 ];
    service_durability_connections = 4;
    (* Sized so the 0.25 s SIGKILL lands mid-load on this host (~0.3 s
       of ops would finish before a later kill). *)
    service_durability_chaos_ops = 150_000;
    out_path = "BENCH_11.json" }

let smoke_config =
  { trials = 3;
    warmup_trials = 0;
    ops_per_domain = 500;
    sim_n = 4;
    sim_k = 2;
    sim_ops_per_process = 64;
    mlp_cells = [ ("smoke", 2, 1 lsl 8) ];
    mlp_write_permille = 50;
    service_scale_conns = (if Service.Poller.epoll_available then [ 2 ] else []);
    service_scale_select_conns = [ 2 ];
    service_scale_ops_per_connection = 100;
    service_scale_trials = 1;
    service_scale_ramp = 1;
    service_scale_server_exe = None;
    service_cluster_cells = [ (1, 1, 10); (3, 2, 10) ];
    service_cluster_connections = 4;
    service_cluster_ops_per_connection = 500;
    service_cluster_chaos_ops = 20_000;
    service_comms_cells = [ (1, 1); (3, 2) ];
    service_comms_connections = 4;
    service_comms_ops_per_connection = 500;
    service_comms_heal_diverged = [ 1; 4 ];
    service_durability_connections = 2;
    service_durability_chaos_ops = 5_000;
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
   loop's index arithmetic and uncharged prefetch hints. *)
module Mlp_flat_tree = Algo.Tree_maxreg_algo.Make (Backend.Atomic_backend)

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
         (* This variant *is* the flat layout: pin the backend's size
            heuristic to 0 while building so the cell measures it even
            if a small smoke tree or an APPROX_REG_FLAT_THRESHOLD
            override would otherwise pick the boxed layout. *)
         let saved = Backend.Atomic_backend.current_flat_threshold () in
         Backend.Atomic_backend.set_flat_threshold 0;
         let ts =
           Array.init objects (fun j ->
               Mlp_flat_tree.create ctx ~name:(Printf.sprintf "mlp%d" j) ~m ())
         in
         Backend.Atomic_backend.set_flat_threshold saved;
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
(* Service I/O scale: the 10k-connection poller-backend sweep          *)
(* ------------------------------------------------------------------ *)

let fstats xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  (a.(0), a.(n / 2), a.(n - 1))

(* Scalar scans over the STATS JSON text: the wire stats of a child
   server process arrive as rendered JSON, and pulling four scalars
   out of it does not justify a parser. Keys are matched as
   ["key": ] occurrences; the first hit wins. *)
let scan_json_int json key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nl = String.length needle and hl = String.length json in
  let rec find i =
    if i + nl > hl then None
    else if String.sub json i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < hl
      && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    int_of_string_opt (String.sub json start (!stop - start))

let scan_json_str json key =
  let needle = Printf.sprintf "\"%s\": \"" key in
  let nl = String.length needle and hl = String.length json in
  let rec find i =
    if i + nl > hl then None
    else if String.sub json i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt json start '"' with
    | None -> None
    | Some stop -> Some (String.sub json start (stop - start)))

(* What one scale trial observed on the server side, however the
   server ran. *)
type scale_obs = {
  so_rate : float;
  so_ok : int;
  so_busy : int;
  so_errors : int;
  so_p50 : int;
  so_p99 : int;
  so_poller : string;
  so_acc : int;
  so_rejects : int;
  so_max_ready : int;
}

let scale_shards = 2
let scale_pipeline = 2

let wait_for_socket path ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let ok =
      match Service.Client.connect (Unix.ADDR_UNIX path) with
      | c ->
        Service.Client.close c;
        true
      | exception Unix.Unix_error _ -> false
    in
    if ok then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let scale_loadgen ~addr ~conns ~ops ~ramp ~seed =
  Service.Loadgen.run ~addrs:[ addr ]
    { Service.Loadgen.default_config with
      connections = conns;
      ops_per_connection = ops;
      pipeline = scale_pipeline;
      read_permille = 200;
      seed;
      ramp_conns_per_tick = ramp }

(* In-process variant (smoke and tests: conns are small enough for
   one fd budget). *)
let scale_trial_inproc ~poller ~conns ~ops ~ramp trial =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_scale_%d_%s_%d_%d.sock" (Unix.getpid ())
         (Service.Poller.choice_to_string poller)
         conns trial)
  in
  let config =
    { Service.Server.default_config with
      shards = scale_shards;
      max_conns = conns + 64;
      poller }
  in
  let srv = Service.Server.start ~config ~listen:(`Unix path) () in
  Fun.protect
    ~finally:(fun () -> Service.Server.stop srv)
    (fun () ->
      let r =
        scale_loadgen ~addr:(Service.Server.sockaddr srv) ~conns ~ops ~ramp
          ~seed:(42 + trial)
      in
      let m = Service.Server.metrics srv in
      { so_rate = r.Service.Loadgen.ops_per_sec;
        so_ok = r.Service.Loadgen.ok;
        so_busy = r.Service.Loadgen.busy;
        so_errors = r.Service.Loadgen.errors;
        so_p50 = r.Service.Loadgen.p50_ns;
        so_p99 = r.Service.Loadgen.p99_ns;
        so_poller = Service.Server.poller_name srv;
        so_acc = Service.Metrics.acc_violations_total m;
        so_rejects = Service.Metrics.poller_rejects m;
        so_max_ready = Service.Metrics.max_ready_batch m })

(* Subprocess variant: the server gets its own process (and so its own
   RLIMIT_NOFILE budget); server-side counters come back through the
   STATS op before the child is terminated. *)
let scale_trial_exec ~exe ~poller ~conns ~ops ~ramp trial =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_scale_%d_%s_%d_%d.sock" (Unix.getpid ())
         (Service.Poller.choice_to_string poller)
         conns trial)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--shards"; string_of_int scale_shards;
         "--io-domains"; "1";
         "--max-conns"; string_of_int (conns + 64);
         "--poller"; Service.Poller.choice_to_string poller;
         "--unix"; path; "--duration"; "600" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      if not (wait_for_socket path ~timeout_s:10.0) then
        failwith
          (Printf.sprintf "scale bench: server %s did not come up on %s" exe
             path);
      let r =
        scale_loadgen ~addr:(Unix.ADDR_UNIX path) ~conns ~ops ~ramp
          ~seed:(42 + trial)
      in
      let stats =
        let c = Service.Client.connect (Unix.ADDR_UNIX path) in
        Fun.protect
          ~finally:(fun () -> Service.Client.close c)
          (fun () -> Service.Client.stats_json c)
      in
      let int key = Option.value ~default:(-1) (scan_json_int stats key) in
      { so_rate = r.Service.Loadgen.ops_per_sec;
        so_ok = r.Service.Loadgen.ok;
        so_busy = r.Service.Loadgen.busy;
        so_errors = r.Service.Loadgen.errors;
        so_p50 = r.Service.Loadgen.p50_ns;
        so_p99 = r.Service.Loadgen.p99_ns;
        so_poller = Option.value ~default:"?" (scan_json_str stats "poller");
        so_acc = int "acc_violations_total";
        so_rejects = int "poller_rejects";
        so_max_ready = int "max_ready_batch" })

let service_scale_throughput cfg =
  let cells =
    List.map (fun c -> (Service.Poller.Epoll, c))
      (if Service.Poller.epoll_available then cfg.service_scale_conns else [])
    @ List.map (fun c -> (Service.Poller.Select, c)) cfg.service_scale_select_conns
  in
  let ops = cfg.service_scale_ops_per_connection in
  let ramp = cfg.service_scale_ramp in
  List.map
    (fun (poller, conns) ->
      let run_once trial =
        match cfg.service_scale_server_exe with
        | Some exe -> scale_trial_exec ~exe ~poller ~conns ~ops ~ramp trial
        | None -> scale_trial_inproc ~poller ~conns ~ops ~ramp trial
      in
      ignore (run_once (-1) (* warmup *));
      let results = List.init cfg.service_scale_trials run_once in
      let mn, md, mx = fstats (List.map (fun o -> o.so_rate) results) in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 results in
      let last = List.nth results (List.length results - 1) in
      J.Obj
        [ ("poller", J.Str (Service.Poller.choice_to_string poller));
          ("poller_active", J.Str last.so_poller);
          ("connections", J.Int conns);
          ("shards", J.Int scale_shards);
          ("io_domains", J.Int 1);
          ("pipeline", J.Int scale_pipeline);
          ("ops_per_connection", J.Int ops);
          ("ramp_conns_per_tick", J.Int ramp);
          ("server_mode",
           J.Str
             (match cfg.service_scale_server_exe with
              | Some _ -> "subprocess"
              | None -> "in-process"));
          ("trials", J.Int cfg.service_scale_trials);
          ("ops_per_sec_min", J.Float mn);
          ("ops_per_sec_median", J.Float md);
          ("ops_per_sec_max", J.Float mx);
          ("ops_per_sec_per_conn_median",
           J.Float (md /. float_of_int conns));
          ("p50_ns", J.Int last.so_p50);
          ("p99_ns", J.Int last.so_p99);
          ("ok", J.Int (sum (fun o -> o.so_ok)));
          ("busy", J.Int (sum (fun o -> o.so_busy)));
          ("errors", J.Int (sum (fun o -> o.so_errors)));
          ("acc_violations", J.Int (sum (fun o -> o.so_acc)));
          ("poller_rejects", J.Int (sum (fun o -> o.so_rejects)));
          ("max_ready_batch",
           J.Int (List.fold_left (fun acc o -> max acc o.so_max_ready) 0 results)) ])
    cells

(* ------------------------------------------------------------------ *)
(* Cluster sweep: the delta-gossip replication plane                   *)
(* (nodes x replicas x gossip interval, plus a node-kill chaos cell)   *)
(* ------------------------------------------------------------------ *)

let cluster_counters = 4
let cluster_k = 4
let cluster_k_staleness = 2

(* Per-object replication state scraped from one node's STATS JSON:
   (name, kind, own_contribution, merged_known, acc_violations). The
   scan starts at the "objects" key so name-like fields in earlier
   sections can never alias an object entry. *)
let scan_stats_objects stats =
  let hl = String.length stats in
  let find_from needle i0 =
    let nl = String.length needle in
    let rec go i =
      if i + nl > hl then None
      else if String.sub stats i nl = needle then Some (i + nl)
      else go (i + 1)
    in
    go i0
  in
  match find_from "\"objects\"" 0 with
  | None -> []
  | Some objs_start ->
    let anchor = "\"name\": \"" in
    let rec entries acc i =
      match find_from anchor i with
      | None -> List.rev acc
      | Some start -> (
        match String.index_from_opt stats start '"' with
        | None -> List.rev acc
        | Some stop ->
          let name = String.sub stats start (stop - start) in
          let slice_end =
            match find_from anchor stop with None -> hl | Some nxt -> nxt
          in
          let slice = String.sub stats stop (slice_end - stop) in
          let int key = Option.value ~default:0 (scan_json_int slice key) in
          let kind = Option.value ~default:"?" (scan_json_str slice "kind") in
          entries
            ((name, kind, int "repl_own_total", int "repl_known",
              int "acc_violations")
             :: acc)
            stop)
    in
    entries [] objs_start

type cluster_node = {
  cn_id : int;
  cn_path : string;
  mutable cn_state : [ `Proc of int | `Inproc of Service.Server.t | `Down ];
}

let start_cluster_node ?data_root ~exe ~paths ~nodes
    ~replicas ~gossip_ms node =
  (try Unix.unlink node.cn_path with Unix.Unix_error _ -> ());
  let data_dir =
    Option.map
      (fun root ->
        let dir = Filename.concat root (Printf.sprintf "node%d" node.cn_id) in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
        dir)
      data_root
  in
  match exe with
  | Some exe ->
    let peers =
      String.concat ","
        (List.filter_map
           (fun j ->
             if j = node.cn_id then None
             else Some (Printf.sprintf "%d=%s" j paths.(j)))
           (List.init nodes Fun.id))
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let args =
      [ exe; "serve"; "--shards"; string_of_int scale_shards;
        "--io-domains"; "1";
        "--counters"; string_of_int cluster_counters; "-k";
        string_of_int cluster_k; "--node-id"; string_of_int node.cn_id;
        "--nodes"; string_of_int nodes; "--replicas";
        string_of_int replicas; "--gossip-interval-ms";
        string_of_int gossip_ms; "--staleness";
        string_of_int cluster_k_staleness; "--peers"; peers; "--unix"; node.cn_path; "--duration"; "600" ]
      @ (match data_dir with Some d -> [ "--data-dir"; d ] | None -> [])
    in
    let pid =
      Unix.create_process exe (Array.of_list args) devnull devnull devnull
    in
    Unix.close devnull;
    node.cn_state <- `Proc pid
  | None ->
    let config =
      { Service.Server.default_config with
        shards = scale_shards;
          specs =
          Service.Objects.default_specs ~counters:cluster_counters
            ~k:cluster_k;
        node_id = node.cn_id;
        nodes;
        replicas;
        gossip_interval_ms = gossip_ms;
        k_staleness = cluster_k_staleness;
        data_dir;
        peers =
          List.filter_map
            (fun j ->
              if j = node.cn_id then None else Some (j, `Unix paths.(j)))
            (List.init nodes Fun.id) }
    in
    node.cn_state <-
      `Inproc (Service.Server.start ~config ~listen:(`Unix node.cn_path) ())

(* [hard]: SIGKILL for subprocess nodes (the chaos kill — no shutdown
   path runs, un-gossiped state is lost); in-process nodes can only
   stop cleanly, which still resets their volatile state and cuts
   every client connection. *)
let kill_cluster_node ~hard node =
  (match node.cn_state with
   | `Proc pid ->
     (try Unix.kill pid (if hard then Sys.sigkill else Sys.sigterm)
      with Unix.Unix_error _ -> ());
     ignore
       (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
   | `Inproc srv -> Service.Server.stop srv
   | `Down -> ());
  node.cn_state <- `Down;
  try Unix.unlink node.cn_path with Unix.Unix_error _ -> ()

let cluster_node_stats node =
  match node.cn_state with
  | `Down -> None
  | `Proc _ | `Inproc _ -> (
    match Service.Client.connect (Unix.ADDR_UNIX node.cn_path) with
    | exception _ -> None
    | c ->
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () -> Some (Service.Client.stats_json c)))

let cluster_trial cfg ~nodes ~replicas ~gossip_ms ~chaos =
  let exe = cfg.service_scale_server_exe in
  let paths =
    Array.init nodes (fun i ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "approx_cluster_%d_%d_%d_%d_%d%s.sock"
             (Unix.getpid ()) nodes replicas gossip_ms i
             (if chaos then "_chaos" else "")))
  in
  let handles =
    Array.init nodes (fun i ->
        { cn_id = i; cn_path = paths.(i); cn_state = `Down })
  in
  let addrs = Array.to_list (Array.map (fun p -> Unix.ADDR_UNIX p) paths) in
  Fun.protect
    ~finally:(fun () -> Array.iter (kill_cluster_node ~hard:false) handles)
    (fun () ->
      Array.iter
        (start_cluster_node ~exe ~paths ~nodes ~replicas ~gossip_ms)
        handles;
      Array.iter
        (fun p ->
          if not (wait_for_socket p ~timeout_s:10.0) then
            failwith ("cluster bench: node did not come up on " ^ p))
        paths;
      let ops =
        if chaos then cfg.service_cluster_chaos_ops
        else cfg.service_cluster_ops_per_connection
      in
      let lg_cfg =
        { Service.Loadgen.default_config with
          connections = cfg.service_cluster_connections;
          ops_per_connection = ops;
          pipeline = 8;
          read_permille = 200;
          add_permille = 100;
          add_delta = 16;
          seed = 42;
          replicas;
          max_reconnects = (if chaos then 8 else 2) }
      in
      (* The chaos cell loses one node to a hard kill mid-run and
         brings a blank replacement back while the load is still
         flowing: failover and reconnects must absorb it (errors stay
         0) and the merged state must re-converge. *)
      let killer =
        if not chaos then None
        else begin
          let victim = handles.(1) in
          let kill_delay = if exe = None then 0.08 else 0.4 in
          let down_for = if exe = None then 0.1 else 0.3 in
          Some
            (Domain.spawn (fun () ->
                 Unix.sleepf kill_delay;
                 kill_cluster_node ~hard:true victim;
                 Unix.sleepf down_for;
                 start_cluster_node ~exe ~paths ~nodes ~replicas ~gossip_ms
                   victim;
                 ignore (wait_for_socket victim.cn_path ~timeout_s:10.0)))
        end
      in
      let r = Service.Loadgen.run ~addrs lg_cfg in
      Option.iter Domain.join killer;
      (* Quiesce before judging staleness: a few intervals, plus slack
         for a digest round to repair any gossip push lost with a
         killed node. *)
      Unix.sleepf (Float.max 0.3 (4.0 *. float_of_int gossip_ms /. 1000.0));
      let stats =
        List.filter_map Fun.id
          (Array.to_list (Array.map cluster_node_stats handles))
      in
      (* The cluster-level exact shadow: per counter, the sum of every
         replica's own contribution. Each replica's merged total is a
         monotone lower bound on it and must sit inside the
         k_staleness envelope; at quiescence they coincide. *)
      let objs = List.concat_map scan_stats_objects stats in
      let counters =
        List.filter (fun (_, kind, _, _, _) -> kind = "kcounter") objs
      in
      let names =
        List.sort_uniq compare (List.map (fun (n, _, _, _, _) -> n) counters)
      in
      let staleness_violations = ref 0 in
      let converged = ref true in
      List.iter
        (fun name ->
          let hosted =
            List.filter (fun (n, _, _, _, _) -> n = name) counters
          in
          let exact =
            List.fold_left (fun acc (_, _, own, _, _) -> acc + own) 0 hosted
          in
          List.iter
            (fun (_, _, _, known, _) ->
              if known <> exact then converged := false;
              if
                (known > exact || exact > known * cluster_k_staleness)
                && not (known = 0 && exact = 0)
              then incr staleness_violations)
            hosted)
        names;
      let sum key =
        List.fold_left
          (fun acc s -> acc + Option.value ~default:0 (scan_json_int s key))
          0 stats
      in
      J.Obj
        [ ("nodes", J.Int nodes);
          ("replicas", J.Int replicas);
          ("gossip_interval_ms", J.Int gossip_ms);
          ("chaos", J.Bool chaos);
          ("node_mode",
           J.Str (match exe with Some _ -> "subprocess" | None -> "in-process"));
          ("connections", J.Int cfg.service_cluster_connections);
          ("ops_per_connection", J.Int ops);
          ("k", J.Int cluster_k);
          ("k_staleness", J.Int cluster_k_staleness);
          ("k_total", J.Int (cluster_k * cluster_k_staleness));
          ("ops_per_sec", J.Float r.Service.Loadgen.ops_per_sec);
          ("p50_ns", J.Int r.Service.Loadgen.p50_ns);
          ("p99_ns", J.Int r.Service.Loadgen.p99_ns);
          ("ok", J.Int r.Service.Loadgen.ok);
          ("busy", J.Int r.Service.Loadgen.busy);
          ("errors", J.Int r.Service.Loadgen.errors);
          ("reconnects", J.Int r.Service.Loadgen.reconnects);
          ("acc_violations", J.Int (sum "acc_violations_total"));
          ("staleness_violations", J.Int !staleness_violations);
          ("converged", J.Bool !converged);
          ("gossip_frames_sent", J.Int (sum "gossip_frames_sent"));
          ("gossip_entries_sent", J.Int (sum "gossip_entries_sent"));
          ("gossip_frames_received", J.Int (sum "gossip_frames_received"));
          ("gossip_entries_merged", J.Int (sum "gossip_entries_merged"));
          ("gossip_send_failures", J.Int (sum "gossip_send_failures"));
          ("boundary_kicks", J.Int (sum "boundary_kicks"));
          ("peer_reconnects", J.Int (sum "peer_reconnects"));
          ("nodes_reporting", J.Int (List.length stats)) ])

let service_cluster cfg =
  List.map
    (fun (nodes, replicas, gossip_ms) ->
      cluster_trial cfg ~nodes ~replicas ~gossip_ms ~chaos:false)
    cfg.service_cluster_cells
  @
  if cfg.service_cluster_chaos_ops <= 0 then []
  else [ cluster_trial cfg ~nodes:3 ~replicas:2 ~gossip_ms:10 ~chaos:true ]

(* ------------------------------------------------------------------ *)
(* Durability plane: kill -9 replay                                    *)
(* ------------------------------------------------------------------ *)

(* Data dirs hold only the WAL, the snapshot and their rename temps —
   one flat directory, no recursion needed. *)
let rm_rf_dir dir =
  match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun e ->
        try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
      entries;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let scan_json_bool json key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nl = String.length needle and hl = String.length json in
  let rec find i =
    if i + nl > hl then None
    else if String.sub json i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | Some start when start + 4 <= hl && String.sub json start 4 = "true" ->
    Some true
  | Some start when start + 5 <= hl && String.sub json start 5 = "false" ->
    Some false
  | _ -> None

let dur_counters = 4
let dur_k = 4

(* The recovery chaos cell: a subprocess server with a data dir takes
   a SIGKILL mid-load and is immediately restarted on the same dir;
   the loadgen's reconnect budget carries its pure-INC run across the
   outage. The restarted server must have replayed the log, and the
   recovered counters must cover every acked increment within the
   factor-k envelope: an op is only acked after its covering WAL
   record reached the page cache, so [k * sum(own_total) >= acked]
   has no allowed failure mode short of an actual durability bug. *)
let durability_chaos_cell cfg ~exe =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_dur_chaos_%d" (Unix.getpid ()))
  in
  rm_rf_dir dir;
  let path = dir ^ ".sock" in
  let start () =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "--shards"; "2"; "--io-domains"; "1"; "--counters";
           string_of_int dur_counters; "-k"; string_of_int dur_k; "--unix";
           path; "--duration"; "600"; "--data-dir"; dir; "--fsync"; "never";
           "--snapshot-interval-ms"; "200" |]
        devnull devnull devnull
    in
    Unix.close devnull;
    pid
  in
  let pid = ref (start ()) in
  let kill_wait signal =
    (try Unix.kill !pid signal with Unix.Unix_error _ -> ());
    ignore
      (try Unix.waitpid [] !pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
  in
  Fun.protect
    ~finally:(fun () ->
      kill_wait Sys.sigkill;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      rm_rf_dir dir)
    (fun () ->
      if not (wait_for_socket path ~timeout_s:10.0) then
        failwith ("durability bench: server did not come up on " ^ path);
      let killer =
        Domain.spawn (fun () ->
            Unix.sleepf 0.25;
            kill_wait Sys.sigkill;
            pid := start ();
            ignore (wait_for_socket path ~timeout_s:10.0))
      in
      let r =
        Service.Loadgen.run ~addrs:[ Unix.ADDR_UNIX path ]
          { Service.Loadgen.default_config with
            connections = cfg.service_durability_connections;
            ops_per_connection = cfg.service_durability_chaos_ops;
            pipeline = 8;
            read_permille = 0;
            add_permille = 0;
            seed = 42;
            max_reconnects = 1000 }
      in
      Domain.join killer;
      let stats =
        let c = Service.Client.connect (Unix.ADDR_UNIX path) in
        Fun.protect
          ~finally:(fun () -> Service.Client.close c)
          (fun () -> Service.Client.stats_json c)
      in
      let int key = Option.value ~default:(-1) (scan_json_int stats key) in
      let replayed = int "recovery_replayed_records" in
      let snapshot_loaded =
        Option.value ~default:false
          (scan_json_bool stats "recovery_snapshot_loaded")
      in
      let recovered_sum =
        List.fold_left
          (fun acc (_, kind, own, _, _) ->
            if kind = "kcounter" then acc + own else acc)
          0 (scan_stats_objects stats)
      in
      let acked = r.Service.Loadgen.ok in
      J.Obj
        [ ("kind", J.Str "kill9-restart-replay");
          ("fsync", J.Str "never");
          ("k", J.Int dur_k);
          ("connections", J.Int cfg.service_durability_connections);
          ("ops_per_connection", J.Int cfg.service_durability_chaos_ops);
          ("ok", J.Int acked);
          ("busy", J.Int r.Service.Loadgen.busy);
          ("errors", J.Int r.Service.Loadgen.errors);
          ("reconnects", J.Int r.Service.Loadgen.reconnects);
          ("ops_per_sec", J.Float r.Service.Loadgen.ops_per_sec);
          ("recovery_replayed_records", J.Int replayed);
          ("recovery_snapshot_loaded", J.Bool snapshot_loaded);
          ("recovered_counter_sum", J.Int recovered_sum);
          ("recovered_within_envelope",
           J.Bool (dur_k * recovered_sum >= acked));
          ("acked_ops_lost_beyond_envelope",
           J.Int (max 0 (acked - (dur_k * recovered_sum))));
          (* Envelope batching keeps the post-snapshot log tail tiny,
             so a restart may legitimately find zero records to replay
             — the disk-recovery assertion is snapshot OR log. *)
          ("recovered_from_disk", J.Bool (replayed > 0 || snapshot_loaded));
          ("acc_violations", J.Int (int "acc_violations_total")) ])

let service_durability cfg =
  let chaos =
    match cfg.service_scale_server_exe with
    | Some exe when cfg.service_durability_chaos_ops > 0 ->
      [ durability_chaos_cell cfg ~exe ]
    | _ -> []
  in
  J.Obj [ ("chaos", J.List chaos) ]

(* ------------------------------------------------------------------ *)
(* Gossip data path: peer bytes per op and partition-heal cost         *)
(* ------------------------------------------------------------------ *)

(* The comms sweep charges the replication plane by the byte: each cell
   records steady-state peer bytes-per-op of the GOSSIP2/DIGEST path,
   plus the digest and repair counters that explain it. *)

let comms_gossip_ms = 10

(* Every hosted copy of every counter agrees with the cluster-exact
   sum of own contributions — the quiescent-convergence predicate the
   heal and steady cells poll. *)
let comms_converged handles =
  let stats =
    List.filter_map Fun.id
      (Array.to_list (Array.map cluster_node_stats handles))
  in
  stats <> []
  &&
  let counters =
    List.filter
      (fun (_, kind, _, _, _) -> kind = "kcounter")
      (List.concat_map scan_stats_objects stats)
  in
  let names =
    List.sort_uniq compare (List.map (fun (n, _, _, _, _) -> n) counters)
  in
  List.for_all
    (fun name ->
      let hosted = List.filter (fun (n, _, _, _, _) -> n = name) counters in
      let exact =
        List.fold_left (fun acc (_, _, own, _, _) -> acc + own) 0 hosted
      in
      List.for_all (fun (_, _, _, known, _) -> known = exact) hosted)
    names

(* Poll until converged or the deadline passes; returns (converged,
   elapsed ms) — the record's convergence-latency figure. *)
let comms_await_convergence ?(deadline_s = 10.0) handles =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if comms_converged handles then
      (true, (Unix.gettimeofday () -. t0) *. 1000.0)
    else if Unix.gettimeofday () -. t0 > deadline_s then
      (false, (Unix.gettimeofday () -. t0) *. 1000.0)
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let comms_sum_stats handles key =
  List.fold_left
    (fun acc s -> acc + Option.value ~default:0 (scan_json_int s key))
    0
    (List.filter_map Fun.id
       (Array.to_list (Array.map cluster_node_stats handles)))

let comms_cell cfg ~nodes ~replicas =
  let exe = cfg.service_scale_server_exe in
  let paths =
    Array.init nodes (fun i ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "approx_comms_%d_%d_%d_%d.sock" (Unix.getpid ())
             nodes replicas i))
  in
  let handles =
    Array.init nodes (fun i ->
        { cn_id = i; cn_path = paths.(i); cn_state = `Down })
  in
  let addrs = Array.to_list (Array.map (fun p -> Unix.ADDR_UNIX p) paths) in
  Fun.protect
    ~finally:(fun () -> Array.iter (kill_cluster_node ~hard:false) handles)
    (fun () ->
      Array.iter
        (start_cluster_node ~exe ~paths ~nodes ~replicas
           ~gossip_ms:comms_gossip_ms)
        handles;
      Array.iter
        (fun p ->
          if not (wait_for_socket p ~timeout_s:10.0) then
            failwith ("comms bench: node did not come up on " ^ p))
        paths;
      let lg_cfg =
        { Service.Loadgen.default_config with
          connections = cfg.service_comms_connections;
          ops_per_connection = cfg.service_comms_ops_per_connection;
          pipeline = 8;
          read_permille = 200;
          add_permille = 100;
          add_delta = 16;
          seed = 42;
          replicas;
          max_reconnects = 2 }
      in
      let r = Service.Loadgen.run ~addrs lg_cfg in
      Unix.sleepf (4.0 *. float_of_int comms_gossip_ms /. 1000.0);
      let converged, converge_wait_ms = comms_await_convergence handles in
      let sum = comms_sum_stats handles in
      let bytes_sent = sum "gossip_bytes_sent" in
      let ops = r.Service.Loadgen.ok in
      let bytes_per_op =
        if ops > 0 then float_of_int bytes_sent /. float_of_int ops else 0.0
      in
      ( J.Obj
          [ ("nodes", J.Int nodes);
            ("replicas", J.Int replicas);
            ("gossip_interval_ms", J.Int comms_gossip_ms);
            ("k", J.Int cluster_k);
            ("k_staleness", J.Int cluster_k_staleness);
            ("connections", J.Int cfg.service_comms_connections);
            ("ops_per_connection", J.Int cfg.service_comms_ops_per_connection);
            ("ops_per_sec", J.Float r.Service.Loadgen.ops_per_sec);
            ("ok", J.Int ops);
            ("busy", J.Int r.Service.Loadgen.busy);
            ("errors", J.Int r.Service.Loadgen.errors);
            ("acc_violations", J.Int (sum "acc_violations_total"));
            ("converged", J.Bool converged);
            ("converge_wait_ms", J.Float converge_wait_ms);
            ("gossip_bytes_sent", J.Int bytes_sent);
            ("gossip_digest_rounds", J.Int (sum "gossip_digest_rounds"));
            ("gossip_repair_objects", J.Int (sum "gossip_repair_objects"));
            ("gossip_frames_sent", J.Int (sum "gossip_frames_sent"));
            ("gossip_entries_sent", J.Int (sum "gossip_entries_sent"));
            ("digest_frames_received", J.Int (sum "digest_frames_received"));
            ("digest_mismatches", J.Int (sum "digest_mismatches"));
            ("compact_bytes_per_op", J.Float bytes_per_op) ],
        r.Service.Loadgen.errors = 0 && converged ))

(* Partition/reconnect heal: one durable node leaves cleanly, the load
   diverges [diverged] of the counters while it is away, and it
   rejoins with its pre-partition state recovered from disk — so the
   digest exchange sees exactly [diverged] mismatched objects, and the
   bytes spent from rejoin to convergence are the heal cost. Two cell
   sizes make the proportionality claim checkable: heal bytes must
   track the divergence, not the hosted share. *)
let comms_heal_cell cfg ~diverged =
  let exe = cfg.service_scale_server_exe in
  let nodes = 3 and replicas = 2 in
  let diverged = max 1 (min diverged cluster_counters) in
  let tmp = Filename.get_temp_dir_name () in
  let tag = Printf.sprintf "%d_heal%d" (Unix.getpid ()) diverged in
  let data_root = Filename.concat tmp ("approx_comms_data_" ^ tag) in
  (try Unix.mkdir data_root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let paths =
    Array.init nodes (fun i ->
        Filename.concat tmp (Printf.sprintf "approx_comms_%s_%d.sock" tag i))
  in
  let handles =
    Array.init nodes (fun i ->
        { cn_id = i; cn_path = paths.(i); cn_state = `Down })
  in
  let addrs = Array.to_list (Array.map (fun p -> Unix.ADDR_UNIX p) paths) in
  let start = start_cluster_node ~data_root ~exe ~paths ~nodes ~replicas
      ~gossip_ms:comms_gossip_ms in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (kill_cluster_node ~hard:false) handles;
      Array.iter
        (fun i -> rm_rf_dir (Filename.concat data_root (Printf.sprintf "node%d" i)))
        [| 0; 1; 2 |];
      try Unix.rmdir data_root with Unix.Unix_error _ -> ())
    (fun () ->
      Array.iter start handles;
      Array.iter
        (fun p ->
          if not (wait_for_socket p ~timeout_s:10.0) then
            failwith ("comms heal bench: node did not come up on " ^ p))
        paths;
      let lg_cfg ~targets =
        { Service.Loadgen.default_config with
          connections = cfg.service_comms_connections;
          ops_per_connection = cfg.service_comms_ops_per_connection;
          pipeline = 8;
          read_permille = 100;
          add_permille = 100;
          add_delta = 16;
          seed = 42;
          targets;
          replicas;
          max_reconnects = 4 }
      in
      (* Phase A: populate every counter, converge. *)
      let all = List.init cluster_counters (Printf.sprintf "c%d") in
      let ra = Service.Loadgen.run ~addrs (lg_cfg ~targets:all) in
      ignore (comms_await_convergence handles);
      (* Partition: the victim leaves cleanly (snapshot on stop), then
         the survivors diverge [diverged] counters without it. *)
      let victim = handles.(1) in
      kill_cluster_node ~hard:false victim;
      let rb =
        Service.Loadgen.run ~addrs
          (lg_cfg ~targets:(List.filteri (fun i _ -> i < diverged) all))
      in
      Unix.sleepf (4.0 *. float_of_int comms_gossip_ms /. 1000.0);
      let bytes_before = comms_sum_stats handles "gossip_bytes_sent" in
      let repairs_before = comms_sum_stats handles "gossip_repair_objects" in
      (* Reconnect: the victim replays its pre-partition state from
         disk and rejoins; digest anti-entropy heals it. *)
      start victim;
      if not (wait_for_socket victim.cn_path ~timeout_s:10.0) then
        failwith "comms heal bench: victim did not come back";
      let healed, heal_ms = comms_await_convergence handles in
      let bytes_after = comms_sum_stats handles "gossip_bytes_sent" in
      let repairs_after = comms_sum_stats handles "gossip_repair_objects" in
      let heal_bytes = bytes_after - bytes_before in
      ( J.Obj
          [ ("nodes", J.Int nodes);
            ("replicas", J.Int replicas);
            ("gossip_interval_ms", J.Int comms_gossip_ms);
            ("hosted_counters", J.Int cluster_counters);
            ("diverged_counters", J.Int diverged);
            ("phase_errors", J.Int (ra.Service.Loadgen.errors
                                    + rb.Service.Loadgen.errors));
            ("acc_violations",
             J.Int (comms_sum_stats handles "acc_violations_total"));
            ("healed", J.Bool healed);
            ("heal_ms", J.Float heal_ms);
            ("heal_bytes", J.Int heal_bytes);
            ("repair_objects", J.Int (repairs_after - repairs_before)) ],
        (diverged, heal_bytes, healed) ))

let service_cluster_comms cfg =
  let cells = List.map
      (fun (nodes, replicas) -> comms_cell cfg ~nodes ~replicas)
      cfg.service_comms_cells
  in
  let heal =
    List.map (fun d -> comms_heal_cell cfg ~diverged:d)
      (List.sort_uniq compare cfg.service_comms_heal_diverged)
  in
  let all_clean = List.for_all snd cells in
  (* Proportionality: heal bytes per diverged counter between the
     smallest and largest heal cells. A full-share heal would keep
     total bytes flat as divergence shrinks (ratio >> 1); a
     proportional heal keeps bytes-per-diverged-object flat
     (ratio near 1, always well below the share ratio). *)
  let heal_prop =
    match
      List.sort (fun (d1, _, _) (d2, _, _) -> compare d1 d2)
        (List.map snd heal)
    with
    | (d_lo, b_lo, _) :: (_ :: _ as rest) ->
      let d_hi, b_hi, _ = List.nth rest (List.length rest - 1) in
      if b_hi > 0 && d_lo > 0 && d_hi > d_lo then
        Some
          (float_of_int (b_lo * d_hi) /. float_of_int (b_hi * d_lo))
      else None
    | _ -> None
  in
  J.Obj
    ([ ("cells", J.List (List.map fst cells));
       ("heal", J.List (List.map fst heal));
       ("all_cells_clean", J.Bool all_clean) ]
    @
    match heal_prop with
    | Some p -> [ ("heal_bytes_per_diverged_ratio", J.Float p) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* Simulator amortized-step metrics (Theorem III.9, Algorithm 1)       *)
(* ------------------------------------------------------------------ *)

let simulator_metrics cfg =
  let n = cfg.sim_n and k = cfg.sim_k in
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let counter = Approx.Kcounter.create exec ~n ~k () in
  let script =
    Workload.Script.counter_mix ~seed:42 ~n
      ~ops_per_process:cfg.sim_ops_per_process ~read_fraction:0.3
  in
  let programs =
    Workload.Script.counter_programs (Approx.Kcounter.handle counter) script
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
    [ ("schema_version", J.Int 11);
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
           ("mlp_write_permille", J.Int cfg.mlp_write_permille);
           ("service_scale_conns",
            J.List (List.map (fun c -> J.Int c) cfg.service_scale_conns));
           ("service_scale_select_conns",
            J.List
              (List.map (fun c -> J.Int c) cfg.service_scale_select_conns));
           ("service_scale_ops_per_connection",
            J.Int cfg.service_scale_ops_per_connection);
           ("service_scale_trials", J.Int cfg.service_scale_trials);
           ("service_scale_ramp", J.Int cfg.service_scale_ramp);
           ("service_cluster_cells",
            J.List
              (List.map
                 (fun (n, r, g) ->
                   J.Obj
                     [ ("nodes", J.Int n); ("replicas", J.Int r);
                       ("gossip_interval_ms", J.Int g) ])
                 cfg.service_cluster_cells));
           ("service_cluster_connections",
            J.Int cfg.service_cluster_connections);
           ("service_cluster_ops_per_connection",
            J.Int cfg.service_cluster_ops_per_connection);
           ("service_cluster_chaos_ops", J.Int cfg.service_cluster_chaos_ops);
           ("service_durability_connections",
            J.Int cfg.service_durability_connections);
           ("service_durability_chaos_ops",
            J.Int cfg.service_durability_chaos_ops);
           ("service_comms_cells",
            J.List
              (List.map
                 (fun (n, r) -> J.List [ J.Int n; J.Int r ])
                 cfg.service_comms_cells));
           ("service_comms_connections", J.Int cfg.service_comms_connections);
           ("service_comms_ops_per_connection",
            J.Int cfg.service_comms_ops_per_connection);
           ("service_comms_heal_diverged",
            J.List (List.map (fun d -> J.Int d) cfg.service_comms_heal_diverged));
           ("epoll_available", J.Bool Service.Poller.epoll_available) ]);
      ("mlp", mlp cfg);
      ("service_io_scale", J.List (service_scale_throughput cfg));
      ("service_cluster", J.List (service_cluster cfg));
      ("service_cluster_comms", service_cluster_comms cfg);
      ("service_durability", service_durability cfg);
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
        | _ -> ());
       (match List.assoc_opt "service_io_scale" fields with
        | Some (J.List rows) ->
          List.iter
            (fun row ->
              match row with
              | J.Obj r ->
                Printf.printf
                  "  io-scale  %-6s conns=%-5.0f  median %8.2f kops/s  %6.2f ops/s/conn  rejects=%.0f  acc=%.0f  err=%.0f\n"
                  (str_of r "poller") (num_of r "connections")
                  (num_of r "ops_per_sec_median" /. 1e3)
                  (num_of r "ops_per_sec_per_conn_median")
                  (num_of r "poller_rejects")
                  (num_of r "acc_violations")
                  (num_of r "errors")
              | _ -> ())
            rows
        | _ -> ());
       (match List.assoc_opt "service_durability" fields with
        | Some (J.Obj dur) ->
          (match List.assoc_opt "chaos" dur with
           | Some (J.List rows) ->
             List.iter
               (fun row ->
                 match row with
                 | J.Obj r ->
                   Printf.printf
                     "  durability chaos: replayed=%.0f recovered_sum=%.0f acked=%.0f lost_beyond_envelope=%.0f errors=%.0f\n"
                     (num_of r "recovery_replayed_records")
                     (num_of r "recovered_counter_sum") (num_of r "ok")
                     (num_of r "acked_ops_lost_beyond_envelope")
                     (num_of r "errors")
                 | _ -> ())
               rows
           | _ -> ())
        | _ -> ());
       (match List.assoc_opt "service_cluster_comms" fields with
        | Some (J.Obj comms) ->
          (match List.assoc_opt "cells" comms with
           | Some (J.List cells) ->
             List.iter
               (fun cell ->
                 match cell with
                 | J.Obj c ->
                   Printf.printf
                     "  comms     nodes=%.0f repl=%.0f %8.2f kops/s  peer %7.3f B/op  digests=%.0f repairs=%.0f\n"
                     (num_of c "nodes") (num_of c "replicas")
                     (num_of c "ops_per_sec" /. 1e3)
                     (num_of c "compact_bytes_per_op")
                     (num_of c "gossip_digest_rounds")
                     (num_of c "gossip_repair_objects")
                 | _ -> ())
               cells
           | _ -> ());
          (match List.assoc_opt "heal" comms with
           | Some (J.List rows) ->
             List.iter
               (fun row ->
                 match row with
                 | J.Obj r ->
                   Printf.printf
                     "  comms     heal diverged=%.0f/%.0f  %6.0f B in %6.1f ms  repairs=%.0f healed=%s\n"
                     (num_of r "diverged_counters") (num_of r "hosted_counters")
                     (num_of r "heal_bytes") (num_of r "heal_ms")
                     (num_of r "repair_objects")
                     (match List.assoc_opt "healed" r with
                     | Some (J.Bool true) -> "yes"
                     | _ -> "NO")
                 | _ -> ())
               rows
           | _ -> ())
        | _ -> ())
     | _ -> ());
    Printf.printf "written to %s\n" cfg.out_path
  end;
  json
