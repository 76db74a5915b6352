(* Command-line driver for the simulated objects: run workloads, dump
   traces, check linearizability, and run the lower-bound experiments
   without writing any OCaml.

   Examples:
     approx_cli counter --impl k --n 8 --k 3 --ops 1000 --read-fraction 0.2
     approx_cli maxreg --impl k --m 65536 --writes 50 --trace
     approx_cli lincheck --n 3 --k 2 --ops 5 --seed 11
     approx_cli awareness --n 64 --k 2
     approx_cli perturb --object maxreg --m 1048576 --k 2
*)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)
(* ------------------------------------------------------------------ *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n"; "procs" ] ~docv:"N" ~doc:"Number of processes.")

let k_arg =
  Arg.(value & opt int 2 & info [ "k"; "acc" ] ~docv:"K"
         ~doc:"Accuracy parameter of the k-multiplicative objects.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Deterministic seed for workload and schedule.")

let policy_arg =
  let policy = Arg.enum [ ("round-robin", `Round_robin); ("random", `Random) ] in
  Arg.(value & opt policy `Random
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Scheduling policy: $(b,round-robin) or $(b,random).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full execution trace.")

let dump_events_arg =
  Arg.(value & opt (some string) None
       & info [ "dump-events" ] ~docv:"FILE"
           ~doc:"Export the event trace to $(docv) (.csv or .json by \
                 extension).")

let dump_ops_arg =
  Arg.(value & opt (some string) None
       & info [ "dump-ops" ] ~docv:"FILE"
           ~doc:"Export per-operation metrics to $(docv) as CSV.")

let export_dumps exec ~dump_events ~dump_ops =
  let mem = Sim.Exec.memory exec in
  let trace = Sim.Exec.trace exec in
  (match dump_events with
   | None -> ()
   | Some path ->
     let emit =
       if Filename.check_suffix path ".json" then Sim.Export.events_json mem
       else Sim.Export.events_csv mem
     in
     Sim.Export.write_file path (emit trace);
     Printf.printf "events written to %s\n" path);
  match dump_ops with
  | None -> ()
  | Some path ->
    Sim.Export.write_file path (Sim.Export.ops_csv trace);
    Printf.printf "operation metrics written to %s\n" path

let make_policy policy seed =
  match policy with
  | `Round_robin -> Sim.Schedule.Round_robin
  | `Random -> Sim.Schedule.Random seed

let print_metrics trace =
  Printf.printf "operations:\n";
  List.iter
    (fun (name, count, worst, mean) ->
      Printf.printf "  %-8s count=%-7d worst-steps=%-5d mean-steps=%.2f\n" name
        count worst mean)
    (Sim.Metrics.by_name trace);
  Printf.printf "total steps: %d, amortized steps/op: %.3f\n"
    (Sim.Trace.steps trace)
    (Sim.Metrics.amortized trace)

(* ------------------------------------------------------------------ *)
(* counter subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let counter_impl_arg =
  let impl =
    Arg.enum
      [ ("k", `K); ("collect", `Collect); ("tree", `Tree);
        ("snapshot", `Snapshot); ("faa", `Faa) ]
  in
  Arg.(value & opt impl `K
       & info [ "impl" ] ~docv:"IMPL"
           ~doc:"Counter implementation: $(b,k) (Algorithm 1), \
                 $(b,collect), $(b,tree), $(b,snapshot) or $(b,faa).")

let make_counter impl exec ~n ~k =
  match impl with
  | `K ->
    Sim_algo.Kcounter.handle
      (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ())
  | `Collect ->
    Sim_algo.Collect_counter.handle
      (Sim_algo.Collect_counter.create (Sim_backend.ctx exec) ~n ())
  | `Tree -> Counters.Tree_counter.handle (Counters.Tree_counter.create exec ~n ())
  | `Snapshot ->
    Counters.Snapshot_counter.handle
      (Counters.Snapshot_counter.create exec ~n ())
  | `Faa -> Counters.Faa_counter.handle (Counters.Faa_counter.create exec ())

let run_counter impl n k ops read_fraction seed policy trace dump_events
    dump_ops =
  let exec = Sim.Exec.create ~n () in
  let counter = make_counter impl exec ~n ~k in
  let script =
    Workload.Script.counter_mix ~seed ~n ~ops_per_process:ops ~read_fraction
  in
  let reads = ref [] in
  let programs =
    Workload.Script.counter_programs
      ~on_read:(fun ~pid result -> reads := (pid, result) :: !reads)
      counter script
  in
  let outcome =
    Sim.Exec.run exec ~programs ~policy:(make_policy policy seed) ()
  in
  Printf.printf "%s: n=%d ops/process=%d -> %d reads, %d steps\n"
    counter.Obj_intf.c_label n ops
    (List.length !reads)
    outcome.steps_total;
  (match List.rev !reads with
   | [] -> ()
   | (pid, first) :: _ ->
     Printf.printf "first read: p%d -> %d; last read: %s\n" pid first
       (match !reads with
        | (pid, last) :: _ -> Printf.sprintf "p%d -> %d" pid last
        | [] -> "-"));
  print_metrics (Sim.Exec.trace exec);
  if trace then Format.printf "%a" Sim.Trace.pp (Sim.Exec.trace exec);
  export_dumps exec ~dump_events ~dump_ops;
  0

let counter_cmd =
  let ops_arg =
    Arg.(value & opt int 1000
         & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per process.")
  in
  let rf_arg =
    Arg.(value & opt float 0.2
         & info [ "read-fraction" ] ~docv:"F"
             ~doc:"Fraction of operations that are reads.")
  in
  Cmd.v
    (Cmd.info "counter" ~doc:"Run a counter workload in the simulator")
    Term.(const run_counter $ counter_impl_arg $ n_arg $ k_arg $ ops_arg
          $ rf_arg $ seed_arg $ policy_arg $ trace_arg $ dump_events_arg
          $ dump_ops_arg)

(* ------------------------------------------------------------------ *)
(* maxreg subcommand                                                   *)
(* ------------------------------------------------------------------ *)

let maxreg_impl_arg =
  let impl =
    Arg.enum
      [ ("k", `K); ("tree", `Tree); ("linear", `Linear);
        ("unbounded", `Unbounded); ("k-unbounded", `Kunbounded) ]
  in
  Arg.(value & opt impl `K
       & info [ "impl" ] ~docv:"IMPL"
           ~doc:"Max-register implementation: $(b,k) (Algorithm 2), \
                 $(b,tree), $(b,linear), $(b,unbounded) or \
                 $(b,k-unbounded).")

let make_maxreg impl exec ~n ~m ~k =
  match impl with
  | `K -> Approx.Kmaxreg.handle (Approx.Kmaxreg.create exec ~n ~m ~k ())
  | `Tree ->
    Sim_algo.Tree_maxreg.handle
      (Sim_algo.Tree_maxreg.create (Sim_backend.ctx exec) ~m ())
  | `Linear -> Maxreg.Linear_maxreg.handle (Maxreg.Linear_maxreg.create exec ~n ())
  | `Unbounded ->
    Maxreg.Unbounded_maxreg.handle (Maxreg.Unbounded_maxreg.create exec ())
  | `Kunbounded ->
    Approx.Kmaxreg_unbounded.handle (Approx.Kmaxreg_unbounded.create exec ~k ())

let run_maxreg impl n m k writes seed policy trace dump_events dump_ops =
  let exec = Sim.Exec.create ~n () in
  let mr = make_maxreg impl exec ~n ~m ~k in
  let script =
    Workload.Script.writes_then_read ~seed ~n ~writes_per_process:writes
      ~max_value:m
  in
  let reads = ref [] in
  let programs =
    Workload.Script.maxreg_programs
      ~on_read:(fun ~pid result -> reads := (pid, result) :: !reads)
      mr script
  in
  let outcome =
    Sim.Exec.run exec ~programs ~policy:(make_policy policy seed) ()
  in
  Printf.printf "%s: n=%d m=%d -> %d steps\n" mr.Obj_intf.mr_label n m
    outcome.steps_total;
  List.iter
    (fun (pid, x) -> Printf.printf "read by p%d -> %d\n" pid x)
    (List.rev !reads);
  print_metrics (Sim.Exec.trace exec);
  if trace then Format.printf "%a" Sim.Trace.pp (Sim.Exec.trace exec);
  export_dumps exec ~dump_events ~dump_ops;
  0

let maxreg_cmd =
  let m_arg =
    Arg.(value & opt int 65536
         & info [ "m"; "bound" ] ~docv:"M" ~doc:"Value bound (bounded registers).")
  in
  let writes_arg =
    Arg.(value & opt int 20
         & info [ "writes" ] ~docv:"W" ~doc:"Writes per process.")
  in
  Cmd.v
    (Cmd.info "maxreg" ~doc:"Run a max-register workload in the simulator")
    Term.(const run_maxreg $ maxreg_impl_arg $ n_arg $ m_arg $ k_arg
          $ writes_arg $ seed_arg $ policy_arg $ trace_arg $ dump_events_arg
          $ dump_ops_arg)

(* ------------------------------------------------------------------ *)
(* lincheck subcommand                                                 *)
(* ------------------------------------------------------------------ *)

let run_lincheck n k ops seed =
  let exec = Sim.Exec.create ~n () in
  let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  let script =
    Workload.Script.counter_mix ~seed ~n ~ops_per_process:ops
      ~read_fraction:0.5
  in
  let programs =
    Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter) script
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
  let ops_arr = Lincheck.History.of_trace (Sim.Exec.trace exec) in
  Array.iter
    (fun op -> Format.printf "%a@." Lincheck.History.pp_op op)
    ops_arr;
  print_newline ();
  print_string (Lincheck.Render.timeline (Sim.Exec.trace exec));
  match Lincheck.Checker.check (Lincheck.Spec.k_counter ~k) ops_arr with
  | Lincheck.Checker.Linearizable witness ->
    Printf.printf "linearizable (witness: %s)\n"
      (String.concat " " (List.map string_of_int witness));
    0
  | Lincheck.Checker.Not_linearizable ->
    Printf.printf "NOT LINEARIZABLE\n";
    1

let lincheck_cmd =
  let ops_arg =
    Arg.(value & opt int 4
         & info [ "ops" ] ~docv:"OPS"
             ~doc:"Operations per process (keep small; the check is \
                   exponential).")
  in
  Cmd.v
    (Cmd.info "lincheck"
       ~doc:"Run Algorithm 1 under a random schedule and check \
             linearizability against the k-counter specification")
    Term.(const run_lincheck $ n_arg $ k_arg $ ops_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* awareness subcommand                                                *)
(* ------------------------------------------------------------------ *)

let run_awareness n k seed =
  let result =
    Lowerbound.Awareness_exp.run
      ~make:(fun exec ~n ->
        Sim_algo.Kcounter.handle
          (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ()))
      ~n ~k
      ~policy:(Sim.Schedule.Random seed)
  in
  Printf.printf
    "n=%d k=%d: %d events (Thm III.11 bound ~ %.0f), top-half awareness %d \
     (Cor III.10.1 bound %.1f)\n"
    n k result.total_events result.events_bound result.top_half_min
    result.awareness_bound;
  0

let awareness_cmd =
  Cmd.v
    (Cmd.info "awareness"
       ~doc:"Run the inc-then-read workload with awareness tracking \
             (Section III-D)")
    Term.(const run_awareness $ n_arg $ k_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* perturb subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_perturb obj m k =
  let rounds =
    match obj with
    | `Maxreg ->
      Lowerbound.Perturb.perturb_maxreg
        ~make:(fun exec ~n ->
          Approx.Kmaxreg.handle (Approx.Kmaxreg.create exec ~n ~m ~k ()))
        ~m ~k
    | `Counter ->
      Lowerbound.Perturb.perturb_counter
        ~make:(fun exec ~n ->
          Sim_algo.Kcounter.handle
            (Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k ()))
        ~m ~k
  in
  Printf.printf "%-6s %-14s %-14s %-8s %s\n" "round" "input" "response"
    "objects" "steps";
  List.iter
    (fun r ->
      Printf.printf "%-6d %-14d %-14d %-8d %d\n" r.Lowerbound.Perturb.index
        r.Lowerbound.Perturb.input r.Lowerbound.Perturb.response
        r.Lowerbound.Perturb.distinct_objects r.Lowerbound.Perturb.read_steps)
    rounds;
  0

let perturb_cmd =
  let obj_arg =
    let obj = Arg.enum [ ("maxreg", `Maxreg); ("counter", `Counter) ] in
    Arg.(value & opt obj `Maxreg
         & info [ "object" ] ~docv:"OBJ"
             ~doc:"Which object to perturb: $(b,maxreg) or $(b,counter).")
  in
  let m_arg =
    Arg.(value & opt int (1 lsl 20)
         & info [ "m"; "bound" ] ~docv:"M" ~doc:"Bound for the perturbation budget.")
  in
  Cmd.v
    (Cmd.info "perturb"
       ~doc:"Run the Section V perturbation adversary against Algorithm 1/2")
    Term.(const run_perturb $ obj_arg $ m_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* explore subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_explore n k incs limit =
  let script =
    Array.init n (fun _ ->
        List.init incs (fun _ -> Workload.Script.Inc) @ [ Workload.Script.Read ])
  in
  let build () =
    let exec = Sim.Exec.create ~n () in
    let counter = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
    (exec,
     Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter) script)
  in
  let stats =
    Lincheck.Explore.exhaustive ~build ~spec:(Lincheck.Spec.k_counter ~k)
      ~limit ()
  in
  Printf.printf
    "explored %d complete executions (%d replays, depth <= %d)%s\n"
    stats.Lincheck.Explore.executions stats.Lincheck.Explore.replays
    stats.Lincheck.Explore.max_depth
    (if stats.Lincheck.Explore.truncated then " [truncated]" else "");
  if stats.Lincheck.Explore.violations = 0 then begin
    Printf.printf "all linearizable against the %d-counter specification\n" k;
    0
  end
  else begin
    Printf.printf "%d VIOLATIONS; first witness schedule: %s\n"
      stats.Lincheck.Explore.violations
      (match stats.Lincheck.Explore.first_violation with
       | None -> "-"
       | Some s ->
         String.concat " " (Array.to_list (Array.map string_of_int s)));
    1
  end

let explore_cmd =
  let incs_arg =
    Arg.(value & opt int 2
         & info [ "incs" ] ~docv:"I"
             ~doc:"Increments per process before its final read (keep \
                   small; exploration is exponential).")
  in
  let limit_arg =
    Arg.(value & opt int 200_000
         & info [ "limit" ] ~docv:"L" ~doc:"Maximum executions to explore.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively enumerate every interleaving of a small \
             Algorithm 1 configuration and check linearizability")
    Term.(const run_explore $ n_arg $ k_arg $ incs_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* backends subcommand                                                 *)
(* ------------------------------------------------------------------ *)

let run_backends seed =
  let rows = Backend_smoke.rows ~seed () in
  Printf.printf "functor smoke matrix: n=%d k=%d incs=%d\n" Backend_smoke.n
    Backend_smoke.k Backend_smoke.incs;
  List.iter
    (fun r ->
      Printf.printf
        "  %-14s counter=%-6d %-3s maxreg=%-6d %-3s fast-maxreg=%-6d %-3s \
         pid0-steps=%d\n"
        r.Backend_smoke.backend r.Backend_smoke.counter_read
        (if r.Backend_smoke.counter_ok then "ok" else "BAD")
        r.Backend_smoke.maxreg_read
        (if r.Backend_smoke.maxreg_ok then "ok" else "BAD")
        r.Backend_smoke.fast_maxreg_read
        (if r.Backend_smoke.fast_maxreg_ok then "ok" else "BAD")
        r.Backend_smoke.steps)
    rows;
  if Backend_smoke.all_ok rows then begin
    print_endline "all backends within the k-multiplicative envelope";
    0
  end
  else begin
    print_endline "ENVELOPE VIOLATION in the backend matrix";
    1
  end

let backends_cmd =
  Cmd.v
    (Cmd.info "backends"
       ~doc:"Drive the functorized Algorithms 1 & 2 through every backend \
             instantiation (sim, chaos(sim), atomic, chaos(atomic)) and \
             check the accuracy envelopes")
    Term.(const run_backends $ seed_arg)

(* ------------------------------------------------------------------ *)
(* service subcommands: serve / loadgen / stats                        *)
(* ------------------------------------------------------------------ *)

let unix_arg =
  Arg.(value & opt string "/tmp/approx_service.sock"
       & info [ "unix" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path of the service.")

let tcp_arg =
  Arg.(value & opt (some int) None
       & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Use TCP on 127.0.0.1:$(docv) instead of the Unix \
                 socket (0 picks a free port when serving).")

let addr_of ~unix ~tcp =
  match tcp with
  | Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  | None -> Unix.ADDR_UNIX unix

let counters_arg =
  Arg.(value & opt int 4
       & info [ "counters" ] ~docv:"C"
           ~doc:"Number of hosted k-counters (named c0 .. c<C-1>).")

let poller_arg =
  let poller =
    Arg.enum
      [ ("auto", Service.Poller.Auto); ("epoll", Service.Poller.Epoll);
        ("select", Service.Poller.Select) ]
  in
  Arg.(value & opt poller Service.Poller.Auto
       & info [ "poller" ] ~docv:"BACKEND"
           ~doc:"Readiness backend: $(b,auto) (epoll where compiled in, \
                 select elsewhere), $(b,epoll) or $(b,select).")

(* An explicitly requested backend that is compiled out is a usage
   error (exit 2), same as any other impossible flag combination. *)
let check_poller which poller =
  if poller = Service.Poller.Epoll && not Service.Poller.epoll_available then begin
    Printf.eprintf
      "%s: --poller epoll requested but the epoll backend is not compiled \
       in on this platform\n"
      which;
    false
  end
  else true

(* --peers ID=ADDR[,ID=ADDR...] where ADDR is HOST:PORT (TCP) or a
   Unix-socket path. Node ids refer to the same 0-based numbering as
   --node-id. *)
let parse_peers s =
  let parse_one entry =
    match String.index_opt entry '=' with
    | None -> None
    | Some eq ->
      let id = String.sub entry 0 eq in
      let addr = String.sub entry (eq + 1) (String.length entry - eq - 1) in
      (match int_of_string_opt id with
       | None -> None
       | Some id when id < 0 -> None
       | Some id ->
         (match String.rindex_opt addr ':' with
          | Some colon
            when (match
                    int_of_string_opt
                      (String.sub addr (colon + 1)
                         (String.length addr - colon - 1))
                  with
                 | Some p -> p > 0
                 | None -> false) ->
            let host = String.sub addr 0 colon in
            let port =
              int_of_string
                (String.sub addr (colon + 1) (String.length addr - colon - 1))
            in
            Some (id, `Tcp (host, port))
          | _ -> if addr = "" then None else Some (id, `Unix addr)))
  in
  if s = "" then Some []
  else
    let entries = String.split_on_char ',' s in
    let parsed = List.map parse_one entries in
    if List.exists Option.is_none parsed then None
    else Some (List.map Option.get parsed)

let run_serve shards io_domains max_batch max_conns
    poller unix tcp counters k duration node_id nodes replicas
    gossip_interval_ms k_staleness digest_interval_ticks peers_spec data_dir fsync_spec snapshot_interval_ms =
  if shards < 1 || io_domains < 1 || counters < 1 || k < 2
     || max_batch < 1 || max_conns < 1
  then begin
    prerr_endline "serve: shards/io-domains/counters/batch/max-conns must \
                   be positive and k >= 2";
    2
  end
  else if nodes < 1 || node_id < 0 || node_id >= nodes || replicas < 1
          || gossip_interval_ms < 1 || k_staleness < 1
          || digest_interval_ticks < 1
  then begin
    prerr_endline "serve: need nodes >= 1, node-id in 0..nodes-1, \
                   replicas >= 1, gossip-interval-ms >= 1, \
                   k-staleness >= 1 and digest-interval-ticks >= 1";
    2
  end
  else if snapshot_interval_ms < 0 then begin
    prerr_endline "serve: snapshot-interval-ms must be >= 0 (0 disables)";
    2
  end
  else if not (check_poller "serve" poller) then 2
  else begin
    match Persist.Wal.policy_of_string fsync_spec with
    | None ->
      Printf.eprintf
        "serve: malformed --fsync %S (expected never, interval-ms:N or \
         every-n-records:N)\n"
        fsync_spec;
      2
    | Some fsync ->
    match parse_peers peers_spec with
    | None ->
      Printf.eprintf
        "serve: malformed --peers %S (expected ID=HOST:PORT or \
         ID=UNIX_PATH, comma-separated)\n"
        peers_spec;
      2
    | Some peers ->
    let config =
      { Service.Server.shards;
        io_domains;
        max_batch;
        max_conns;
        poller;
        specs = Service.Objects.default_specs ~counters ~k;
        node_id;
        nodes;
        replicas;
        gossip_interval_ms;
        k_staleness;
        digest_interval_ticks;
        peers;
        data_dir = (if data_dir = "" then None else Some data_dir);
        fsync;
        snapshot_interval_ms }
    in
    let listen =
      match tcp with
      | Some port -> `Tcp ("127.0.0.1", port)
      | None -> `Unix unix
    in
    let srv = Service.Server.start ~config ~listen () in
    (* start already lifted soft -> hard; warn when even the hard
       limit cannot cover max_conns plus listener/wake/stdio slack. *)
    let soft, hard = Service.Rlimit.nofile () in
    let headroom = 64 + (2 * io_domains) in
    if hard < max_conns + headroom then
      Printf.eprintf
        "serve: warning: RLIMIT_NOFILE hard limit %d < max-conns %d + %d \
         headroom; accepts beyond ~%d fds will fail\n%!"
        hard max_conns headroom (soft - headroom);
    let addr =
      match Service.Server.sockaddr srv with
      | Unix.ADDR_UNIX p -> p
      | Unix.ADDR_INET (host, port) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
    in
    Printf.printf "serving %d objects on %s: %d shard(s), %d io domain(s), \
                   batch<=%d, conns<=%d, poller=%s\n%!"
      (List.length config.specs) addr shards io_domains max_batch max_conns
      (Service.Server.poller_name srv);
    if nodes > 1 then
      Printf.printf
        "cluster: node %d of %d, replicas=%d, gossip every %d ms, \
         k-staleness=%d, %d peer(s)\n%!"
        node_id nodes replicas gossip_interval_ms k_staleness
        (List.length peers);
    (match config.data_dir with
    | Some dir ->
      let d = Service.Metrics.durability (Service.Server.metrics srv) in
      Printf.printf
        "durability: data-dir=%s, fsync=%s, snapshots every %d ms; \
         recovered %d log record(s), snapshot %s%s\n%!"
        dir
        (Persist.Wal.policy_to_string fsync)
        snapshot_interval_ms
        d.Service.Metrics.d_recovery_replayed_records
        (if d.Service.Metrics.d_recovery_snapshot_loaded then "loaded"
         else "absent")
        (if d.Service.Metrics.d_torn_tail_truncated > 0 then
           ", torn tail truncated"
         else "")
    | None -> ());
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler;
    let deadline =
      if duration > 0.0 then Unix.gettimeofday () +. duration else infinity
    in
    while (not !stop) && Unix.gettimeofday () < deadline do
      try Unix.sleepf 0.1 with Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Service.Server.stop srv;
    0
  end

let serve_cmd =
  let batch_arg =
    Arg.(value & opt int 64
         & info [ "batch" ] ~docv:"B"
             ~doc:"Max ops an I/O loop parks per shard before running \
                   them (the fusion window).")
  in
  let shards_arg =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"S"
             ~doc:"Algorithm-1 pids and lock stripes: objects spread \
                   over shards by name, each shard's ops run under its \
                   lock (not worker domains).")
  in
  let io_loops_arg =
    Arg.(value & opt int 1
         & info [ "io-domains" ] ~docv:"D"
             ~doc:"Event-loop domains; connections are dealt to them \
                   round-robin at accept.")
  in
  let duration_arg =
    Arg.(value & opt float 0.0
         & info [ "duration" ] ~docv:"SECS"
             ~doc:"Exit after $(docv) seconds (0 = run until SIGINT).")
  in
  let max_conns_arg =
    Arg.(value & opt int 1024
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Accepted connections beyond $(docv) are closed \
                   immediately; also sizes the listen backlog.")
  in
  let node_id_arg =
    Arg.(value & opt int 0
         & info [ "node-id" ] ~docv:"ID"
             ~doc:"This node's id in the cluster (0-based).")
  in
  let nodes_arg =
    Arg.(value & opt int 1
         & info [ "nodes" ] ~docv:"N"
             ~doc:"Cluster size; every node must agree on $(docv) (1 = \
                   standalone, no gossip).")
  in
  let replicas_arg =
    Arg.(value & opt int 1
         & info [ "replicas" ] ~docv:"R"
             ~doc:"Copies of each object on the placement ring (clamped \
                   to the node count).")
  in
  let gossip_arg =
    Arg.(value & opt int 50
         & info [ "gossip-interval-ms" ] ~docv:"MS"
             ~doc:"Delta-gossip cadence toward the peers.")
  in
  let k_staleness_arg =
    Arg.(value & opt int 2
         & info [ "staleness" ] ~docv:"KS"
             ~doc:"Staleness budget: local growth past this factor since \
                   the last export triggers eager gossip; the cluster \
                   accuracy bound is k x $(docv).")
  in
  let digest_interval_arg =
    Arg.(value & opt int 32
         & info [ "digest-interval-ticks" ] ~docv:"T"
             ~doc:"Anti-entropy cadence: ship per-object digest \
                   fingerprints to every peer each $(docv) gossip \
                   ticks (plus one on every reconnect).")
  in
  let peers_arg =
    Arg.(value & opt string ""
         & info [ "peers" ] ~docv:"ID=ADDR,..."
             ~doc:"Peer nodes as $(b,ID=HOST:PORT) or $(b,ID=UNIX_PATH), \
                   comma-separated (every node except this one).")
  in
  let data_dir_arg =
    Arg.(value & opt string ""
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Durability root: replay $(docv)'s snapshot + delta log \
                   at start, then log envelope-crossing deltas and write \
                   periodic fuzzy snapshots into it. Empty = no \
                   persistence.")
  in
  let fsync_arg =
    Arg.(value & opt string "never"
         & info [ "fsync" ] ~docv:"POLICY"
             ~doc:"WAL fsync policy: $(b,never), $(b,interval-ms:N) or \
                   $(b,every-n-records:N). Unsynced data still survives \
                   kill -9 (page cache); fsync narrows the power-loss \
                   window.")
  in
  let snapshot_arg =
    Arg.(value & opt int 1000
         & info [ "snapshot-interval-ms" ] ~docv:"MS"
             ~doc:"Fuzzy-snapshot cadence (0 disables periodic snapshots; \
                   the shutdown snapshot still runs).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Host approximate objects behind the binary wire protocol \
             (sharded multi-loop server with built-in metrics and \
             optional delta-gossip clustering)")
    Term.(const run_serve $ shards_arg $ io_loops_arg
          $ batch_arg $ max_conns_arg $ poller_arg $ unix_arg
          $ tcp_arg $ counters_arg $ k_arg $ duration_arg $ node_id_arg
          $ nodes_arg $ replicas_arg $ gossip_arg $ k_staleness_arg
          $ digest_interval_arg $ peers_arg $ data_dir_arg $ fsync_arg $ snapshot_arg)

(* --mix R:I:A — relative read:inc:add weights, normalized to permille
   (e.g. 8:1:1 is 800 reads, 100 incs, 100 adds per 1000 ops). *)
let parse_mix s =
  match String.split_on_char ':' s with
  | [ r; i; a ] ->
    (match (int_of_string_opt r, int_of_string_opt i, int_of_string_opt a) with
     | Some r, Some i, Some a when r >= 0 && i >= 0 && a >= 0 && r + i + a > 0
       ->
       let total = r + i + a in
       Some (r * 1000 / total, a * 1000 / total)
     | _ -> None)
  | _ -> None

(* --nodes ADDR,ADDR,... — cluster node addresses in node-id order;
   each is HOST:PORT or a Unix-socket path. Empty = the single address
   from --unix/--tcp. *)
let parse_node_addrs s =
  let parse_one a =
    match String.rindex_opt a ':' with
    | Some colon
      when (match
              int_of_string_opt
                (String.sub a (colon + 1) (String.length a - colon - 1))
            with
           | Some p -> p > 0
           | None -> false) ->
      let host = String.sub a 0 colon in
      let port =
        int_of_string (String.sub a (colon + 1) (String.length a - colon - 1))
      in
      (try Some (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
       with Failure _ -> None)
    | _ -> if a = "" then None else Some (Unix.ADDR_UNIX a)
  in
  if s = "" then Some []
  else
    let parsed = List.map parse_one (String.split_on_char ',' s) in
    if List.exists Option.is_none parsed then None
    else Some (List.map Option.get parsed)

(* The first ["key": N] in a JSON blob — enough to lift a server-
   stanza aggregate out of STATS without a parser. The server stanza
   precedes the per-loop records in [Metrics.add_json], so the first
   occurrence of a duplicated key is the cross-loop sum. *)
let scan_json_int json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and jlen = String.length json in
  let rec find i =
    if i + plen > jlen then None
    else if String.sub json i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let j = ref i in
    while !j < jlen && json.[!j] = ' ' do incr j done;
    let s = !j in
    if !j < jlen && json.[!j] = '-' then incr j;
    while !j < jlen && json.[!j] >= '0' && json.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub json s (!j - s))

let run_loadgen unix tcp connections ops pipeline read_permille mix add_delta
    targets zipf seed workers ramp poller min_throughput slo_p99_us nodes_spec
    replicas max_reconnects json =
  let mix_permilles =
    match mix with
    | None -> Some (read_permille, 0)
    | Some s -> parse_mix s
  in
  match mix_permilles with
  | None ->
    Printf.eprintf
      "loadgen: malformed --mix %S (expected READ:INC:ADD, nonnegative \
       integers, not all zero)\n"
      (Option.value mix ~default:"");
    2
  | Some (read_permille, add_permille) ->
  match parse_node_addrs nodes_spec with
  | None ->
    Printf.eprintf
      "loadgen: malformed --nodes %S (expected HOST:PORT or UNIX_PATH, \
       comma-separated, node-id order)\n"
      nodes_spec;
    2
  | Some node_addrs ->
  let addrs =
    match node_addrs with [] -> [ addr_of ~unix ~tcp ] | l -> l
  in
  let cfg =
    { Service.Loadgen.default_config with
      connections;
      ops_per_connection = ops;
      pipeline;
      read_permille;
      add_permille;
      add_delta;
      zipf_s = zipf;
      seed;
      workers;
      ramp_conns_per_tick = ramp;
      poller;
      replicas;
      max_reconnects }
  in
  let cfg =
    match targets with [] -> cfg | ts -> { cfg with targets = ts }
  in
  if connections < 1 || ops < 1 || pipeline < 1 || read_permille < 0
     || read_permille > 1000 || add_delta < 0 || workers < 0 || ramp < 0
     || replicas < 1 || max_reconnects < 0
  then begin
    prerr_endline "loadgen: connections/ops/pipeline/replicas must be \
                   positive, read-permille in 0..1000 and workers/ramp/\
                   add-delta/max-reconnects >= 0";
    2
  end
  else if not (Float.is_finite zipf) || zipf < 0.0 then begin
    prerr_endline "loadgen: --zipf must be a finite exponent >= 0";
    2
  end
  else if not (check_poller "loadgen" poller) then 2
  else begin
    match Service.Loadgen.run ~addrs cfg with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "loadgen: cannot reach the service: %s\n"
        (Unix.error_message e);
      1
    | r ->
    let open Service.Loadgen in
    if json then begin
      (* The name-intern counters live server-side: fetch STATS once
         after the run so the JSON record carries the cache's hit rate
         next to the client-side throughput it helped produce. -1 =
         the post-run fetch failed (server already gone). *)
      let scrape =
        match Service.Client.connect (List.hd addrs) with
        | exception Unix.Unix_error _ -> fun _ -> -1
        | client ->
          let stats =
            try Service.Client.stats_json client with Failure _ -> ""
          in
          Service.Client.close client;
          fun key -> Option.value (scan_json_int stats key) ~default:(-1)
      in
      let intern_hits = scrape "intern_hits"
      and intern_misses = scrape "intern_misses"
      (* Peer-bandwidth aggregates (comms bench): -1 when the
         post-run STATS fetch failed or the server predates them. *)
      and gossip_bytes_sent = scrape "gossip_bytes_sent"
      and gossip_digest_rounds = scrape "gossip_digest_rounds"
      and gossip_repair_objects = scrape "gossip_repair_objects" in
      let module J = Mcore.Bench_json in
      print_endline
        (J.to_string
           (J.Obj
              [ ("connections", J.Int connections);
                ("ops_per_connection", J.Int ops);
                ("pipeline", J.Int pipeline);
                ("zipf_s", J.Float zipf);
                ("ok", J.Int r.ok);
                ("busy", J.Int r.busy);
                ("errors", J.Int r.errors);
                ("reconnects", J.Int r.reconnects);
                ("elapsed_s", J.Float r.elapsed_s);
                ("ops_per_sec", J.Float r.ops_per_sec);
                ("p50_ns", J.Int r.p50_ns);
                ("p95_ns", J.Int r.p95_ns);
                ("p99_ns", J.Int r.p99_ns);
                ("max_ns", J.Int r.max_ns);
                ("intern_hits", J.Int intern_hits);
                ("intern_misses", J.Int intern_misses);
                ("gossip_bytes_sent", J.Int gossip_bytes_sent);
                ("gossip_digest_rounds", J.Int gossip_digest_rounds);
                ("gossip_repair_objects", J.Int gossip_repair_objects) ]))
    end
    else begin
      Printf.printf
        "loadgen: %d conn x %d ops (window %d): %d ok, %d busy, %d errors, \
         %d reconnects\n"
        connections ops pipeline r.ok r.busy r.errors r.reconnects;
      Printf.printf
        "throughput %.0f ops/s, latency p50 %d ns, p95 %d ns, p99 %d ns, \
         max %d ns\n"
        r.ops_per_sec r.p50_ns r.p95_ns r.p99_ns r.max_ns
    end;
    if r.errors > 0 then 1
    else
      let floor_failed =
        match min_throughput with
        | Some floor when r.ops_per_sec < floor ->
          Printf.eprintf
            "loadgen: throughput floor FAILED: %.0f < %.0f ops/s\n"
            r.ops_per_sec floor;
          true
        | _ -> false
      in
      let slo_failed =
        match slo_p99_us with
        | Some budget_us when r.p99_ns > budget_us * 1000 ->
          Printf.eprintf
            "loadgen: p99 SLO FAILED: %d ns > %d us\n" r.p99_ns budget_us;
          true
        | _ -> false
      in
      if floor_failed || slo_failed then 1 else 0
  end

let loadgen_cmd =
  let connections_arg =
    Arg.(value & opt int 4
         & info [ "connections" ] ~docv:"C" ~doc:"Client connections (domains).")
  in
  let ops_arg =
    Arg.(value & opt int 10_000
         & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per connection.")
  in
  let pipeline_arg =
    Arg.(value & opt int 8
         & info [ "pipeline" ] ~docv:"W"
             ~doc:"In-flight request window per connection.")
  in
  let rp_arg =
    Arg.(value & opt int 200
         & info [ "read-permille" ] ~docv:"RP"
             ~doc:"Reads per 1000 operations; the rest increment. \
                   Overridden by $(b,--mix).")
  in
  let mix_arg =
    Arg.(value & opt (some string) None
         & info [ "mix" ] ~docv:"R:I:A"
             ~doc:"Relative read:inc:add weights, normalized to permille \
                   (e.g. $(b,8:1:1) is 800 reads, 100 unit INCs and 100 \
                   bulk ADDs per 1000 ops). Takes precedence over \
                   $(b,--read-permille).")
  in
  let add_delta_arg =
    Arg.(value & opt int 16
         & info [ "add-delta" ] ~docv:"D"
             ~doc:"Delta carried by each bulk ADD issued via $(b,--mix).")
  in
  let targets_arg =
    Arg.(value & opt (list string) []
         & info [ "targets" ] ~docv:"NAME,..."
             ~doc:"Counter objects to drive (default c0,c1,c2,c3).")
  in
  let zipf_arg =
    Arg.(value & opt float 0.0
         & info [ "zipf" ] ~docv:"S"
             ~doc:"Zipf exponent for target popularity: 0 (default) picks \
                   targets uniformly; $(docv) > 0 skews the seeded draw so \
                   the first target is the hot key ($(b,1.0) is classic \
                   Zipf, larger is hotter).")
  in
  let min_throughput_arg =
    Arg.(value & opt (some float) None
         & info [ "min-throughput" ] ~docv:"OPS_PER_SEC"
             ~doc:"Exit 1 unless the measured throughput reaches $(docv) \
                   — the CI regression probe against a committed BENCH \
                   record.")
  in
  let slo_p99_arg =
    Arg.(value & opt (some int) None
         & info [ "slo-p99-us" ] ~docv:"US"
             ~doc:"Exit 1 when the measured p99 latency exceeds $(docv) \
                   microseconds — a latency SLO gate for scripted runs.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the result as a JSON object on stdout instead of \
                   the two-line summary.")
  in
  let workers_arg =
    Arg.(value & opt int 0
         & info [ "client-workers" ] ~docv:"W"
             ~doc:"Multiplexer domains driving the connections (0 = \
                   min(connections, 4)).")
  in
  let ramp_arg =
    Arg.(value & opt int 0
         & info [ "ramp-conns-per-tick" ] ~docv:"R"
             ~doc:"Pace connection establishment: at most $(docv) new \
                   connections per ~1ms tick across all workers (0 = \
                   connect as fast as possible).")
  in
  let nodes_arg =
    Arg.(value & opt string ""
         & info [ "nodes" ] ~docv:"ADDR,..."
             ~doc:"Cluster node addresses in node-id order \
                   ($(b,HOST:PORT) or $(b,UNIX_PATH)); overrides \
                   $(b,--unix)/$(b,--tcp) and enables placement-aware \
                   routing with failover.")
  in
  let replicas_arg =
    Arg.(value & opt int 1
         & info [ "replicas" ] ~docv:"R"
             ~doc:"The cluster's replica count — must match the servers' \
                   so the derived placement ring is identical.")
  in
  let max_reconnects_arg =
    Arg.(value & opt int 0
         & info [ "max-reconnects" ] ~docv:"N"
             ~doc:"Transport-failure reconnects allowed per connection \
                   before it counts as an error (failing over across \
                   nodes in cluster mode).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Run the closed-loop load generator against a running \
             service and report throughput and latency percentiles")
    Term.(const run_loadgen $ unix_arg $ tcp_arg $ connections_arg $ ops_arg
          $ pipeline_arg $ rp_arg $ mix_arg $ add_delta_arg $ targets_arg
          $ zipf_arg $ seed_arg $ workers_arg $ ramp_arg $ poller_arg
          $ min_throughput_arg $ slo_p99_arg $ nodes_arg $ replicas_arg
          $ max_reconnects_arg $ json_arg)

let run_stats unix tcp =
  match Service.Client.connect (addr_of ~unix ~tcp) with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "stats: cannot reach the service: %s\n"
      (Unix.error_message e);
    1
  | client -> (
    match Service.Client.stats_json client with
    | json ->
      Service.Client.close client;
      print_string json;
      0
    | exception Failure _ ->
      Service.Client.close client;
      prerr_endline "stats: the server refused STATS";
      1)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Fetch a running service's metrics registry (op counters, \
             latency histograms, accuracy self-checks) as JSON")
    Term.(const run_stats $ unix_arg $ tcp_arg)

(* ------------------------------------------------------------------ *)

let commands =
  [ counter_cmd; maxreg_cmd; lincheck_cmd; awareness_cmd; perturb_cmd;
    explore_cmd; backends_cmd; serve_cmd; loadgen_cmd; stats_cmd ]

let usage_to_stderr () =
  prerr_endline "usage: approx_cli COMMAND [OPTION]...";
  prerr_endline "commands:";
  List.iter
    (fun cmd -> Printf.eprintf "  %s\n" (Cmd.name cmd))
    commands;
  prerr_endline "run 'approx_cli COMMAND --help' for details"

let () =
  (* A dead server end must surface as EPIPE on the write (loadgen
     reconnects, one-shot clients report the error) — not kill the
     process. Signal disposition is process-global state, so it is set
     here at the binary entry; the library modules never touch it. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* An unknown (or missing) subcommand prints usage to stderr and
     exits 2 — not cmdliner's generic CLI-error status. Unambiguous
     command prefixes still reach cmdliner's own resolution. *)
  let known name =
    List.exists
      (fun cmd -> String.starts_with ~prefix:name (Cmd.name cmd))
      commands
  in
  let bad_invocation =
    if Array.length Sys.argv < 2 then true
    else
      let a = Sys.argv.(1) in
      String.length a > 0 && a.[0] <> '-' && not (known a)
  in
  if bad_invocation then begin
    (if Array.length Sys.argv >= 2 then
       Printf.eprintf "approx_cli: unknown command '%s'\n" Sys.argv.(1)
     else prerr_endline "approx_cli: missing command");
    usage_to_stderr ();
    exit 2
  end;
  let doc = "deterministic approximate objects (ICDCS 2021) playground" in
  let info = Cmd.info "approx_cli" ~version:"1.21.0" ~doc in
  exit (Cmd.eval' (Cmd.group info commands))
