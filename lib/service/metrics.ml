module J = Mcore.Bench_json

type obj = {
  o_name : string;
  o_kind : string;
  o_shard : int;
  o_k : int;
  mutable incs : int;
  mutable adds : int;
  mutable reads : int;
  mutable writes : int;
  mutable rejects : int;
  mutable acc_checks : int;
  mutable acc_violations : int;
  mutable last_served : int;
  mutable last_exact : int;
  mutable batch_read_hits : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable repl_own_total : int;
  mutable repl_known : int;
  mutable repl_recovering : bool;  (* restart-base recovery window open *)
}

type shard = {
  s_shard : int;
  mutable tasks : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable fused_applies : int;
  mutable deferred_ops : int;
  mutable merge_tasks : int;
  mutable boundary_kicks : int;
  s_fused : Histogram.t;
  s_latency : Histogram.t;
}

(* One padded record per I/O event loop; every field is written only
   by its owning loop domain. Connection-level counters that used to
   be "the io domain's" are per-loop now (a connection is closed by
   whichever loop owns it) and exposed as sums. *)
type io_loop = {
  l_loop : int;
  mutable l_poller : string;  (* active backend, set when the loop starts *)
  mutable l_accepted : int;  (* bumped by the accepting loop (loop 0) *)
  mutable l_closed : int;
  mutable l_protocol_errors : int;
  mutable l_oversized_frames : int;
  mutable l_stats_requests : int;
  mutable l_wakeups : int;
  mutable l_cycles : int;
  mutable l_owned_conns : int;
  mutable l_max_ready_batch : int;  (* peak ready slots in one wait *)
  mutable l_spin_polls : int;  (* zero-timeout waits issued *)
  mutable l_spin_hits : int;  (* ... that returned ready events *)
  mutable l_poller_rejects : int;  (* conns refused by Backend_limit *)
  mutable l_hellos : int;  (* accepted handshakes *)
  mutable l_hello_rejects : int;  (* Bad_version / missing HELLO closes *)
  mutable l_gossip_frames : int;  (* inbound GOSSIP2 frames *)
  mutable l_gossip_entries : int;  (* entries routed to shards *)
  mutable l_digest_frames : int;  (* inbound DIGEST frames *)
  mutable l_digest_mismatches : int;  (* digest entries flagged diverged *)
  mutable l_intern_hits : int;  (* object ops resolved from the conn cache *)
  mutable l_intern_misses : int;  (* object ops that walked the name table *)
  l_cycle_ns : Histogram.t;
  l_flush_bytes : Histogram.t;
  l_read_batch : Histogram.t;
}

(* Per-peer bandwidth accounting on the sender side; every field is
   written only by the single gossip domain. *)
type peer_link = {
  pl_node : int;
  mutable pl_bytes_sent : int;
  mutable pl_digest_rounds : int;
  mutable pl_repair_objects : int;
}

(* The gossip-sender side of the replication plane: static topology
   plus counters written only by the single gossip domain. *)
type cluster = {
  c_node_id : int;
  c_nodes : int;
  c_replicas : int;
  c_gossip_interval_ms : int;
  c_k_staleness : int;
  mutable g_frames_sent : int;
  mutable g_entries_sent : int;
  mutable g_send_failures : int;
  mutable g_peer_reconnects : int;
  mutable g_rounds : int;
  mutable c_peers : peer_link list;  (* gossip-start registration order *)
}

(* The durability plane: recovery facts are set once at startup; the
   live WAL counters are refreshed from [Wal.stats] by whoever serves
   STATS (and by the snapshot domain after each snapshot), so the
   record is a mirror, not the source of truth. *)
type durability = {
  mutable d_enabled : bool;
  mutable d_fsync_policy : string;
  mutable d_wal_appends : int;
  mutable d_wal_bytes : int;
  mutable d_wal_flushes : int;
  mutable d_fsyncs : int;
  mutable d_fsyncs_deferred : int;  (* flushes that left records unsynced *)
  mutable d_fsync_records_covered : int;  (* records made durable by fsyncs *)
  mutable d_fsync_errors : int;  (* fsync calls that failed *)
  mutable d_snapshots : int;
  mutable d_snapshot_errors : int;  (* snapshot ticks that raised *)
  mutable d_wal_truncations : int;
  mutable d_recovery_replayed_records : int;
  mutable d_recovery_snapshot_loaded : bool;
  mutable d_torn_tail_truncated : int;
}

type t = {
  shards : shard array;
  io_loops : io_loop array;
  cluster : cluster;
  durability : durability;
  mutable objs : obj list;  (* reversed registration order; build phase only *)
}

let create ?(node_id = 0) ?(nodes = 1) ?(replicas = 1)
    ?(gossip_interval_ms = 0) ?(k_staleness = 1) ~shards ~io_domains () =
  if shards < 1 then invalid_arg "Metrics.create: shards < 1";
  if io_domains < 1 then invalid_arg "Metrics.create: io_domains < 1";
  { shards =
      Array.init shards (fun s ->
          Backend.Padded.copy
            { s_shard = s;
              tasks = 0;
              batches = 0;
              max_batch = 0;
              fused_applies = 0;
              deferred_ops = 0;
              merge_tasks = 0;
              boundary_kicks = 0;
              s_fused = Histogram.create ();
              s_latency = Histogram.create () });
    cluster =
      Backend.Padded.copy
        { c_node_id = node_id;
          c_nodes = nodes;
          c_replicas = replicas;
          c_gossip_interval_ms = gossip_interval_ms;
          c_k_staleness = k_staleness;
          g_frames_sent = 0;
          g_entries_sent = 0;
          g_send_failures = 0;
          g_peer_reconnects = 0;
          g_rounds = 0;
          c_peers = [] };
    durability =
      Backend.Padded.copy
        { d_enabled = false;
          d_fsync_policy = "";
          d_wal_appends = 0;
          d_wal_bytes = 0;
          d_wal_flushes = 0;
          d_fsyncs = 0;
          d_fsyncs_deferred = 0;
          d_fsync_records_covered = 0;
          d_fsync_errors = 0;
          d_snapshots = 0;
          d_snapshot_errors = 0;
          d_wal_truncations = 0;
          d_recovery_replayed_records = 0;
          d_recovery_snapshot_loaded = false;
          d_torn_tail_truncated = 0 };
    io_loops =
      Array.init io_domains (fun l ->
          Backend.Padded.copy
            { l_loop = l;
              l_poller = "";
              l_accepted = 0;
              l_closed = 0;
              l_protocol_errors = 0;
              l_oversized_frames = 0;
              l_stats_requests = 0;
              l_wakeups = 0;
              l_cycles = 0;
              l_owned_conns = 0;
              l_max_ready_batch = 0;
              l_spin_polls = 0;
              l_spin_hits = 0;
              l_poller_rejects = 0;
              l_hellos = 0;
              l_hello_rejects = 0;
              l_gossip_frames = 0;
              l_gossip_entries = 0;
              l_digest_frames = 0;
              l_digest_mismatches = 0;
              l_intern_hits = 0;
              l_intern_misses = 0;
              l_cycle_ns = Histogram.create ();
              l_flush_bytes = Histogram.create ();
              l_read_batch = Histogram.create () });
    objs = [] }

let add_obj t ~name ~kind ~k ~shard =
  let o =
    Backend.Padded.copy
      { o_name = name;
        o_kind = kind;
        o_shard = shard;
        o_k = k;
        incs = 0;
        adds = 0;
        reads = 0;
        writes = 0;
        rejects = 0;
        acc_checks = 0;
        acc_violations = 0;
        last_served = 0;
        last_exact = 0;
        batch_read_hits = 0;
        cache_hits = 0;
        cache_misses = 0;
        repl_own_total = 0;
        repl_known = 0;
        repl_recovering = false }
  in
  t.objs <- o :: t.objs;
  o

(* Gossip-start registration (before the sender domain spawns): one
   padded link per configured peer. *)
let add_peer t ~node =
  let pl =
    Backend.Padded.copy
      { pl_node = node;
        pl_bytes_sent = 0;
        pl_digest_rounds = 0;
        pl_repair_objects = 0 }
  in
  t.cluster.c_peers <- t.cluster.c_peers @ [ pl ];
  pl

let sum_peers t f =
  List.fold_left (fun acc pl -> acc + f pl) 0 t.cluster.c_peers

let gossip_bytes_sent t = sum_peers t (fun pl -> pl.pl_bytes_sent)
let gossip_digest_rounds t = sum_peers t (fun pl -> pl.pl_digest_rounds)
let gossip_repair_objects t = sum_peers t (fun pl -> pl.pl_repair_objects)

let shard t s = t.shards.(s)
let cluster t = t.cluster
let durability t = t.durability
let io_loop t l = t.io_loops.(l)
let io_domains t = Array.length t.io_loops
let objects t = List.rev t.objs

let sum_loops t f = Array.fold_left (fun acc l -> acc + f l) 0 t.io_loops

let accepted t = sum_loops t (fun l -> l.l_accepted)
let closed t = sum_loops t (fun l -> l.l_closed)
let protocol_errors t = sum_loops t (fun l -> l.l_protocol_errors)
let oversized_frames t = sum_loops t (fun l -> l.l_oversized_frames)
let stats_requests t = sum_loops t (fun l -> l.l_stats_requests)
let owned_conns t = sum_loops t (fun l -> l.l_owned_conns)
let poller_rejects t = sum_loops t (fun l -> l.l_poller_rejects)
let hellos t = sum_loops t (fun l -> l.l_hellos)
let hello_rejects t = sum_loops t (fun l -> l.l_hello_rejects)
let gossip_frames_received t = sum_loops t (fun l -> l.l_gossip_frames)
let gossip_entries_merged t = sum_loops t (fun l -> l.l_gossip_entries)
let digest_frames_received t = sum_loops t (fun l -> l.l_digest_frames)
let digest_mismatches t = sum_loops t (fun l -> l.l_digest_mismatches)
let intern_hits t = sum_loops t (fun l -> l.l_intern_hits)
let intern_misses t = sum_loops t (fun l -> l.l_intern_misses)
let spin_polls t = sum_loops t (fun l -> l.l_spin_polls)
let spin_hits t = sum_loops t (fun l -> l.l_spin_hits)

let sum_shards t f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards

let merge_tasks t = sum_shards t (fun s -> s.merge_tasks)
let boundary_kicks t = sum_shards t (fun s -> s.boundary_kicks)

let max_ready_batch t =
  Array.fold_left (fun acc l -> max acc l.l_max_ready_batch) 0 t.io_loops

let total_ops t =
  List.fold_left
    (fun acc o -> acc + o.incs + o.adds + o.reads + o.writes)
    0 t.objs

let acc_violations_total t =
  List.fold_left (fun acc o -> acc + o.acc_violations) 0 t.objs

let obj_json o =
  J.Obj
    [ ("name", J.Str o.o_name);
      ("kind", J.Str o.o_kind);
      ("shard", J.Int o.o_shard);
      ("k", J.Int o.o_k);
      ("incs", J.Int o.incs);
      ("adds", J.Int o.adds);
      ("reads", J.Int o.reads);
      ("writes", J.Int o.writes);
      ("rejects", J.Int o.rejects);
      ("acc_checks", J.Int o.acc_checks);
      ("acc_violations", J.Int o.acc_violations);
      ("last_served", J.Int o.last_served);
      ("last_exact", J.Int o.last_exact);
      ("batch_read_hits", J.Int o.batch_read_hits);
      ("cache_hits", J.Int o.cache_hits);
      ("cache_misses", J.Int o.cache_misses);
      ("repl_own_total", J.Int o.repl_own_total);
      ("repl_known", J.Int o.repl_known);
      ("repl_recovering", J.Bool o.repl_recovering) ]

let shard_json s =
  J.Obj
    [ ("shard", J.Int s.s_shard);
      ("tasks", J.Int s.tasks);
      ("batches", J.Int s.batches);
      ("max_batch", J.Int s.max_batch);
      ("fused_applies", J.Int s.fused_applies);
      ("deferred_ops", J.Int s.deferred_ops);
      ("merge_tasks", J.Int s.merge_tasks);
      ("boundary_kicks", J.Int s.boundary_kicks);
      ("fused_per_drain", Histogram.to_json s.s_fused);
      ("latency_ns", Histogram.to_json s.s_latency) ]

let io_loop_json l =
  J.Obj
    [ ("loop", J.Int l.l_loop);
      ("poller", J.Str l.l_poller);
      ("accepted", J.Int l.l_accepted);
      ("closed", J.Int l.l_closed);
      ("protocol_errors", J.Int l.l_protocol_errors);
      ("oversized_frames", J.Int l.l_oversized_frames);
      ("stats_requests", J.Int l.l_stats_requests);
      ("wakeups", J.Int l.l_wakeups);
      ("cycles", J.Int l.l_cycles);
      ("owned_conns", J.Int l.l_owned_conns);
      ("max_ready_batch", J.Int l.l_max_ready_batch);
      ("spin_polls", J.Int l.l_spin_polls);
      ("spin_hits", J.Int l.l_spin_hits);
      ("poller_rejects", J.Int l.l_poller_rejects);
      ("hellos", J.Int l.l_hellos);
      ("hello_rejects", J.Int l.l_hello_rejects);
      ("gossip_frames", J.Int l.l_gossip_frames);
      ("gossip_entries", J.Int l.l_gossip_entries);
      ("digest_frames", J.Int l.l_digest_frames);
      ("digest_mismatches", J.Int l.l_digest_mismatches);
      ("intern_hits", J.Int l.l_intern_hits);
      ("intern_misses", J.Int l.l_intern_misses);
      ("cycle_ns", Histogram.to_json l.l_cycle_ns);
      ("flush_bytes", Histogram.to_json l.l_flush_bytes);
      ("read_batch", Histogram.to_json l.l_read_batch) ]

let merged_read_batch t =
  let h = Histogram.create () in
  Array.iter (fun l -> Histogram.merge ~into:h l.l_read_batch) t.io_loops;
  h

let to_json t =
  J.Obj
    [ ("server",
       J.Obj
         [ ("connections_accepted", J.Int (accepted t));
           ("connections_closed", J.Int (closed t));
           ("protocol_errors", J.Int (protocol_errors t));
           ("oversized_frames", J.Int (oversized_frames t));
           ("stats_requests", J.Int (stats_requests t));
           ("io_domains", J.Int (Array.length t.io_loops));
           ("poller_rejects", J.Int (poller_rejects t));
           ("max_ready_batch", J.Int (max_ready_batch t));
           ("spin_polls", J.Int (spin_polls t));
           ("spin_hits", J.Int (spin_hits t));
           ("intern_hits", J.Int (intern_hits t));
           ("intern_misses", J.Int (intern_misses t));
           ("total_ops", J.Int (total_ops t));
           ("acc_violations_total", J.Int (acc_violations_total t)) ]);
      ("cluster",
       (let c = t.cluster in
        J.Obj
          [ ("node_id", J.Int c.c_node_id);
            ("nodes", J.Int c.c_nodes);
            ("replicas", J.Int c.c_replicas);
            ("gossip_interval_ms", J.Int c.c_gossip_interval_ms);
            ("k_staleness", J.Int c.c_k_staleness);
            ("gossip_frames_sent", J.Int c.g_frames_sent);
            ("gossip_entries_sent", J.Int c.g_entries_sent);
            ("gossip_send_failures", J.Int c.g_send_failures);
            ("gossip_rounds", J.Int c.g_rounds);
            ("peer_reconnects", J.Int c.g_peer_reconnects);
            ("gossip_bytes_sent", J.Int (gossip_bytes_sent t));
            ("gossip_digest_rounds", J.Int (gossip_digest_rounds t));
            ("gossip_repair_objects", J.Int (gossip_repair_objects t));
            ("gossip_frames_received", J.Int (gossip_frames_received t));
            ("gossip_entries_merged", J.Int (gossip_entries_merged t));
            ("digest_frames_received", J.Int (digest_frames_received t));
            ("digest_mismatches", J.Int (digest_mismatches t));
            ("merge_tasks", J.Int (merge_tasks t));
            ("boundary_kicks", J.Int (boundary_kicks t));
            ("hellos", J.Int (hellos t));
            ("hello_rejects", J.Int (hello_rejects t));
            ("peers",
             J.List
               (List.map
                  (fun pl ->
                    J.Obj
                      [ ("node", J.Int pl.pl_node);
                        ("bytes_sent", J.Int pl.pl_bytes_sent);
                        ("digest_rounds", J.Int pl.pl_digest_rounds);
                        ("repair_objects", J.Int pl.pl_repair_objects) ])
                  c.c_peers)) ]));
      ("durability",
       (let d = t.durability in
        J.Obj
          [ ("enabled", J.Bool d.d_enabled);
            ("fsync_policy", J.Str d.d_fsync_policy);
            ("wal_appends", J.Int d.d_wal_appends);
            ("wal_bytes", J.Int d.d_wal_bytes);
            ("wal_flushes", J.Int d.d_wal_flushes);
            ("fsyncs", J.Int d.d_fsyncs);
            ("fsyncs_deferred", J.Int d.d_fsyncs_deferred);
            ("fsync_records_covered", J.Int d.d_fsync_records_covered);
            ("fsync_errors", J.Int d.d_fsync_errors);
            ("snapshots", J.Int d.d_snapshots);
            ("snapshot_errors", J.Int d.d_snapshot_errors);
            ("wal_truncations", J.Int d.d_wal_truncations);
            ("recovery_replayed_records", J.Int d.d_recovery_replayed_records);
            ("recovery_snapshot_loaded", J.Bool d.d_recovery_snapshot_loaded);
            ("torn_tail_truncated", J.Int d.d_torn_tail_truncated) ]));
      ("read_batch", Histogram.to_json (merged_read_batch t));
      ("io_loops", J.List (Array.to_list (Array.map io_loop_json t.io_loops)));
      ("shards", J.List (Array.to_list (Array.map shard_json t.shards)));
      ("objects", J.List (List.map obj_json (objects t))) ]
