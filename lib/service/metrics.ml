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
  (* Registration order in [objs.(0 .. n_objs - 1)]; grown (doubling)
     in the build phase only, so readers index it without a lock. *)
  mutable objs : obj array;
  mutable n_objs : int;
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
    objs = [||];
    n_objs = 0 }

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
  if t.n_objs = Array.length t.objs then begin
    let grown = Array.make (max 16 (2 * t.n_objs)) o in
    Array.blit t.objs 0 grown 0 t.n_objs;
    t.objs <- grown
  end;
  t.objs.(t.n_objs) <- o;
  t.n_objs <- t.n_objs + 1;
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
let objects t = Array.to_list (Array.sub t.objs 0 t.n_objs)

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

let sum_objs t f =
  let acc = ref 0 in
  for i = 0 to t.n_objs - 1 do
    acc := !acc + f t.objs.(i)
  done;
  !acc

let total_ops t = sum_objs t (fun o -> o.incs + o.adds + o.reads + o.writes)
let acc_violations_total t = sum_objs t (fun o -> o.acc_violations)

(* ------------------------------------------------------------------ *)
(* STATS: one-line JSON streamed into the reply buffer                 *)
(* ------------------------------------------------------------------ *)

(* The writer appends straight into the connection's [Obuf]: no JSON
   tree, no staging buffer, no string copy. Keys are literals that
   need no escaping; strings and floats render exactly as the
   repository's BENCH records do, on one line, with ["key": value]
   members separated by a bare comma. Every helper is a top-level
   function of the buffer, so writing an object stanza allocates
   nothing. *)

(* A member or list item is preceded by a comma unless it is the
   first one, i.e. unless the byte before it opens its container. *)
let comma ob =
  let n = Obuf.length ob in
  if n > 0 then
    match Bytes.unsafe_get (Obuf.bytes ob) (n - 1) with
    | '{' | '[' -> ()
    | _ -> Obuf.add_u8 ob (Char.code ',')

let key ob k =
  comma ob;
  Obuf.add_u8 ob (Char.code '"');
  Obuf.add_string ob k;
  Obuf.add_string ob "\": "

let rec add_digits ob n =
  if n >= 10 then add_digits ob (n / 10);
  Obuf.add_u8 ob (48 + (n mod 10))

(* [string_of_int], in place; [min_int] has no positive twin, so a
   negative value peels its last digit before negating. *)
let add_int ob n =
  if n >= 0 then add_digits ob n
  else begin
    Obuf.add_u8 ob (Char.code '-');
    let q = -(n / 10) in
    if q > 0 then add_digits ob q;
    Obuf.add_u8 ob (48 - (n mod 10))
  end

let hex = "0123456789abcdef"

(* Quote, backslash and newline get their short escapes, every other
   control byte [\u00XX]; all other bytes are copied raw. *)
let add_str ob s =
  Obuf.add_u8 ob (Char.code '"');
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Obuf.add_string ob "\\\""
    | '\\' -> Obuf.add_string ob "\\\\"
    | '\n' -> Obuf.add_string ob "\\n"
    | c when Char.code c < 32 ->
      Obuf.add_string ob "\\u00";
      Obuf.add_u8 ob (Char.code hex.[Char.code c lsr 4]);
      Obuf.add_u8 ob (Char.code hex.[Char.code c land 15])
    | c -> Obuf.add_u8 ob (Char.code c)
  done;
  Obuf.add_u8 ob (Char.code '"')

(* [null] when not finite, [%.1f] when integral below 1e15 (digits in
   place), [%.6g] otherwise. Only a histogram's mean is a float, so the
   [%.6g] branch formats at most one short string per histogram,
   whatever the table size. *)
let add_float ob f =
  if not (Float.is_finite f) then Obuf.add_string ob "null"
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    let i = Float.to_int f in
    if i = 0 && Float.sign_bit f then Obuf.add_u8 ob (Char.code '-');
    add_int ob i;
    Obuf.add_string ob ".0"
  end
  else Obuf.add_string ob (Printf.sprintf "%.6g" f)

let int_field ob k v =
  key ob k;
  add_int ob v

let str_field ob k v =
  key ob k;
  add_str ob v

let bool_field ob k v =
  key ob k;
  Obuf.add_string ob (if v then "true" else "false")

let punct ob c = Obuf.add_u8 ob (Char.code c)

let hist_field ob k h =
  key ob k;
  punct ob '{';
  let n = Histogram.count h in
  int_field ob "count" n;
  int_field ob "sum" (Histogram.sum h);
  key ob "mean";
  if n = 0 then Obuf.add_string ob "null"
  else add_float ob (float_of_int (Histogram.sum h) /. float_of_int n);
  int_field ob "p50" (Histogram.percentile h 0.5);
  int_field ob "p90" (Histogram.percentile h 0.9);
  int_field ob "p99" (Histogram.percentile h 0.99);
  int_field ob "max" (Histogram.max_value h);
  key ob "buckets";
  punct ob '[';
  for i = 0 to Histogram.buckets - 1 do
    let c = Histogram.bucket_count h i in
    if c > 0 then begin
      comma ob;
      punct ob '{';
      int_field ob "lo" (Histogram.bucket_lo i);
      int_field ob "hi" (Histogram.bucket_hi i);
      int_field ob "count" c;
      punct ob '}'
    end
  done;
  punct ob ']';
  punct ob '}'

let add_obj_json ob o =
  comma ob;
  punct ob '{';
  str_field ob "name" o.o_name;
  str_field ob "kind" o.o_kind;
  int_field ob "shard" o.o_shard;
  int_field ob "k" o.o_k;
  int_field ob "incs" o.incs;
  int_field ob "adds" o.adds;
  int_field ob "reads" o.reads;
  int_field ob "writes" o.writes;
  int_field ob "rejects" o.rejects;
  int_field ob "acc_checks" o.acc_checks;
  int_field ob "acc_violations" o.acc_violations;
  int_field ob "last_served" o.last_served;
  int_field ob "last_exact" o.last_exact;
  int_field ob "batch_read_hits" o.batch_read_hits;
  int_field ob "cache_hits" o.cache_hits;
  int_field ob "cache_misses" o.cache_misses;
  int_field ob "repl_own_total" o.repl_own_total;
  int_field ob "repl_known" o.repl_known;
  bool_field ob "repl_recovering" o.repl_recovering;
  punct ob '}'

let add_shard_json ob s =
  comma ob;
  punct ob '{';
  int_field ob "shard" s.s_shard;
  int_field ob "tasks" s.tasks;
  int_field ob "batches" s.batches;
  int_field ob "max_batch" s.max_batch;
  int_field ob "fused_applies" s.fused_applies;
  int_field ob "deferred_ops" s.deferred_ops;
  int_field ob "merge_tasks" s.merge_tasks;
  int_field ob "boundary_kicks" s.boundary_kicks;
  hist_field ob "fused_per_drain" s.s_fused;
  hist_field ob "latency_ns" s.s_latency;
  punct ob '}'

let add_io_loop_json ob l =
  comma ob;
  punct ob '{';
  int_field ob "loop" l.l_loop;
  str_field ob "poller" l.l_poller;
  int_field ob "accepted" l.l_accepted;
  int_field ob "closed" l.l_closed;
  int_field ob "protocol_errors" l.l_protocol_errors;
  int_field ob "oversized_frames" l.l_oversized_frames;
  int_field ob "stats_requests" l.l_stats_requests;
  int_field ob "wakeups" l.l_wakeups;
  int_field ob "cycles" l.l_cycles;
  int_field ob "owned_conns" l.l_owned_conns;
  int_field ob "max_ready_batch" l.l_max_ready_batch;
  int_field ob "spin_polls" l.l_spin_polls;
  int_field ob "spin_hits" l.l_spin_hits;
  int_field ob "poller_rejects" l.l_poller_rejects;
  int_field ob "hellos" l.l_hellos;
  int_field ob "hello_rejects" l.l_hello_rejects;
  int_field ob "gossip_frames" l.l_gossip_frames;
  int_field ob "gossip_entries" l.l_gossip_entries;
  int_field ob "digest_frames" l.l_digest_frames;
  int_field ob "digest_mismatches" l.l_digest_mismatches;
  int_field ob "intern_hits" l.l_intern_hits;
  int_field ob "intern_misses" l.l_intern_misses;
  hist_field ob "cycle_ns" l.l_cycle_ns;
  hist_field ob "flush_bytes" l.l_flush_bytes;
  hist_field ob "read_batch" l.l_read_batch;
  punct ob '}'

let merged_read_batch t =
  let h = Histogram.create () in
  Array.iter (fun l -> Histogram.merge ~into:h l.l_read_batch) t.io_loops;
  h

(* Room kept for the tail (the list's close, the omitted count and the
   closing brace and newline), whatever the count. *)
let tail_room = 64

(* Typical stanza sizes, behind the single up-front [Obuf.reserve].
   At the cap the reserve also covers the one object stanza that is
   written past the limit and cut back out (at most ~2.2 KB: a 255-byte
   name escaped six-fold plus 17 integers), so a full reply never
   regrows the buffer. *)
let obj_stanza_estimate = 320
let fixed_stanza_estimate = 8192
let obj_stanza_max = 4096

let add_json t ob ~max_len =
  let start = Obuf.length ob in
  Obuf.reserve ob
    (min (max_len + obj_stanza_max)
       (fixed_stanza_estimate
        * (1 + Array.length t.io_loops + Array.length t.shards)
        + (obj_stanza_estimate * t.n_objs)));
  punct ob '{';
  key ob "server";
  punct ob '{';
  int_field ob "connections_accepted" (accepted t);
  int_field ob "connections_closed" (closed t);
  int_field ob "protocol_errors" (protocol_errors t);
  int_field ob "oversized_frames" (oversized_frames t);
  int_field ob "stats_requests" (stats_requests t);
  int_field ob "io_domains" (Array.length t.io_loops);
  int_field ob "poller_rejects" (poller_rejects t);
  int_field ob "max_ready_batch" (max_ready_batch t);
  int_field ob "spin_polls" (spin_polls t);
  int_field ob "spin_hits" (spin_hits t);
  int_field ob "intern_hits" (intern_hits t);
  int_field ob "intern_misses" (intern_misses t);
  int_field ob "total_ops" (total_ops t);
  int_field ob "acc_violations_total" (acc_violations_total t);
  punct ob '}';
  let c = t.cluster in
  key ob "cluster";
  punct ob '{';
  int_field ob "node_id" c.c_node_id;
  int_field ob "nodes" c.c_nodes;
  int_field ob "replicas" c.c_replicas;
  int_field ob "gossip_interval_ms" c.c_gossip_interval_ms;
  int_field ob "k_staleness" c.c_k_staleness;
  int_field ob "gossip_frames_sent" c.g_frames_sent;
  int_field ob "gossip_entries_sent" c.g_entries_sent;
  int_field ob "gossip_send_failures" c.g_send_failures;
  int_field ob "gossip_rounds" c.g_rounds;
  int_field ob "peer_reconnects" c.g_peer_reconnects;
  int_field ob "gossip_bytes_sent" (gossip_bytes_sent t);
  int_field ob "gossip_digest_rounds" (gossip_digest_rounds t);
  int_field ob "gossip_repair_objects" (gossip_repair_objects t);
  int_field ob "gossip_frames_received" (gossip_frames_received t);
  int_field ob "gossip_entries_merged" (gossip_entries_merged t);
  int_field ob "digest_frames_received" (digest_frames_received t);
  int_field ob "digest_mismatches" (digest_mismatches t);
  int_field ob "merge_tasks" (merge_tasks t);
  int_field ob "boundary_kicks" (boundary_kicks t);
  int_field ob "hellos" (hellos t);
  int_field ob "hello_rejects" (hello_rejects t);
  key ob "peers";
  punct ob '[';
  List.iter
    (fun pl ->
      comma ob;
      punct ob '{';
      int_field ob "node" pl.pl_node;
      int_field ob "bytes_sent" pl.pl_bytes_sent;
      int_field ob "digest_rounds" pl.pl_digest_rounds;
      int_field ob "repair_objects" pl.pl_repair_objects;
      punct ob '}')
    c.c_peers;
  punct ob ']';
  punct ob '}';
  let d = t.durability in
  key ob "durability";
  punct ob '{';
  bool_field ob "enabled" d.d_enabled;
  str_field ob "fsync_policy" d.d_fsync_policy;
  int_field ob "wal_appends" d.d_wal_appends;
  int_field ob "wal_bytes" d.d_wal_bytes;
  int_field ob "wal_flushes" d.d_wal_flushes;
  int_field ob "fsyncs" d.d_fsyncs;
  int_field ob "fsyncs_deferred" d.d_fsyncs_deferred;
  int_field ob "fsync_records_covered" d.d_fsync_records_covered;
  int_field ob "fsync_errors" d.d_fsync_errors;
  int_field ob "snapshots" d.d_snapshots;
  int_field ob "snapshot_errors" d.d_snapshot_errors;
  int_field ob "wal_truncations" d.d_wal_truncations;
  int_field ob "recovery_replayed_records" d.d_recovery_replayed_records;
  bool_field ob "recovery_snapshot_loaded" d.d_recovery_snapshot_loaded;
  int_field ob "torn_tail_truncated" d.d_torn_tail_truncated;
  punct ob '}';
  hist_field ob "read_batch" (merged_read_batch t);
  key ob "io_loops";
  punct ob '[';
  Array.iter (add_io_loop_json ob) t.io_loops;
  punct ob ']';
  key ob "shards";
  punct ob '[';
  Array.iter (add_shard_json ob) t.shards;
  punct ob ']';
  (* Objects in table order while the next stanza still leaves room
     for the tail under [max_len]; the first one that would not is
     cut back out and it and every later one are only counted. *)
  key ob "objects";
  punct ob '[';
  let limit = start + max_len - tail_room in
  let listed = ref 0 and full = ref false in
  while (not !full) && !listed < t.n_objs do
    let mark = Obuf.length ob in
    add_obj_json ob t.objs.(!listed);
    if Obuf.length ob > limit then begin
      Obuf.truncate ob mark;
      full := true
    end
    else incr listed
  done;
  punct ob ']';
  int_field ob "objects_omitted" (t.n_objs - !listed);
  punct ob '}';
  punct ob '\n'
