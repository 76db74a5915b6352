type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  shards : int;
  io_domains : int;
  max_batch : int;
  max_conns : int;
  poller : Poller.choice;
  specs : Objects.spec list;
  node_id : int;
  nodes : int;
  replicas : int;
  gossip_interval_ms : int;
  k_staleness : int;
  digest_interval_ticks : int;
      (* anti-entropy cadence: a DIGEST sweep every this many gossip
         ticks (plus one on every (re)connect) *)
  peers : (int * listen) list;
  data_dir : string option;
  fsync : Persist.Wal.fsync_policy;
  snapshot_interval_ms : int;
}

let default_config =
  { shards = 2;
    io_domains = 1;
    max_batch = 64;
    max_conns = 1024;
    poller = Poller.Auto;
    specs = Objects.default_specs ~counters:4 ~k:4;
    node_id = 0;
    nodes = 1;
    replicas = 1;
    gossip_interval_ms = 50;
    k_staleness = 2;
    digest_interval_ticks = 32;
    peers = [];
    data_dir = None;
    fsync = Persist.Wal.Never;
    snapshot_interval_ms = 1000 }

(* A shard is what Algorithm 1 needs of a process: a pid (the shard
   index; [n = shards]) and a lock that serializes that pid's ops, so
   each object — owned by exactly one shard — keeps a serial history
   whichever I/O loop runs its ops. [sh_stamp] counts the shard's
   drains (the [Objects.batch_read] memo key) and [sh_stats] its
   counters; both are touched only under [sh_mu]. *)
type shard = {
  sh_id : int;
  sh_mu : Mutex.t;
  sh_stats : Metrics.shard;
  mutable sh_stamp : int;
}

(* Until HELLO lands a connection is [Pending]: any other frame is a
   handshake violation. The negotiated role picks the inbound frame
   cap (peers may ship ~1 MiB gossip frames, so [c_in] grows on
   demand) and gates GOSSIP2/DIGEST. *)
type conn_role = Pending | Client_role | Peer_role

(* Object ops parked in a batch until the cycle runs it. [Reject] and
   [Done] are phase-1 outcomes: a rejection still owes a reply, a
   finished merge/echo owes none. *)
type op = Inc | Add | Read | Write | Merge | Echo | Reject | Done

(* Every field of a connection belongs to its owning I/O loop: the
   loop parses its requests, runs them and encodes every reply, so the
   output path is plain loop-local state. [c_out] holds encoded
   replies, [c_out_off] how much of it the socket has taken. *)
type conn = {
  c_fd : Unix.file_descr;
  mutable c_in : Bytes.t;
  mutable c_in_len : int;
  mutable c_role : conn_role;
  mutable c_close_after_flush : bool;
      (* set with the BAD_VERSION reply: drain the buffer, then close *)
  c_out : Obuf.t;
  mutable c_out_off : int;
  mutable c_queued : bool;  (* on [l_outq] *)
  mutable c_alive : bool;
  mutable c_slot : int;  (* poller slot in the home loop; -1 = unregistered *)
  mutable c_paused : bool;  (* read interest off (backlog watermark) *)
  c_home : io_loop;
  c_intern : Objects.Intern.t;
      (* connection-local name -> dense-id cache; only the owning
         loop touches it, and the table it mirrors is immutable *)
  mutable c_peer_map : int array;
      (* peer connections only: sender dense id -> local dense id
         (-1 unmapped), taught by the named first mention of each
         object (GOSSIP2/DIGEST wire interning). Grown on demand;
         owned by the connection's I/O loop like [c_intern]. *)
}

(* One event loop per I/O domain. A connection belongs to exactly one
   loop for its lifetime (round-robin at accept), so all poller,
   buffer and batch bookkeeping is loop-local; the only cross-domain
   doors are the accept handoff queue (with the wake pipe, which also
   carries [stop]) and the shard locks. *)
and io_loop = {
  l_index : int;
  l_wake_r : Unix.file_descr;
  l_wake_w : Unix.file_descr;
  l_metrics : Metrics.io_loop;
  l_poller : slot_kind Poller.t;
  l_mu : Mutex.t;  (* guards l_handoff *)
  mutable l_handoff : conn list;  (* accepted conns awaiting registration *)
  mutable l_paused : conn list;
  mutable l_outq : conn list;  (* conns with replies to write this cycle *)
  mutable l_batches : batch array;  (* one per shard; set at start *)
}

and slot_kind = Wake | Listen | Conn of conn

(* One loop's pending object ops for one shard, as parallel
   preallocated arrays: parking an op writes one cell per array and
   allocates nothing. At most [max_batch] ops; a full batch runs at
   once. [b_delta] is read for [Merge] only, [b_arg] for [Add]/[Write]. *)
and batch = {
  b_shard : shard;
  b_idle : conn;  (* never-alive filler for empty [b_conn] cells *)
  mutable b_n : int;
  b_conn : conn array;
  b_oid : int array;
  b_op : op array;
  b_arg : int array;
  b_id : int array;
  b_enq : float array;  (* decode time, for [s_latency] *)
  b_delta : Persist.Delta.t array;
  b_dirty : int array;  (* phase-1 scratch: oids with deferred incs *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  addr : Unix.sockaddr;
  unix_path : string option;
  metrics : Metrics.t;
  table : Objects.table;
  placement : Placement.t;
  loops : io_loop array;
  live_conns : int Atomic.t;
  mutable accept_rr : int;  (* accepting loop only *)
  stop_flag : bool Atomic.t;
  stopped : bool Atomic.t;
  g_wake_r : Unix.file_descr;  (* gossip wake pipe (exists even standalone) *)
  g_wake_w : Unix.file_descr;
  g_kick : bool Atomic.t;  (* dedups boundary-kick wake bytes *)
  wal : Persist.Wal.t option;  (* the durability plane, if --data-dir *)
  mutable gossip : Gossip.t option;
  mutable io_domain_handles : unit Domain.t array;
  mutable snap_domain : unit Domain.t option;
}

let sockaddr t = t.addr
let metrics t = t.metrics
let table t = t.table
let config t = t.cfg
let placement t = t.placement
let live_connections t = Atomic.get t.live_conns

(* ------------------------------------------------------------------ *)
(* Wake pipes                                                          *)
(* ------------------------------------------------------------------ *)

let wake_byte = Bytes.make 1 '!'

let wake_loop loop =
  try ignore (Unix.write loop.l_wake_w wake_byte 0 1) with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

(* Wake the gossip sender out of its interval sleep (any loop, when
   local growth crosses the k_staleness boundary). The exchange
   dedups: one pipe byte per sleep, however many loops kick. *)
let kick_gossip t =
  if not (Atomic.exchange t.g_kick true) then
    try ignore (Unix.write t.g_wake_w wake_byte 0 1) with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

(* The first reply of a cycle puts the connection on its loop's
   write list. *)
let enqueue conn =
  if not conn.c_queued then begin
    conn.c_queued <- true;
    let home = conn.c_home in
    home.l_outq <- conn :: home.l_outq
  end

(* Append a reply to the connection's output buffer (owning loop
   only). A dead connection's replies are dropped. *)
let reply conn resp =
  if conn.c_alive then begin
    Wire.encode_response_obuf conn.c_out resp;
    enqueue conn
  end

(* ------------------------------------------------------------------ *)
(* Batch execution (owning loop, under the shard lock)                 *)
(* ------------------------------------------------------------------ *)

(* The [b_delta] filler: merges carry their own delta. *)
let no_delta = Persist.Delta.Max 0

(* Count, answer and time one executed op. *)
let finish (stats : Metrics.shard) b i now resp =
  stats.tasks <- stats.tasks + 1;
  reply b.b_conn.(i) resp;
  Histogram.record stats.s_latency
    (int_of_float ((now -. b.b_enq.(i)) *. 1e9))

(* Drain-batch fusion. Every op in one batch is in flight
   concurrently — its client pipelined it and it has not been
   answered — so the shard may linearize them in any serial order.
   That makes two fusions sound:
   - all INC/ADDs for one object coalesce into a single bulk
     [Objects.apply_pending] (phase 1 accumulates, phase 2 applies);
   - every READ of one object is answered from a single computed
     value ([Objects.batch_read], keyed by the drain stamp) — they
     all linearize at that one read.
   Replies go out in arrival order with per-op latency accounting. A
   WRITE between two READs of a max register in the same batch is
   concurrent with both, so answering both reads from one value
   remains linearizable.

   Durability rides the same drain: phase 1/2 mutations that outgrow
   the envelope stage a WAL record ([check_persist], the disk analogue
   of [check_boundary]); the staged frames are flushed once per drain,
   after phase 2 and before phase 3 encodes any reply — and the socket
   writes come after the whole batch — so every mutation ack (WRITE
   Ok and INC/ADD) goes out only after its covering record has reached
   at least the page cache, which is what "no acked op lost beyond the
   envelope under kill -9" rests on. *)
let exec_batch t sh b n =
  let stats = sh.sh_stats in
  let pid = sh.sh_id in
  let n_dirty = ref 0 in
  let deferred = ref 0 in
  let clustered = t.cfg.nodes > 1 in
  let want_kick = ref false in
  let check_boundary obj =
    if
      clustered
      && Objects.boundary_crossed obj ~k_staleness:t.cfg.k_staleness
    then want_kick := true
  in
  let check_persist obj =
    match t.wal with
    | Some wal when Objects.persist_due obj ->
      Persist.Wal.append wal
        ((Objects.spec obj).Objects.name, Objects.persist_export obj);
      Objects.mark_persisted obj
    | Some _ | None -> ()
  in
  (* Phase 1: writes, merges and rejections inline; increments
     accumulate; reads wait for phase 3. *)
  for i = 0 to n - 1 do
    let obj = Objects.get t.table b.b_oid.(i) in
    match b.b_op.(i) with
    | Merge ->
      (* Gossip entry: no reply. *)
      if Objects.merge_delta obj b.b_delta.(i) then begin
        stats.merge_tasks <- stats.merge_tasks + 1;
        check_persist obj
      end;
      b.b_delta.(i) <- no_delta;
      b.b_op.(i) <- Done
    | Echo ->
      (* A digest agreed with a peer while the object was still in
         its restart-recovery window: equal exports prove the peer
         holds everything the withheld own slot would say, so the
         window can close. Replyless, like a merge. *)
      Objects.confirm_echo obj;
      b.b_op.(i) <- Done
    | Write -> (
      (* A successful WRITE mutates state, so its Ok waits for phase 3
         behind the WAL flush. *)
      match Objects.write obj ~pid b.b_arg.(i) with
      | Ok _ ->
        check_boundary obj;
        check_persist obj
      | Error () -> b.b_op.(i) <- Reject)
    | Inc | Add ->
      let via_add = b.b_op.(i) = Add in
      let delta = if via_add then b.b_arg.(i) else 1 in
      if
        (via_add && (delta < 0 || delta > Objects.max_add_delta))
        || not (Objects.is_counter_obj obj)
      then begin
        let os = Objects.stats obj in
        os.rejects <- os.rejects + 1;
        b.b_op.(i) <- Reject
      end
      else begin
        if Objects.defer obj ~via_add delta then begin
          b.b_dirty.(!n_dirty) <- b.b_oid.(i);
          incr n_dirty
        end;
        incr deferred
      end
    | Read | Reject | Done -> ()
  done;
  (* Phase 2: one bulk add per dirty object. *)
  for j = 0 to !n_dirty - 1 do
    let obj = Objects.get t.table b.b_dirty.(j) in
    Objects.apply_pending obj ~pid;
    check_boundary obj;
    check_persist obj
  done;
  stats.fused_applies <- stats.fused_applies + !n_dirty;
  stats.deferred_ops <- stats.deferred_ops + !deferred;
  Histogram.record stats.s_fused !deferred;
  if !want_kick then begin
    stats.boundary_kicks <- stats.boundary_kicks + 1;
    kick_gossip t
  end;
  (* Group commit: one write(2) for every record this drain staged,
     before any mutation ack is encoded in phase 3. *)
  (match t.wal with Some wal -> Persist.Wal.flush wal | None -> ());
  (* Phase 3: replies in arrival order. *)
  let now = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let id = b.b_id.(i) in
    (match b.b_op.(i) with
     | Inc | Add | Write -> finish stats b i now (Wire.Value { id; value = 0 })
     | Read ->
       let obj = Objects.get t.table b.b_oid.(i) in
       finish stats b i now
         (Wire.Value
            { id; value = Objects.batch_read obj ~pid ~stamp:sh.sh_stamp })
     | Reject -> finish stats b i now (Wire.Bad_request { id })
     | Merge | Echo | Done -> ());
    b.b_conn.(i) <- b.b_idle
  done

(* Run one loop's batch for one shard: the whole drain — stamp,
   phases 1-3 — happens under the shard lock, so any loop may run any
   shard's ops and every object still sees one op sequence from one
   pid at a time. *)
let run_batch t b =
  let n = b.b_n in
  if n > 0 then begin
    let sh = b.b_shard in
    let stats = sh.sh_stats in
    Mutex.lock sh.sh_mu;
    sh.sh_stamp <- sh.sh_stamp + 1;
    stats.batches <- stats.batches + 1;
    if n > stats.max_batch then stats.max_batch <- n;
    (match exec_batch t sh b n with
     | () -> Mutex.unlock sh.sh_mu
     | exception e ->
       Mutex.unlock sh.sh_mu;
       b.b_n <- 0;
       raise e);
    b.b_n <- 0
  end

(* Park an object op in the owning loop's batch for the object's
   shard; a batch that fills runs at once. *)
let push t loop conn oid op ~arg ~id ~delta ~enq =
  let b = loop.l_batches.(Objects.shard_of (Objects.get t.table oid)) in
  let i = b.b_n in
  b.b_conn.(i) <- conn;
  b.b_oid.(i) <- oid;
  b.b_op.(i) <- op;
  b.b_arg.(i) <- arg;
  b.b_id.(i) <- id;
  b.b_enq.(i) <- enq;
  b.b_delta.(i) <- delta;
  b.b_n <- i + 1;
  if i + 1 = Array.length b.b_id then run_batch t b

let make_batch ~max_batch ~idle sh =
  { b_shard = sh;
    b_idle = idle;
    b_n = 0;
    b_conn = Array.make max_batch idle;
    b_oid = Array.make max_batch 0;
    b_op = Array.make max_batch Done;
    b_arg = Array.make max_batch 0;
    b_id = Array.make max_batch 0;
    b_enq = Array.make max_batch 0.0;
    b_delta = Array.make max_batch no_delta;
    b_dirty = Array.make max_batch 0 }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let close_conn t conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    let loop = conn.c_home in
    let il = loop.l_metrics in
    il.l_closed <- il.l_closed + 1;
    Atomic.decr t.live_conns;
    if conn.c_slot >= 0 then begin
      il.l_owned_conns <- il.l_owned_conns - 1;
      Poller.unregister loop.l_poller conn.c_slot;
      conn.c_slot <- -1
    end;
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Durability plane                                                    *)
(* ------------------------------------------------------------------ *)

(* Mirror the WAL counters into the STATS registry (any domain; the
   registry is the mirror, the WAL is the source of truth). *)
let refresh_durability t =
  match t.wal with
  | None -> ()
  | Some wal ->
    let s = Persist.Wal.stats wal in
    let d = Metrics.durability t.metrics in
    d.Metrics.d_wal_appends <- s.Persist.Wal.appends;
    d.Metrics.d_wal_bytes <- s.Persist.Wal.bytes;
    d.Metrics.d_wal_flushes <- s.Persist.Wal.flushes;
    d.Metrics.d_fsyncs <- s.Persist.Wal.fsyncs;
    d.Metrics.d_fsyncs_deferred <- s.Persist.Wal.fsyncs_deferred;
    d.Metrics.d_fsync_records_covered <- s.Persist.Wal.fsync_records_covered;
    d.Metrics.d_fsync_errors <- s.Persist.Wal.fsync_errors;
    d.Metrics.d_wal_truncations <- s.Persist.Wal.truncations

(* One fuzzy snapshot: capture the truncation watermark *before*
   exporting (any record staged after the capture may reflect state
   concurrent with the export and must survive truncation), export
   every object racily — monotone fields make a torn export a valid
   lower bound — then rotate the log. *)
let snapshot_tick t wal dir =
  let idx = Persist.Wal.next_index wal in
  let entries = ref [] in
  Objects.iter
    (fun o ->
      entries :=
        ((Objects.spec o).Objects.name, Objects.persist_export o) :: !entries)
    t.table;
  Persist.Snapshot.write ~dir ~wal_index:idx (List.rev !entries);
  let d = Metrics.durability t.metrics in
  d.Metrics.d_snapshots <- d.Metrics.d_snapshots + 1;
  Persist.Wal.truncate_upto wal idx;
  refresh_durability t

(* A failing tick (disk full, permissions, a directory fsync refused
   after the rename) does not stop the service: it keeps serving with
   durability degraded and the WAL still growing (a tick that raised
   never truncates it), and [snapshot_errors] in STATS shows it. *)
let try_snapshot_tick t wal dir =
  try snapshot_tick t wal dir
  with Unix.Unix_error _ | Sys_error _ ->
    let d = Metrics.durability t.metrics in
    d.Metrics.d_snapshot_errors <- d.Metrics.d_snapshot_errors + 1

(* The snapshot domain sleeps in short slices so stop never waits more
   than ~50 ms for it. *)
let snapshot_loop t wal dir interval_ms =
  let interval = float_of_int interval_ms /. 1000.0 in
  let rec sleep remaining =
    if (not (Atomic.get t.stop_flag)) && remaining > 0.0 then begin
      let dt = Float.min remaining 0.05 in
      (try ignore (Unix.select [] [] [] dt)
       with Unix.Unix_error (EINTR, _, _) -> ());
      sleep (remaining -. dt)
    end
  in
  while not (Atomic.get t.stop_flag) do
    sleep interval;
    if not (Atomic.get t.stop_flag) then
      try_snapshot_tick t wal dir
  done

let dispatch t loop conn req ~enq =
  let il = loop.l_metrics in
  (* Name -> dense id through the connection's intern cache. The warm
     path (a client re-sending a name it already used) is one FNV pass
     and two array reads — no [Hashtbl.hash], no bucket-chain walk,
     no allocation. Misses consult the table once and install the
     mapping; -1 = unknown name. *)
  let resolve name =
    let cached = Objects.Intern.find_cached conn.c_intern name in
    if cached >= 0 then begin
      il.l_intern_hits <- il.l_intern_hits + 1;
      cached
    end
    else begin
      il.l_intern_misses <- il.l_intern_misses + 1;
      let i = Objects.find_id t.table name in
      if i >= 0 then Objects.Intern.store conn.c_intern name i;
      i
    end
  in
  (* Sender-oid -> local-oid resolution for the compact peer frames.
     A named entry (first mention on this connection) teaches the
     binding; unnamed entries replay it from [c_peer_map]. An unknown
     name (placement mismatch) or an unmapped oid resolves to -1 and
     the entry is dropped, and the next digest round re-teaches any
     binding lost with a dropped entry. *)
  let resolve_peer_oid oid name =
    match name with
    | Some nm ->
      let local = resolve nm in
      if local >= 0 && oid < Wire.max_gossip_entries then begin
        (if oid >= Array.length conn.c_peer_map then begin
           let n = Array.make (max 64 (oid + 1)) (-1) in
           Array.blit conn.c_peer_map 0 n 0 (Array.length conn.c_peer_map);
           conn.c_peer_map <- n
         end);
        conn.c_peer_map.(oid) <- local
      end;
      local
    | None ->
      if oid < Array.length conn.c_peer_map then conn.c_peer_map.(oid) else -1
  in
  let object_op id name op arg =
    let oid = resolve name in
    if oid < 0 then reply conn (Wire.Unknown_object { id })
    else push t loop conn oid op ~arg ~id ~delta:no_delta ~enq
  in
  match req with
  | Wire.Hello { id; version; role } ->
    if conn.c_role <> Pending then begin
      (* A repeated HELLO could silently switch an established
         connection's role (and with it the inbound frame cap):
         a protocol violation, not a renegotiation. *)
      il.l_protocol_errors <- il.l_protocol_errors + 1;
      close_conn t conn
    end
    else if version <> Wire.protocol_version then begin
      (* Typed rejection, then a clean close once it is flushed. *)
      il.l_hello_rejects <- il.l_hello_rejects + 1;
      conn.c_close_after_flush <- true;
      reply conn
        (Wire.Bad_version { id; version = Wire.protocol_version })
    end
    else if
      (role <> Wire.role_client && role <> Wire.role_peer)
      || (role = Wire.role_peer && t.cfg.nodes < 2)
    then begin
      (* Unknown role bytes never default to anything, and the peer
         role — which unlocks the 1 MiB frame cap and gossip merges —
         is refused outright on a standalone server. Clustered servers
         accept it from any connection: gossip assumes a trusted
         network (see server.mli). *)
      il.l_hello_rejects <- il.l_hello_rejects + 1;
      conn.c_close_after_flush <- true;
      reply conn (Wire.Bad_request { id })
    end
    else begin
      il.l_hellos <- il.l_hellos + 1;
      conn.c_role <-
        (if role = Wire.role_peer then Peer_role else Client_role);
      reply conn
        (Wire.Hello_ok { id; version = Wire.protocol_version })
    end
  | _ when conn.c_role = Pending ->
    (* The first frame must be HELLO; anything else is a handshake
       violation and unrecoverable. *)
    il.l_hello_rejects <- il.l_hello_rejects + 1;
    il.l_protocol_errors <- il.l_protocol_errors + 1;
    close_conn t conn
  | Wire.Gossip2 { node = _; entries } ->
    if conn.c_role <> Peer_role then begin
      il.l_protocol_errors <- il.l_protocol_errors + 1;
      close_conn t conn
    end
    else begin
      il.l_gossip_frames <- il.l_gossip_frames + 1;
      (* The compact, unacked push: rebuild each entry's full-width
         delta from its (slot, total) pairs against the local
         replication topology and park it in the owning shard's
         batch. *)
      let merged = ref 0 in
      List.iter
        (fun (e : Wire.g2_entry) ->
          let oid = resolve_peer_oid e.Wire.g2_oid e.Wire.g2_name in
          if oid >= 0 then begin
            let obj = Objects.get t.table oid in
            let delta =
              match e.Wire.g2_body with
              | Wire.G2_max v -> Some (Persist.Delta.Max v)
              | Wire.G2_counter pairs ->
                let w = Objects.nodes obj in
                let v = Array.make w 0 in
                (* Dirty pushes omit our own slot; -1 marks it absent
                   so [Objects.merge_delta] cannot mistake the gap for
                   a zero-valued echo and close a recovery window
                   early. A repair (full vector) overwrites it. *)
                if t.cfg.node_id < w then v.(t.cfg.node_id) <- -1;
                let ok =
                  List.for_all
                    (fun (slot, total) ->
                      slot < w && total >= 0
                      &&
                      (v.(slot) <- total;
                       true))
                    pairs
                in
                if ok then Some (Persist.Delta.Counter v) else None
            in
            match delta with
            | None ->
              (* slot beyond this node's replication width: topology
                 disagreement, a real protocol violation *)
              il.l_protocol_errors <- il.l_protocol_errors + 1
            | Some d ->
              push t loop conn oid Merge ~arg:0 ~id:0 ~delta:d ~enq;
              incr merged
          end)
        entries;
      il.l_gossip_entries <- il.l_gossip_entries + !merged
    end
  | Wire.Digest { id; node = _; entries } ->
    if conn.c_role <> Peer_role then begin
      il.l_protocol_errors <- il.l_protocol_errors + 1;
      close_conn t conn
    end
    else begin
      il.l_digest_frames <- il.l_digest_frames + 1;
      (* Anti-entropy probe: compare each entry's fingerprint+total
         against the local export and ack back the sender-side ids
         that disagree — the sender answers those with full repair
         exports. Fingerprint equality while the local object still
         waits for its restart echo closes the window (see [Echo]). *)
      let diverged = ref [] in
      List.iter
        (fun (e : Wire.digest_entry) ->
          let oid = resolve_peer_oid e.Wire.d_oid e.Wire.d_name in
          if oid >= 0 then begin
            let obj = Objects.get t.table oid in
            let fp, total = Objects.digest obj in
            if fp <> e.Wire.d_fp || total <> e.Wire.d_total then begin
              il.l_digest_mismatches <- il.l_digest_mismatches + 1;
              (* Divergence is symmetric news: our state may be ahead
                 of the sender too, so flag the object for our own
                 sender's next dirty push. *)
              Objects.mark_dirty obj;
              diverged := e.Wire.d_oid :: !diverged
            end
            else if Objects.recovering obj then
              push t loop conn oid Echo ~arg:0 ~id:0 ~delta:no_delta ~enq
          end)
        entries;
      reply conn (Wire.Digest_ack { id; oids = List.rev !diverged })
    end
  | Wire.Stats { id } ->
    il.l_stats_requests <- il.l_stats_requests + 1;
    refresh_durability t;
    (* The registry streams straight into the reply buffer, and lists
       only as many objects as fit the response cap. *)
    if conn.c_alive then begin
      let frame = Wire.stats_open conn.c_out ~id in
      Metrics.add_json t.metrics conn.c_out ~max_len:Wire.max_stats_json;
      Wire.stats_close conn.c_out frame;
      enqueue conn
    end
  | Wire.Ping { id } -> reply conn (Wire.Pong { id })
  | Wire.Inc { id; name } -> object_op id name Inc 0
  | Wire.Add { id; name; delta } -> object_op id name Add delta
  | Wire.Read { id; name } -> object_op id name Read 0
  | Wire.Write { id; name; value } -> object_op id name Write value

(* Parse every complete frame in [c_in] — the read batch — then
   compact the leftover prefix of the next frame to the front. The
   decoder is picked per frame: the HELLO that upgrades a connection
   to [Peer_role] widens the cap for the frames behind it in the same
   read batch. *)
let parse_frames t loop conn ~enq =
  let il = loop.l_metrics in
  let rec go off frames =
    if (not conn.c_alive) || conn.c_close_after_flush then
      (* Closed (or closing after the BAD_VERSION flush): drop any
         bytes behind the fatal frame. *)
      conn.c_in_len <- 0
    else
      let decode =
        if conn.c_role = Peer_role then Wire.decode_request_peer
        else Wire.decode_request
      in
      match decode conn.c_in ~off ~len:(conn.c_in_len - off) with
      | Wire.Decoded (req, consumed) ->
        dispatch t loop conn req ~enq;
        go (off + consumed) (frames + 1)
      | Wire.Need_more ->
        if conn.c_in_len - off >= Bytes.length conn.c_in then begin
          (* Buffer full holding one incomplete frame. Client frames
             always fit (max_request_payload < initial size); peer
             frames may run to the peer cap — grow toward it. *)
          let cap =
            Wire.header_len
            + (if conn.c_role = Peer_role then Wire.max_peer_payload
               else Wire.max_request_payload)
          in
          if Bytes.length conn.c_in >= cap then begin
            il.l_protocol_errors <- il.l_protocol_errors + 1;
            close_conn t conn
          end
          else begin
            let nb = Bytes.create (min cap (2 * Bytes.length conn.c_in)) in
            Bytes.blit conn.c_in off nb 0 (conn.c_in_len - off);
            conn.c_in <- nb;
            conn.c_in_len <- conn.c_in_len - off;
            if frames > 0 then Histogram.record il.l_read_batch frames
          end
        end
        else begin
          if off > 0 then
            Bytes.blit conn.c_in off conn.c_in 0 (conn.c_in_len - off);
          conn.c_in_len <- conn.c_in_len - off;
          if frames > 0 then Histogram.record il.l_read_batch frames
        end
      | Wire.Oversized _ ->
        il.l_oversized_frames <- il.l_oversized_frames + 1;
        il.l_protocol_errors <- il.l_protocol_errors + 1;
        close_conn t conn
      | Wire.Malformed _ ->
        il.l_protocol_errors <- il.l_protocol_errors + 1;
        close_conn t conn
  in
  go 0 0

(* Per-connection output backlog: encoded replies not yet written to
   the socket. Reading pauses past the watermark, so a client that
   floods requests without consuming responses bounds its own
   footprint instead of growing the reply buffer forever. *)
let out_high_watermark = 1 lsl 18

let backlog conn = Obuf.length conn.c_out - conn.c_out_off

let pause_reads conn =
  if (not conn.c_paused) && conn.c_slot >= 0 then begin
    conn.c_paused <- true;
    Poller.set_read conn.c_home.l_poller conn.c_slot false;
    conn.c_home.l_paused <- conn :: conn.c_home.l_paused
  end

(* Re-enable reading on paused connections whose backlog has drained.
   O(paused) per cycle; the list is empty unless a client crossed the
   watermark. *)
let recheck_paused loop =
  match loop.l_paused with
  | [] -> ()
  | paused ->
    loop.l_paused <- [];
    List.iter
      (fun conn ->
        if conn.c_alive then begin
          if backlog conn < out_high_watermark then begin
            conn.c_paused <- false;
            Poller.set_read loop.l_poller conn.c_slot true
          end
          else loop.l_paused <- conn :: loop.l_paused
        end)
      paused

(* One read per readable connection; the requests it carries are
   parsed and parked in the loop's batches, stamped with one clock
   read for the whole read batch. *)
let handle_readable t loop conn =
  if backlog conn >= out_high_watermark then pause_reads conn
  else begin
    let space = Bytes.length conn.c_in - conn.c_in_len in
    if space > 0 then
      match Unix.read conn.c_fd conn.c_in conn.c_in_len space with
      | 0 -> close_conn t conn
      | n ->
        conn.c_in_len <- conn.c_in_len + n;
        parse_frames t loop conn ~enq:(Unix.gettimeofday ())
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn t conn
  end

(* One coalesced write of everything the connection has buffered;
   write interest stays on only while bytes remain. *)
let try_flush t conn =
  let loop = conn.c_home in
  let len = Obuf.length conn.c_out in
  if conn.c_out_off < len then begin
    match
      Unix.write conn.c_fd (Obuf.bytes conn.c_out) conn.c_out_off
        (len - conn.c_out_off)
    with
    | n ->
      Histogram.record loop.l_metrics.l_flush_bytes n;
      let drained = conn.c_out_off + n >= len in
      if drained then begin
        Obuf.clear conn.c_out;
        conn.c_out_off <- 0
      end
      else conn.c_out_off <- conn.c_out_off + n;
      if conn.c_close_after_flush && drained then close_conn t conn
      else if conn.c_slot >= 0 then
        Poller.set_write loop.l_poller conn.c_slot (not drained)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      if conn.c_slot >= 0 then Poller.set_write loop.l_poller conn.c_slot true
    | exception Unix.Unix_error _ -> close_conn t conn
  end
  else if conn.c_close_after_flush then close_conn t conn
  else if conn.c_slot >= 0 then Poller.set_write loop.l_poller conn.c_slot false

let poller_name t = Poller.name t.loops.(0).l_poller

let make_conn ~home fd =
  { c_fd = fd;
    c_in = Bytes.create 65536;
    c_in_len = 0;
    c_role = Pending;
    c_close_after_flush = false;
    c_out = Obuf.create ();
    c_out_off = 0;
    c_queued = false;
    c_alive = true;
    c_slot = -1;
    c_paused = false;
    c_home = home;
    c_intern = Objects.Intern.create ();
    c_peer_map = [||] }

(* A backend that cannot watch this fd (select past FD_SETSIZE) is a
   per-connection capacity refusal, not a loop crash: close the
   connection and count the reject so operators can see the ceiling
   in STATS. *)
let register_conn t loop conn =
  match Poller.register loop.l_poller conn.c_fd (Conn conn) with
  | slot ->
    conn.c_slot <- slot;
    Poller.set_read loop.l_poller slot true;
    loop.l_metrics.l_owned_conns <- loop.l_metrics.l_owned_conns + 1
  | exception Poller.Backend_limit _ ->
    loop.l_metrics.l_poller_rejects <- loop.l_metrics.l_poller_rejects + 1;
    close_conn t conn

(* Accept on the accepting loop (index 0); connections are dealt to
   the io loops round-robin. The live-connection count is an atomic
   int maintained at accept/close — O(1) per accept, where a
   [List.length] scan used to make connect bursts O(n^2). *)
let rec accept_burst t loop =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    let il = loop.l_metrics in
    il.l_accepted <- il.l_accepted + 1;
    if Atomic.get t.live_conns >= t.cfg.max_conns then begin
      il.l_closed <- il.l_closed + 1;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    end
    else begin
      Atomic.incr t.live_conns;
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> () (* Unix-domain sockets *));
      let target = t.loops.(t.accept_rr mod Array.length t.loops) in
      t.accept_rr <- t.accept_rr + 1;
      let conn = make_conn ~home:target fd in
      if target == loop then register_conn t target conn
      else begin
        Mutex.lock target.l_mu;
        target.l_handoff <- conn :: target.l_handoff;
        Mutex.unlock target.l_mu;
        wake_loop target
      end
    end;
    accept_burst t loop
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_burst t loop
  | exception Unix.Unix_error _ -> ()

let take_handoff loop =
  Mutex.lock loop.l_mu;
  let q = loop.l_handoff in
  loop.l_handoff <- [];
  Mutex.unlock loop.l_mu;
  q

(* How long a loop keeps polling without blocking after a cycle that
   handled an event, before it sleeps in the kernel again. A window-1
   client's next request usually lands within a few µs of its reply;
   caught by a poll, it skips the cross-CPU wakeup of a loop parked in
   [epoll_wait]. Measured with perfbench's [svc-rpc] on a 2-core host,
   10 alternating 20 s pairs: 99.8k -> 125.5k ops/s, read p50
   17.5 -> 13.5 µs, [svc-durable] flat. In shorter prototype runs
   20/50/100/200 µs windows all gave 116k-128k against 90k, and a
   [sched_yield] between polls added nothing. The cost is up to one
   core per loop while load lasts, none when idle. *)
let spin_window_s = 50e-6

(* One cycle runs every request it read to completion: parse, park
   in the per-shard batches, run each batch under its shard lock
   (WAL flush included), then write the replies — no other domain
   touches the op on the way. Between cycles the loop spins, then
   blocks: zero-timeout polls for [spin_window_s] after the last
   cycle that did work, a blocking wait after that. *)
let io_loop_run t loop =
  let poller = loop.l_poller in
  let il = loop.l_metrics in
  il.l_poller <- Poller.name poller;
  let wake_slot = Poller.register poller loop.l_wake_r Wake in
  Poller.set_read poller wake_slot true;
  if loop.l_index = 0 then begin
    let listen_slot = Poller.register poller t.listen_fd Listen in
    Poller.set_read poller listen_slot true
  end;
  let wake_buf = Bytes.create 256 in
  (* Drain the wake pipe to EAGAIN — a short read does not mean empty
     when a racing [wake_loop] write lands between read and return. *)
  let drain_wake () =
    let rec go () =
      match Unix.read loop.l_wake_r wake_buf 0 (Bytes.length wake_buf) with
      | 0 -> ()
      | n ->
        il.l_wakeups <- il.l_wakeups + n;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
    in
    go ()
  in
  (* [last_work] is the wall clock at the end of the last cycle that
     did work. A negative idle time (the clock stepped back) closes the
     window, so a clock step never makes the loop spin without
     bound. *)
  let last_work = ref neg_infinity in
  while not (Atomic.get t.stop_flag) do
    let idle = Unix.gettimeofday () -. !last_work in
    let spin = idle >= 0.0 && idle < spin_window_s in
    if spin then begin
      il.l_spin_polls <- il.l_spin_polls + 1;
      Poller.wait poller ~timeout:0.0
    end
    else Poller.wait poller ~timeout:0.25;
    let nr = Poller.ready_reads poller and nw = Poller.ready_writes poller in
    if nr > 0 || nw > 0 then begin
      if spin then il.l_spin_hits <- il.l_spin_hits + 1;
      let t0 = Unix.gettimeofday () in
      if nr + nw > il.l_max_ready_batch then il.l_max_ready_batch <- nr + nw;
      for i = 0 to nr - 1 do
        let slot = Poller.ready_read poller i in
        match Poller.data poller slot with
        | Some Wake -> drain_wake ()
        | Some Listen -> accept_burst t loop
        | Some (Conn conn) -> if conn.c_alive then handle_readable t loop conn
        | None -> () (* closed earlier in this dispatch *)
      done;
      List.iter (fun conn -> register_conn t loop conn) (take_handoff loop);
      for s = 0 to Array.length loop.l_batches - 1 do
        run_batch t loop.l_batches.(s)
      done;
      (* Write this cycle's replies, then drain write-ready backlogs. *)
      (match loop.l_outq with
       | [] -> ()
       | outq ->
         loop.l_outq <- [];
         List.iter
           (fun conn ->
             conn.c_queued <- false;
             if conn.c_alive then try_flush t conn)
           outq);
      for i = 0 to nw - 1 do
        let slot = Poller.ready_write poller i in
        match Poller.data poller slot with
        | Some (Conn conn) -> if conn.c_alive then try_flush t conn
        | Some (Wake | Listen) | None -> ()
      done;
      recheck_paused loop;
      il.l_cycles <- il.l_cycles + 1;
      let t1 = Unix.gettimeofday () in
      Histogram.record il.l_cycle_ns (int_of_float ((t1 -. t0) *. 1e9));
      last_work := t1
    end
  done;
  (* Shutdown: close every connection this loop owns, including ones
     still parked in the handoff queue. *)
  let owned = ref [] in
  Poller.iter poller (fun _slot kind ->
      match kind with Conn conn -> owned := conn :: !owned | Wake | Listen -> ());
  List.iter (fun conn -> close_conn t conn) !owned;
  List.iter (fun conn -> close_conn t conn) (take_handoff loop);
  Poller.close poller

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let bind_listen ~backlog = function
  | `Unix path ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd backlog;
    (fd, Unix.ADDR_UNIX path, Some path)
  | `Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd backlog;
    (fd, Unix.getsockname fd, None)

let start ?(config = default_config) ~listen () =
  if config.shards < 1 then invalid_arg "Server.start: shards < 1";
  if config.io_domains < 1 then invalid_arg "Server.start: io_domains < 1";
  if config.max_batch < 1 then invalid_arg "Server.start: max_batch < 1";
  if config.max_conns < 1 then invalid_arg "Server.start: max_conns < 1";
  if config.nodes < 1 then invalid_arg "Server.start: nodes < 1";
  if config.node_id < 0 || config.node_id >= config.nodes then
    invalid_arg "Server.start: node_id outside 0..nodes-1";
  if config.replicas < 1 then invalid_arg "Server.start: replicas < 1";
  if config.k_staleness < 1 then invalid_arg "Server.start: k_staleness < 1";
  if config.nodes > 1 && config.gossip_interval_ms < 1 then
    invalid_arg "Server.start: gossip_interval_ms < 1";
  if config.digest_interval_ticks < 1 then
    invalid_arg "Server.start: digest_interval_ticks < 1";
  if config.snapshot_interval_ms < 0 then
    invalid_arg "Server.start: snapshot_interval_ms < 0";
  if config.specs = [] then invalid_arg "Server.start: no objects";
  List.iter
    (fun (node, _) ->
      if node < 0 || node >= config.nodes || node = config.node_id then
        invalid_arg "Server.start: peer node id out of range (or self)")
    config.peers;
  (* Fail the unavailable-backend case before any fd is bound. *)
  if config.poller = Poller.Epoll && not Poller.epoll_available then
    raise (Poller.Unavailable "epoll backend not compiled in on this platform");
  (* A peer or client that dies mid-write must surface as EPIPE on the
     write (handled per-connection), not as a process-killing signal —
     essential once the gossip sender dials peers that can crash. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> () (* not a Unix platform *));
  (* Lift the fd budget as far as the hard limit allows before
     binding anything; policy warnings (hard limit still too low for
     max_conns) belong to the CLI. *)
  ignore (Rlimit.raise_nofile ());
  let metrics =
    Metrics.create ~node_id:config.node_id ~nodes:config.nodes
      ~replicas:config.replicas ~gossip_interval_ms:config.gossip_interval_ms
      ~k_staleness:config.k_staleness ~shards:config.shards
      ~io_domains:config.io_domains ()
  in
  (* Every participant derives the same ring from (nodes, replicas);
     this node builds only the slice it owns. *)
  let placement =
    Placement.create ~nodes:config.nodes ~replicas:config.replicas
  in
  let hosted =
    List.filter
      (fun (s : Objects.spec) ->
        Placement.hosts placement ~node:config.node_id s.name)
      config.specs
  in
  let table =
    Objects.build ~nodes:config.nodes ~node_id:config.node_id ~metrics
      ~shards:config.shards hosted
  in
  (* Disk recovery runs first (build phase, before any client op and
     before the export-hold window below is armed): snapshot + WAL
     replay seeds each object's restart base, and a later peer echo
     folds into the same base by plain max — a clustered node thus
     prefers max(local-replayed, peer-echo) without any extra logic.
     Records for objects this node no longer hosts (placement changed)
     are dropped silently. *)
  let wal =
    match config.data_dir with
    | None -> None
    | Some dir ->
      let recovered = Persist.Recovery.run ~dir in
      List.iter
        (fun (name, delta) ->
          match Objects.find table name with
          | Some o -> ignore (Objects.recover o delta)
          | None -> ())
        recovered.Persist.Recovery.r_state;
      let d = Metrics.durability metrics in
      d.Metrics.d_enabled <- true;
      d.Metrics.d_fsync_policy <- Persist.Wal.policy_to_string config.fsync;
      d.Metrics.d_recovery_replayed_records <-
        recovered.Persist.Recovery.r_replayed_records;
      d.Metrics.d_recovery_snapshot_loaded <-
        recovered.Persist.Recovery.r_snapshot_loaded;
      d.Metrics.d_torn_tail_truncated <-
        (if recovered.Persist.Recovery.r_torn then 1 else 0);
      Some
        (Persist.Wal.open_ ~dir ~fsync:config.fsync
           ~scan:recovered.Persist.Recovery.r_scan)
  in
  (* A blank clustered node cannot tell a fresh start from a restart,
     so every replicated counter opens in the recovery window: its own
     slot is withheld from gossip exports until a peer echoes the
     (possibly pre-crash) contribution back, keeping the two epochs
     from being reconciled by subtraction while clients write. Only
     armed where an echo can actually arrive — some configured peer
     must also host the object. *)
  if config.nodes > 1 && config.peers <> [] then
    Objects.iter
      (fun o ->
        if
          List.exists
            (fun (node, _) ->
              Placement.hosts placement ~node (Objects.spec o).Objects.name)
            config.peers
        then Objects.begin_recovery o)
      table;
  (* Size the accept backlog with max_conns so a connect burst from a
     ramping load generator queues instead of shedding SYNs; the
     kernel clamps to net.core.somaxconn. *)
  let backlog = max 128 (min config.max_conns 4096) in
  let listen_fd, addr, unix_path = bind_listen ~backlog listen in
  Unix.set_nonblock listen_fd;
  let loops =
    Array.init config.io_domains (fun l ->
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        { l_index = l;
          l_wake_r = wake_r;
          l_wake_w = wake_w;
          l_metrics = Metrics.io_loop metrics l;
          l_poller = Poller.create ~choice:config.poller ();
          l_mu = Mutex.create ();
          l_handoff = [];
          l_paused = [];
          l_outq = [];
          l_batches = [||] })
  in
  let shards =
    Array.init config.shards (fun s ->
        Backend.Padded.copy
          { sh_id = s;
            sh_mu = Mutex.create ();
            sh_stats = Metrics.shard metrics s;
            sh_stamp = 0 })
  in
  Array.iter
    (fun loop ->
      let idle =
        { (make_conn ~home:loop loop.l_wake_r) with
          c_in = Bytes.empty;
          c_alive = false }
      in
      loop.l_batches <-
        Array.map (make_batch ~max_batch:config.max_batch ~idle) shards)
    loops;
  let g_wake_r, g_wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock g_wake_r;
  Unix.set_nonblock g_wake_w;
  let t =
    { cfg = config;
      listen_fd;
      addr;
      unix_path;
      metrics;
      table;
      placement;
      loops;
      live_conns = Atomic.make 0;
      accept_rr = 0;
      stop_flag = Atomic.make false;
      stopped = Atomic.make false;
      g_wake_r;
      g_wake_w;
      g_kick = Atomic.make false;
      wal;
      gossip = None;
      io_domain_handles = [||];
      snap_domain = None }
  in
  t.io_domain_handles <-
    Array.map (fun loop -> Domain.spawn (fun () -> io_loop_run t loop)) loops;
  (match (wal, config.data_dir) with
  | Some w, Some dir when config.snapshot_interval_ms > 0 ->
    t.snap_domain <-
      Some
        (Domain.spawn (fun () ->
             snapshot_loop t w dir config.snapshot_interval_ms))
  | _ -> ());
  if config.nodes > 1 && config.peers <> [] then
    t.gossip <-
      Some
        (Gossip.start ~node_id:config.node_id
           ~peers:(config.peers :> (int * Gossip.addr) list)
           ~interval_ms:config.gossip_interval_ms
           ~digest_interval_ticks:config.digest_interval_ticks
           ~placement ~table ~metrics
           ~wake_r:g_wake_r ~stop:t.stop_flag ~kick:t.g_kick ());
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stop_flag true;
    (* Wake the gossip sender out of its interval sleep and join it
       first — it still uses client connections to peers. *)
    (try ignore (Unix.write t.g_wake_w wake_byte 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Gossip.join t.gossip;
    t.gossip <- None;
    Array.iter wake_loop t.loops;
    Array.iter Domain.join t.io_domain_handles;
    (* Durability shutdown, after the last possible append: the
       snapshot domain exits within ~50 ms of the stop flag; a final
       snapshot + truncate + synced close makes restart replay-free.
       Best-effort — a failure here degrades to normal crash replay. *)
    Option.iter Domain.join t.snap_domain;
    t.snap_domain <- None;
    (match (t.wal, t.cfg.data_dir) with
    | Some wal, Some dir ->
      try_snapshot_tick t wal dir;
      (try Persist.Wal.close wal with Unix.Unix_error _ -> ())
    | _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.g_wake_r; t.g_wake_w ];
    Array.iter
      (fun loop ->
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          [ loop.l_wake_r; loop.l_wake_w ])
      t.loops;
    Option.iter
      (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
      t.unix_path
  end
