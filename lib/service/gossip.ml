(* The delta-gossip sender: one domain per server pushing mergeable
   object state to every peer over persistent `Peer-role client
   connections.

   Cadence is hybrid. The domain sleeps in [select] on its wake pipe
   with the gossip interval as timeout, so a tick fires either
   periodically or eagerly when a shard crosses the k_staleness
   boundary ({!Server} writes one byte). A tick consumes the dirty
   flags once, then per peer diffs each dirty hosted object against a
   per-peer shadow of what that peer last received and appends only
   the changed slots — varint GOSSIP2 entries, coalesced into one
   buffer and pushed with a single write. GOSSIP2 is unacked: merges
   are idempotent joins of absolute totals, TCP surfaces transport
   failure on the write, and anti-entropy below re-covers anything a
   crash or dropped frame lost.

   Anti-entropy is digest-based. Every [digest_interval_ticks] rounds
   (and on every (re)connect, when the peer may have restarted blank)
   the sender ships per-object (fingerprint, total) pairs; the
   receiver answers with the ids whose digests disagree and the
   sender repairs exactly those with full-vector exports. First
   contact therefore heals in one round trip with bytes proportional
   to divergence, not to the hosted share — there is no periodic
   full-state blast. *)

type addr = [ `Unix of string | `Tcp of string * int ]

type peer = {
  p_node : int;
  p_addr : Unix.sockaddr;
  p_link : Metrics.peer_link;
  p_hosts : bool array;  (* dense id -> the placement ring puts it here *)
  p_sent : int array array;
      (* shadow of the peer's last received state: one row per dense
         id (width = replication vector for counters, 1 for maxima),
         zeroed on (re)connect. Absolute totals make a stale shadow
         harmless: the worst case is a redundant, idempotent resend. *)
  p_named : Bytes.t;
      (* dense id -> already named on this connection (wire
         interning); cleared on (re)connect, the dictionary's
         lifetime is the TCP connection *)
  p_ob : Obuf.t;  (* the per-peer frame coalescing buffer *)
  mutable p_client : Client.t option;
  mutable p_ever_connected : bool;  (* distinguishes re- from first connect *)
  mutable p_need_digest : bool;  (* fresh connection: digest immediately *)
}

type state = {
  node_id : int;
  interval_ms : int;
  digest_interval_ticks : int;
  table : Objects.table;
  cluster : Metrics.cluster;
  peers : peer list;
  wake_r : Unix.file_descr;
  stop : bool Atomic.t;
  kick : bool Atomic.t;
  bl : Wire.builder;
  dirty : bool array;  (* dense id -> picked this tick (per-tick scratch) *)
  slots : int array;  (* diff scratch, width = nodes *)
  vals : int array;
  vec : int array;  (* export scratch, width = nodes *)
}

type t = { g_domain : unit Domain.t }

let sockaddr_of_addr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
    Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

(* Keep frames comfortably under the cap; a finished frame stays in
   the coalescing buffer and the next one opens right behind it. *)
let frame_budget = Wire.max_peer_payload - 2048
let frame_entry_cap = Wire.max_gossip_entries - 1

let peer_client st p =
  match p.p_client with
  | Some cl -> Some cl
  | None -> (
    match Client.connect ~role:`Peer p.p_addr with
    | cl ->
      if p.p_ever_connected then
        st.cluster.g_peer_reconnects <- st.cluster.g_peer_reconnects + 1;
      p.p_ever_connected <- true;
      p.p_client <- Some cl;
      (* New connection, new receiver state: it may have restarted
         blank, and its oid dictionary is certainly gone. Zero the
         shadow (so everything diffs as news), forget the interning
         and lead with a digest so divergence is measured, not
         guessed. *)
      Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) p.p_sent;
      Bytes.fill p.p_named 0 (Bytes.length p.p_named) '\000';
      p.p_need_digest <- true;
      Some cl
    | exception (Unix.Unix_error _ | Client.Version_mismatch _ | Failure _) ->
      None)

let drop_client st p =
  (match p.p_client with
  | Some cl ->
    p.p_client <- None;
    Client.close cl
  | None -> ());
  st.cluster.g_send_failures <- st.cluster.g_send_failures + 1

(* The interning discipline: name an object the first time it travels
   on this connection, never again. *)
let wire_name p oid o =
  if Bytes.get p.p_named oid = '\000' then begin
    Bytes.set p.p_named oid '\001';
    (Objects.spec o).Objects.name
  end
  else ""

(* Append one GOSSIP2 entry for [o] carrying the slots that moved past
   the shadow. Dirty pushes skip the peer's own slot — the peer knows
   its own contribution better than we do, and the restart case where
   it does not is exactly what digest repairs (full vectors) cover.
   Updates the shadow as it goes; a later send failure rolls nothing
   back because resending absolute totals is idempotent and the
   reconnect zeroes the shadow anyway. Returns [false] when there was
   nothing this peer has not seen (no entry appended). *)
let add_dirty_entry st p o oid =
  let row = p.p_sent.(oid) in
  if Objects.is_counter_obj o then begin
    let w = Objects.nodes o in
    Objects.export_counter_into o st.vec;
    let n = ref 0 in
    for slot = 0 to w - 1 do
      let v = Array.unsafe_get st.vec slot in
      if slot <> p.p_node && v > Array.unsafe_get row slot then begin
        st.slots.(!n) <- slot;
        st.vals.(!n) <- v;
        row.(slot) <- v;
        incr n
      end
    done;
    if !n > 0 then
      Wire.g2_add_counter st.bl ~oid ~name:(wire_name p oid o) ~slots:st.slots
        ~vals:st.vals ~n:!n;
    !n > 0
  end
  else begin
    let v = Objects.export_max o in
    let fresh = v > row.(0) in
    if fresh then begin
      row.(0) <- v;
      Wire.g2_add_max st.bl ~oid ~name:(wire_name p oid o) v
    end;
    fresh
  end

(* A digest-flagged repair: the full export vector, own slot and
   zeros included — the one frame shape guaranteed to carry a
   restarted peer's pre-crash contribution (and so close its recovery
   window) whatever the shadow thinks was already sent. *)
let add_repair_entry st p o oid =
  let row = p.p_sent.(oid) in
  if Objects.is_counter_obj o then begin
    let w = Objects.nodes o in
    Objects.export_counter_into o st.vec;
    for slot = 0 to w - 1 do
      st.slots.(slot) <- slot;
      st.vals.(slot) <- st.vec.(slot);
      row.(slot) <- st.vec.(slot)
    done;
    Wire.g2_add_counter st.bl ~oid ~name:(wire_name p oid o) ~slots:st.slots
      ~vals:st.vals ~n:w
  end
  else begin
    let v = Objects.export_max o in
    row.(0) <- v;
    Wire.g2_add_max st.bl ~oid ~name:(wire_name p oid o) v
  end

(* Flush the peer's coalescing buffer with one write. [false] drops
   the connection (the next tick redials, zeroes the shadow and
   digests). *)
let flush_peer st p cl =
  let len = Obuf.length p.p_ob in
  if len = 0 then true
  else
    match Client.write_raw cl (Obuf.bytes p.p_ob) ~len with
    | () ->
      p.p_link.Metrics.pl_bytes_sent <- p.p_link.Metrics.pl_bytes_sent + len;
      Obuf.clear p.p_ob;
      true
    | exception (Unix.Unix_error _ | End_of_file | Failure _) ->
      Obuf.clear p.p_ob;
      drop_client st p;
      false

(* Close the open frame and start a fresh one of the same shape when
   the current one approaches the caps. *)
let maybe_rotate_g2 st p =
  if
    Wire.payload_len st.bl > frame_budget
    || Wire.entry_count st.bl >= frame_entry_cap
  then begin
    Wire.frame_finish st.bl;
    st.cluster.g_frames_sent <- st.cluster.g_frames_sent + 1;
    Wire.g2_start st.bl p.p_ob ~node:st.node_id
  end

(* One peer's share of a tick. Returns [false] on a transport
   failure (the caller re-marks this tick's dirty set). *)
let peer_tick st p ~digest_round ~any_dirty =
  match peer_client st p with
  | None ->
    (* Only count a lost send when there was something to send. *)
    if any_dirty || digest_round then
      st.cluster.g_send_failures <- st.cluster.g_send_failures + 1;
    not (any_dirty || digest_round)
  | Some cl -> (
    let digest_now = digest_round || p.p_need_digest in
    let count = Objects.count st.table in
    (* Digest frames first, so a reconnect heals before the dirty
       diff lands on a blank peer. *)
    let digest_frames = ref 0 in
    if digest_now then begin
      p.p_need_digest <- false;
      let open_frame = ref false in
      for oid = 0 to count - 1 do
        if p.p_hosts.(oid) then begin
          if not !open_frame then begin
            Wire.digest_start st.bl p.p_ob ~id:st.cluster.g_rounds
              ~node:st.node_id;
            open_frame := true
          end;
          let o = Objects.get st.table oid in
          let fp, total = Objects.digest o in
          Wire.digest_add st.bl ~oid ~name:(wire_name p oid o) ~fp ~total;
          if
            Wire.payload_len st.bl > frame_budget
            || Wire.entry_count st.bl >= frame_entry_cap
          then begin
            Wire.frame_finish st.bl;
            incr digest_frames;
            open_frame := false
          end
        end
      done;
      if !open_frame then begin
        Wire.frame_finish st.bl;
        incr digest_frames
      end;
      if !digest_frames > 0 then
        p.p_link.Metrics.pl_digest_rounds <-
          p.p_link.Metrics.pl_digest_rounds + 1
    end;
    (* The dirty diff. *)
    if any_dirty then begin
      let opened = ref false in
      let entries = ref 0 in
      for oid = 0 to count - 1 do
        if st.dirty.(oid) && p.p_hosts.(oid) then begin
          let o = Objects.get st.table oid in
          if not !opened then begin
            Wire.g2_start st.bl p.p_ob ~node:st.node_id;
            opened := true
          end;
          if add_dirty_entry st p o oid then begin
            incr entries;
            maybe_rotate_g2 st p
          end
        end
      done;
      if !opened then begin
        if Wire.entry_count st.bl = 0 then
          (* Every candidate diffed empty: rewind the header-only
             frame out of the buffer. *)
          Wire.frame_abort st.bl
        else begin
          Wire.frame_finish st.bl;
          st.cluster.g_frames_sent <- st.cluster.g_frames_sent + 1
        end
      end;
      st.cluster.g_entries_sent <- st.cluster.g_entries_sent + !entries
    end;
    st.cluster.g_frames_sent <- st.cluster.g_frames_sent + !digest_frames;
    if not (flush_peer st p cl) then false
    else if !digest_frames = 0 then true
    else begin
      (* Collect the DIGEST_ACKs (the only acked peer frames) and
         repair exactly the flagged objects with full exports — same
         coalescing buffer, one more write. *)
      match
        let flagged = ref [] in
        for _ = 1 to !digest_frames do
          match Client.recv cl with
          | Wire.Digest_ack { oids; _ } ->
            flagged := List.rev_append oids !flagged
          | _ -> failwith "Gossip: non-DIGEST_ACK reply on peer connection"
        done;
        !flagged
      with
      | [] -> true
      | flagged ->
        let n_repair = ref 0 in
        Wire.g2_start st.bl p.p_ob ~node:st.node_id;
        List.iter
          (fun oid ->
            if oid < count && p.p_hosts.(oid) then begin
              add_repair_entry st p (Objects.get st.table oid) oid;
              incr n_repair;
              maybe_rotate_g2 st p
            end)
          flagged;
        if Wire.entry_count st.bl = 0 then Wire.frame_abort st.bl
        else begin
          Wire.frame_finish st.bl;
          st.cluster.g_frames_sent <- st.cluster.g_frames_sent + 1
        end;
        st.cluster.g_entries_sent <- st.cluster.g_entries_sent + !n_repair;
        p.p_link.Metrics.pl_repair_objects <-
          p.p_link.Metrics.pl_repair_objects + !n_repair;
        flush_peer st p cl
      | exception (Unix.Unix_error _ | End_of_file | Failure _) ->
        drop_client st p;
        false
    end)

(* ------------------------------------------------------------------ *)
(* Tick loop                                                           *)
(* ------------------------------------------------------------------ *)

let tick st =
  let c = st.cluster in
  c.g_rounds <- c.g_rounds + 1;
  let digest_round =
    c.g_rounds = 1 || c.g_rounds mod st.digest_interval_ticks = 0
  in
  (* Consume the dirty flags once into the per-tick scratch; a send
     failure re-raises them below so the next tick re-diffs (the
     shadows make over-marking free: an already-delivered slot diffs
     empty). *)
  let any_dirty = ref false in
  Objects.iter
    (fun o ->
      let d = Objects.take_dirty o in
      st.dirty.(Objects.id o) <- d;
      if d then begin
        any_dirty := true;
        Objects.mark_exported o
      end)
    st.table;
  let all_ok = ref true in
  List.iter
    (fun p ->
      if not (peer_tick st p ~digest_round ~any_dirty:!any_dirty)
      then all_ok := false)
    st.peers;
  if !any_dirty && not !all_ok then
    Objects.iter
      (fun o -> if st.dirty.(Objects.id o) then Objects.mark_dirty o)
      st.table

let run st =
  let interval = float_of_int st.interval_ms /. 1000.0 in
  let buf = Bytes.create 64 in
  let drain_wake () =
    let rec go () =
      match Unix.read st.wake_r buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
    in
    go ()
  in
  while not (Atomic.get st.stop) do
    (match Unix.select [ st.wake_r ] [] [] interval with
     | [ _ ], _, _ ->
       (* Drain the pipe first, then clear the flag. The reverse order
          loses wakeups: a kick arriving between the clear and the end
          of the drain would have its byte eaten while leaving [kick]
          true, and with [kick] stuck true every later boundary
          crossing sees "already kicked" and never writes the pipe —
          eager gossip silently degrades to the periodic timer. This
          order can only err the other way: a byte written after the
          clear is left in the pipe and wakes the next select
          immediately, which is one harmless extra tick. *)
       drain_wake ();
       Atomic.set st.kick false
     | _ -> ()
     | exception Unix.Unix_error (EINTR, _, _) -> ());
    if not (Atomic.get st.stop) then tick st
  done;
  List.iter
    (fun p ->
      match p.p_client with
      | Some cl ->
        p.p_client <- None;
        Client.close cl
      | None -> ())
    st.peers

let start ~node_id ~peers ~interval_ms ~digest_interval_ticks ~placement
    ~table ~metrics ~wake_r ~stop ~kick () =
  if interval_ms < 1 then invalid_arg "Gossip.start: interval_ms < 1";
  if digest_interval_ticks < 1 then
    invalid_arg "Gossip.start: digest_interval_ticks < 1";
  let count = Objects.count table in
  let width =
    let w = ref 1 in
    Objects.iter
      (fun o -> if Objects.nodes o > !w then w := Objects.nodes o)
      table;
    !w
  in
  let mk_peer (node, addr) =
    let hosts = Array.make (max count 1) false in
    let sent = Array.make (max count 1) [||] in
    Objects.iter
      (fun o ->
        let oid = Objects.id o in
        hosts.(oid) <-
          Placement.hosts placement ~node (Objects.spec o).Objects.name;
        sent.(oid) <-
          Array.make
            (if Objects.is_counter_obj o then Objects.nodes o else 1)
            0)
      table;
    { p_node = node;
      p_addr = sockaddr_of_addr addr;
      p_link = Metrics.add_peer metrics ~node;
      p_hosts = hosts;
      p_sent = sent;
      p_named = Bytes.make (max count 1) '\000';
      p_ob = Obuf.create ~size:4096 ();
      p_client = None;
      p_ever_connected = false;
      p_need_digest = true }
  in
  let st =
    { node_id;
      interval_ms;
      digest_interval_ticks;
      table;
      cluster = Metrics.cluster metrics;
      peers = List.map mk_peer peers;
      wake_r;
      stop;
      kick;
      bl = Wire.builder ();
      dirty = Array.make (max count 1) false;
      slots = Array.make width 0;
      vals = Array.make width 0;
      vec = Array.make width 0 }
  in
  { g_domain = Domain.spawn (fun () -> run st) }

let join t = Domain.join t.g_domain
