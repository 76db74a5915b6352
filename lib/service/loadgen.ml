type config = {
  connections : int;
  ops_per_connection : int;
  pipeline : int;
  read_permille : int;
  add_permille : int;
  add_delta : int;
  targets : string list;
  zipf_s : float;
  seed : int;
  workers : int;
  ramp_conns_per_tick : int;
  poller : Poller.choice;
  replicas : int;
  max_reconnects : int;
}

let default_config =
  { connections = 4;
    ops_per_connection = 10_000;
    pipeline = 8;
    read_permille = 200;
    add_permille = 0;
    add_delta = 16;
    targets = [ "c0"; "c1"; "c2"; "c3" ];
    zipf_s = 0.0;
    seed = 1;
    workers = 0;
    ramp_conns_per_tick = 0;
    poller = Poller.Auto;
    replicas = 1;
    max_reconnects = 0 }

type result = {
  ok : int;
  busy : int;
  errors : int;
  reconnects : int;
  elapsed_s : float;
  ops_per_sec : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  max_ns : int;
  latency : Histogram.t;
}

(* SplitMix-style step: deterministic per (seed, connection). *)
let next state =
  state := (!state * 2862933555777941757) + 3037000493;
  (!state lsr 33) land max_int

(* The handshake frame's id: outside the op id space (ops count up
   from 0), so its HELLO_OK is recognisable and never recorded. *)
let hello_id = 0xFFFF_FFFF

(* One logical connection, multiplexed with its siblings on a worker
   domain's poller. The op sequence is a function of (seed, cid)
   alone, so the generated load is independent of how connections are
   packed onto workers. A connection has a home node (cid round-robin
   over the node list) and drives only the objects placed there; on a
   transport failure it reconnects — failing over to the next node
   hosting its targets — up to [max_reconnects] times, resetting the
   pipeline window to the completed prefix. *)
type cstate = {
  x_cid : int;
  mutable x_fd : Unix.file_descr;
  mutable x_connected : bool;  (* x_fd is a live socket *)
  mutable x_node : int;  (* current node index *)
  mutable x_targets : string array;  (* cfg targets hosted at x_node *)
  mutable x_cdf : float array;  (* Zipf CDF over x_targets; [||] = uniform *)
  mutable x_reconnects : int;
  mutable x_slot : int;
  x_rng : int ref;
  x_send_times : float array;
  mutable x_sent : int;
  mutable x_completed : int;
  x_out : Buffer.t;  (* staged frames not yet in the flush image *)
  mutable x_flush : Bytes.t;
  mutable x_flush_len : int;
  mutable x_flush_off : int;
  x_rbuf : Bytes.t;
  mutable x_rlen : int;
  mutable x_done : bool;
}

type wstate = {
  w_cfg : config;
  w_poller : cstate Poller.t;
  w_addrs : Unix.sockaddr array;
  w_placement : Placement.t;
  w_target_list : string list;
  w_hist : Histogram.t;
  mutable w_ok : int;
  mutable w_busy : int;
  mutable w_errors : int;
  mutable w_reconnects : int;
  mutable w_active : int;  (* started, not yet done *)
  mutable w_retry : (float * cstate) list;  (* (not-before, conn) *)
}

let connect_fd addr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> () (* Unix-domain sockets *));
  Unix.set_nonblock fd;
  fd

let disconnect w c =
  if c.x_slot >= 0 then begin
    Poller.unregister w.w_poller c.x_slot;
    c.x_slot <- -1
  end;
  if c.x_connected then begin
    c.x_connected <- false;
    try Unix.close c.x_fd with Unix.Unix_error _ -> ()
  end

let finish_conn w c =
  if not c.x_done then begin
    c.x_done <- true;
    disconnect w c;
    w.w_active <- w.w_active - 1
  end

(* Cumulative Zipf(s) distribution over [x_targets]: position in the
   (node-filtered) target list is the popularity rank, so the first
   hosted target is the hot key. Rebuilt on failover because the
   hosted subset — and hence the ranks — changes with the node. *)
let build_cdf w c =
  let s = w.w_cfg.zipf_s in
  let n = Array.length c.x_targets in
  if s <= 0.0 || n = 0 then c.x_cdf <- [||]
  else begin
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
      cdf.(i) <- !acc
    done;
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. !acc
    done;
    c.x_cdf <- cdf
  end

(* Point the connection at the first node from [x_node] onward that
   hosts at least one of the configured targets (with replicas >= 1
   every target is hosted somewhere, so this only leaves [x_targets]
   empty if the target list itself is empty). *)
let retarget w c =
  let nodes = Array.length w.w_addrs in
  let rec go tries =
    if tries >= nodes then c.x_targets <- [||]
    else begin
      let tgts =
        List.filter
          (fun name -> Placement.hosts w.w_placement ~node:c.x_node name)
          w.w_target_list
      in
      if tgts <> [] then c.x_targets <- Array.of_list tgts
      else begin
        c.x_node <- (c.x_node + 1) mod nodes;
        go (tries + 1)
      end
    end
  in
  go 0;
  build_cdf w c

(* Top the pipeline window up with freshly generated ops, staged into
   [x_out]; op choice replays the original per-connection sequence. *)
let fill_window w c =
  let cfg = w.w_cfg in
  while
    c.x_sent < cfg.ops_per_connection
    && c.x_sent - c.x_completed < cfg.pipeline
  do
    let id = c.x_sent in
    let r = next c.x_rng in
    let name =
      if Array.length c.x_cdf = 0 then
        c.x_targets.(r mod Array.length c.x_targets)
      else begin
        (* A dedicated draw for the skewed pick: [next] yields 30
           uniform bits, and reusing [r] would correlate target choice
           with the op-mix decision below. *)
        let u = float_of_int (next c.x_rng) /. 1073741824.0 in
        let n = Array.length c.x_cdf in
        let rec pick i =
          if i >= n - 1 || u < c.x_cdf.(i) then i else pick (i + 1)
        in
        c.x_targets.(pick 0)
      end
    in
    let mille = (r / 64) mod 1000 in
    c.x_send_times.(id mod cfg.pipeline) <- Unix.gettimeofday ();
    Wire.encode_request c.x_out
      (if mille < cfg.read_permille then Wire.Read { id; name }
       else if mille < cfg.read_permille + cfg.add_permille then
         Wire.Add { id; name; delta = cfg.add_delta }
       else Wire.Inc { id; name });
    c.x_sent <- c.x_sent + 1
  done

(* A transport failure: give up (one error) once the reconnect budget
   is spent, otherwise fail over to the next hosting node and retry
   after a short backoff. The pipeline window resets to the completed
   prefix — unanswered ops are regenerated on the new connection, an
   at-least-once replay the approximate counters absorb (replayed
   increments are part of the exact shadow too). *)
let rec conn_failed w c =
  if not c.x_done then begin
    disconnect w c;
    if c.x_reconnects >= w.w_cfg.max_reconnects then begin
      w.w_errors <- w.w_errors + 1;
      finish_conn w c
    end
    else begin
      c.x_reconnects <- c.x_reconnects + 1;
      w.w_reconnects <- w.w_reconnects + 1;
      if Array.length w.w_addrs > 1 then begin
        c.x_node <- (c.x_node + 1) mod Array.length w.w_addrs;
        retarget w c
      end;
      w.w_retry <- (Unix.gettimeofday () +. 0.01, c) :: w.w_retry
    end
  end

(* Push staged bytes to the socket; write interest tracks whether any
   remain (partial write or EAGAIN). *)
and try_flush w c =
  if c.x_flush_off >= c.x_flush_len && Buffer.length c.x_out > 0 then begin
    let len = Buffer.length c.x_out in
    if Bytes.length c.x_flush < len then
      c.x_flush <- Bytes.create (max len (2 * Bytes.length c.x_flush));
    Buffer.blit c.x_out 0 c.x_flush 0 len;
    Buffer.clear c.x_out;
    c.x_flush_len <- len;
    c.x_flush_off <- 0
  end;
  if c.x_flush_off < c.x_flush_len then begin
    match
      Unix.write c.x_fd c.x_flush c.x_flush_off (c.x_flush_len - c.x_flush_off)
    with
    | n ->
      c.x_flush_off <- c.x_flush_off + n;
      if c.x_slot >= 0 then
        Poller.set_write w.w_poller c.x_slot (c.x_flush_off < c.x_flush_len)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      if c.x_slot >= 0 then Poller.set_write w.w_poller c.x_slot true
    | exception Unix.Unix_error _ -> conn_failed w c
  end
  else if c.x_slot >= 0 then Poller.set_write w.w_poller c.x_slot false

(* (Re)open the connection to the current node: handshake staged
   first, then the refilled window. *)
and open_conn w c =
  if not c.x_done then begin
    if Array.length c.x_targets = 0 then finish_conn w c
    else
      match connect_fd w.w_addrs.(c.x_node) with
      | exception Unix.Unix_error _ -> conn_failed w c
      | fd -> (
        c.x_fd <- fd;
        c.x_connected <- true;
        Buffer.clear c.x_out;
        c.x_flush_len <- 0;
        c.x_flush_off <- 0;
        c.x_rlen <- 0;
        c.x_sent <- c.x_completed;
        Wire.encode_request c.x_out
          (Wire.Hello
             { id = hello_id;
               version = Wire.protocol_version;
               role = Wire.role_client });
        match Poller.register w.w_poller fd c with
        | slot ->
          c.x_slot <- slot;
          Poller.set_read w.w_poller c.x_slot true;
          fill_window w c;
          try_flush w c
        | exception Poller.Backend_limit _ ->
          (* A capacity refusal, not a transient: spend an error, no
             retry (matches the BENCH select-cell accounting). *)
          disconnect w c;
          w.w_errors <- w.w_errors + 1;
          finish_conn w c)
  end

let handle_response w c resp =
  match resp with
  | Wire.Hello_ok _ -> ()  (* handshake, not an op *)
  | Wire.Bad_version _ ->
    (* A protocol mismatch never heals by reconnecting. *)
    w.w_errors <- w.w_errors + 1;
    finish_conn w c
  | _ ->
    let cfg = w.w_cfg in
    let id = Wire.response_id resp in
    Histogram.record w.w_hist
      (int_of_float
         ((Unix.gettimeofday () -. c.x_send_times.(id mod cfg.pipeline))
         *. 1e9));
    (match resp with
     | Wire.Value _ -> w.w_ok <- w.w_ok + 1
     | Wire.Busy _ -> w.w_busy <- w.w_busy + 1
     | Wire.Unknown_object _ | Wire.Bad_request _ ->
       w.w_errors <- w.w_errors + 1
     | Wire.Stats_json _ | Wire.Pong _ | Wire.Digest_ack _
     | Wire.Hello_ok _ | Wire.Bad_version _ ->
       w.w_errors <- w.w_errors + 1);
    c.x_completed <- c.x_completed + 1

let handle_readable w c =
  let cfg = w.w_cfg in
  let space = Bytes.length c.x_rbuf - c.x_rlen in
  if space > 0 then begin
    match Unix.read c.x_fd c.x_rbuf c.x_rlen space with
    | 0 ->
      (* Server closed on us mid-run (node kill, restart): a capped
         reconnect instead of a stuck connection. *)
      conn_failed w c
    | n ->
      c.x_rlen <- c.x_rlen + n;
      let off = ref 0 in
      let stop = ref false in
      while not !stop do
        match Wire.decode_response c.x_rbuf ~off:!off ~len:(c.x_rlen - !off) with
        | Wire.Decoded (resp, consumed) ->
          handle_response w c resp;
          off := !off + consumed;
          if c.x_done || not c.x_connected then stop := true
        | Wire.Need_more -> stop := true
        | Wire.Oversized _ | Wire.Malformed _ ->
          w.w_errors <- w.w_errors + 1;
          finish_conn w c;
          stop := true
      done;
      if (not c.x_done) && c.x_connected then begin
        if !off > 0 then begin
          Bytes.blit c.x_rbuf !off c.x_rbuf 0 (c.x_rlen - !off);
          c.x_rlen <- c.x_rlen - !off
        end;
        if c.x_completed >= cfg.ops_per_connection then finish_conn w c
        else begin
          fill_window w c;
          try_flush w c
        end
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> conn_failed w c
  end

(* First connect of a logical connection; failures flow through the
   same capped-reconnect path as mid-run drops (a node may be down at
   ramp time and come back). *)
let start_conn w cid =
  let cfg = w.w_cfg in
  let c =
    { x_cid = cid;
      x_fd = Unix.stdin;  (* placeholder; x_connected guards it *)
      x_connected = false;
      x_node = cid mod Array.length w.w_addrs;
      x_targets = [||];
      x_cdf = [||];
      x_reconnects = 0;
      x_slot = -1;
      x_rng = ref ((cfg.seed * 0x9E3779B9) + cid + 1);
      x_send_times = Array.make cfg.pipeline 0.0;
      x_sent = 0;
      x_completed = 0;
      x_out = Buffer.create 1024;
      x_flush = Bytes.create 1024;
      x_flush_len = 0;
      x_flush_off = 0;
      x_rbuf = Bytes.create 8192;
      x_rlen = 0;
      x_done = false }
  in
  retarget w c;
  w.w_active <- w.w_active + 1;
  open_conn w c

let process_retries w =
  match w.w_retry with
  | [] -> ()
  | l ->
    let now = Unix.gettimeofday () in
    let due, later = List.partition (fun (t, _) -> t <= now) l in
    w.w_retry <- later;
    List.iter (fun (_, c) -> open_conn w c) due

(* A worker drives every connection with [cid mod workers = wid]:
   paced connects (the ramp), then a poller loop until each has run
   its ops to completion. *)
let worker ~addrs ~cfg ~wid ~workers ~start =
  let w =
    { w_cfg = cfg;
      w_poller = Poller.create ~choice:cfg.poller ();
      w_addrs = addrs;
      w_placement =
        Placement.create ~nodes:(Array.length addrs) ~replicas:cfg.replicas;
      w_target_list = cfg.targets;
      w_hist = Histogram.create ();
      w_ok = 0;
      w_busy = 0;
      w_errors = 0;
      w_reconnects = 0;
      w_active = 0;
      w_retry = [] }
  in
  let pending = ref [] in
  for cid = cfg.connections - 1 downto 0 do
    if cid mod workers = wid then pending := cid :: !pending
  done;
  let quota =
    if cfg.ramp_conns_per_tick <= 0 then max_int
    else max 1 (cfg.ramp_conns_per_tick / workers)
  in
  while not (Atomic.get start) do
    Domain.cpu_relax ()
  done;
  while !pending <> [] || w.w_active > 0 do
    (* One connect burst per cycle; with ramping the cycle timeout is
       ~1ms, making the quota per-tick. *)
    let burst = ref quota in
    while !pending <> [] && !burst > 0 do
      (match !pending with
       | cid :: rest ->
         pending := rest;
         start_conn w cid
       | [] -> ());
      decr burst
    done;
    process_retries w;
    if w.w_active > 0 || !pending <> [] then begin
      let timeout =
        if !pending <> [] then 0.001
        else if w.w_retry <> [] then 0.005
        else 0.25
      in
      Poller.wait w.w_poller ~timeout;
      let nr = Poller.ready_reads w.w_poller in
      for i = 0 to nr - 1 do
        let slot = Poller.ready_read w.w_poller i in
        match Poller.data w.w_poller slot with
        | Some c when (not c.x_done) && c.x_connected -> handle_readable w c
        | _ -> ()
      done;
      let nw = Poller.ready_writes w.w_poller in
      for i = 0 to nw - 1 do
        let slot = Poller.ready_write w.w_poller i in
        match Poller.data w.w_poller slot with
        | Some c when (not c.x_done) && c.x_connected -> try_flush w c
        | _ -> ()
      done
    end
  done;
  Poller.close w.w_poller;
  (w.w_hist, w.w_ok, w.w_busy, w.w_errors, w.w_reconnects)

let run ~addrs cfg =
  if addrs = [] then invalid_arg "Loadgen.run: no node addresses";
  if cfg.connections < 1 then invalid_arg "Loadgen.run: connections < 1";
  if cfg.ops_per_connection < 1 then invalid_arg "Loadgen.run: ops < 1";
  if cfg.pipeline < 1 then invalid_arg "Loadgen.run: pipeline < 1";
  if cfg.targets = [] then invalid_arg "Loadgen.run: no targets";
  if cfg.read_permille < 0 || cfg.read_permille > 1000 then
    invalid_arg "Loadgen.run: read_permille outside 0..1000";
  if
    cfg.add_permille < 0 || cfg.read_permille + cfg.add_permille > 1000
  then invalid_arg "Loadgen.run: read + add permille outside 0..1000";
  if cfg.add_delta < 0 then invalid_arg "Loadgen.run: add_delta < 0";
  if not (Float.is_finite cfg.zipf_s) || cfg.zipf_s < 0.0 then
    invalid_arg "Loadgen.run: zipf_s must be finite and >= 0";
  if cfg.workers < 0 then invalid_arg "Loadgen.run: workers < 0";
  if cfg.ramp_conns_per_tick < 0 then
    invalid_arg "Loadgen.run: ramp_conns_per_tick < 0";
  if cfg.replicas < 1 then invalid_arg "Loadgen.run: replicas < 1";
  if cfg.max_reconnects < 0 then invalid_arg "Loadgen.run: max_reconnects < 0";
  ignore (Rlimit.raise_nofile ());
  let addrs = Array.of_list addrs in
  let workers =
    if cfg.workers > 0 then min cfg.workers cfg.connections
    else min cfg.connections 4
  in
  let start = Atomic.make false in
  let domains =
    Array.init workers (fun wid ->
        Domain.spawn (fun () -> worker ~addrs ~cfg ~wid ~workers ~start))
  in
  let t0 = Unix.gettimeofday () in
  Atomic.set start true;
  let parts = Array.map Domain.join domains in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let latency = Histogram.create () in
  let ok = ref 0 and busy = ref 0 and errors = ref 0 and reconnects = ref 0 in
  Array.iter
    (fun (h, o, b, e, r) ->
      Histogram.merge ~into:latency h;
      ok := !ok + o;
      busy := !busy + b;
      errors := !errors + e;
      reconnects := !reconnects + r)
    parts;
  let completed = !ok + !busy + !errors in
  { ok = !ok;
    busy = !busy;
    errors = !errors;
    reconnects = !reconnects;
    elapsed_s;
    ops_per_sec =
      (if elapsed_s > 0.0 then float_of_int completed /. elapsed_s
       else Float.infinity);
    p50_ns = Histogram.percentile latency 0.5;
    p95_ns = Histogram.percentile latency 0.95;
    p99_ns = Histogram.percentile latency 0.99;
    max_ns = Histogram.max_value latency;
    latency }
