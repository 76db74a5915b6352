(* svc-rpc and svc-durable: the server runs as its own [approx_cli serve]
   process (1 shard, 1 I/O domain); this process is the closed-loop
   client — two connections, one domain each, every caller waiting for
   its replies. Each request is timed from send to reply and every
   served read is checked against an interval envelope built from what
   the clients had sent and had seen acknowledged. *)

open Util
module W = Service.Wire
module C = Service.Client

let k = 4
let conns = 2
let script_len = 65536
let setups = 15
let warm_s = 0.5
let fsync = "every-n-records:16"
let snapshot_ms = 1000
let stats_timeout_s = 5.0

type cls = Kc | Faa | Km | Cas

(* Request kinds in the scripts. *)
let o_inc = 0
let o_add = 1
let o_write = 2
let o_read = 3
let op_names = [| "inc"; "add"; "write"; "read" |]

type wl = {
  name : string;
  counters : int;  (* [serve --counters]: k-counters c0 .. c<n-1> *)
  window : int;  (* requests in flight per connection *)
  weights : int array;  (* INC, ADD, WRITE, READ *)
  durable : bool;
}

let rpc =
  { name = "svc-rpc"; counters = 4; window = 1; weights = [| 15; 0; 5; 80 |]; durable = false }

let durable =
  { name = "svc-durable";
    counters = 1024;
    window = 32;
    weights = [| 60; 15; 5; 20 |];
    durable = true }

(* The serving set, in [Objects.default_specs] order. *)
let specs wl = Service.Objects.default_specs ~counters:wl.counters ~k

let names wl = Array.of_list (List.map (fun s -> s.Service.Objects.name) (specs wl))

let classes wl =
  Array.of_list
    (List.map
       (fun s ->
         match s.Service.Objects.kind with
         | Service.Objects.Kcounter _ -> Kc
         | Faa -> Faa
         | Kmaxreg _ -> Km
         | Cas_maxreg -> Cas)
       (specs wl))

let kmaxreg_index wl = wl.counters + 1

type script = { op : int array; tgt : int array; v : int array }

(* svc-rpc: READs over all 7 objects, INCs over the 5 counters (the
   k-counters and faa), WRITEs to kmaxreg — uniform. svc-durable:
   INC/ADD/READ on the k-counters, Zipf(0.9)-skewed, WRITEs to kmaxreg. *)
let make_script wl ~seed ~stream =
  let st = rng ~seed ~stream in
  let nobj = Array.length (names wl) in
  let z = zipf ~n:wl.counters ~s:0.9 in
  let op = Array.make script_len 0 and tgt = Array.make script_len 0 in
  let v = Array.make script_len 0 in
  for i = 0 to script_len - 1 do
    let o = weighted wl.weights st in
    op.(i) <- o;
    if o = o_write then begin
      tgt.(i) <- kmaxreg_index wl;
      let bits = 1 + Random.State.int st 29 in
      v.(i) <- 1 + Random.State.int st ((1 lsl bits) - 1)
    end
    else if wl.durable then begin
      tgt.(i) <- zipf_draw z st;
      if o = o_add then v.(i) <- 1 + Random.State.int st 16
    end
    else if o = o_read then tgt.(i) <- Random.State.int st nobj
    else tgt.(i) <- Random.State.int st (wl.counters + 1)
  done;
  { op; tgt; v }

(* ---------------------------------------------------------------- *)
(* Client-side envelope bookkeeping                                  *)
(* ---------------------------------------------------------------- *)

(* Per object: [sent] is what requests sent so far could have applied
   (sum of deltas, or the largest value written), [acked] what acked
   replies prove applied; [base] is the state the server started from
   (recovered from disk on svc-durable). *)
type shared = {
  cls : cls array;
  base : int array;
  sent : int Atomic.t array;
  acked : int Atomic.t array;
}

let new_shared wl ~base =
  let n = Array.length base in
  { cls = classes wl;
    base;
    sent = Array.init n (fun _ -> Atomic.make 0);
    acked = Array.init n (fun _ -> Atomic.make 0) }

let is_max = function Km | Cas -> true | Kc | Faa -> false

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let bound sh t a = if is_max sh.cls.(t) then max sh.base.(t) (Atomic.get a) else sh.base.(t) + Atomic.get a

(* A read served [v]: [lo] is the acked bound when it was sent, [hi] the
   sent bound at its reply. Counters: [lo/k <= v <= k*hi] (exact faa:
   [lo <= v <= hi]); max registers: [lo <= v <= k*hi] (exact cas:
   [<= hi]) — Algorithm 2 never reads below the maximum. *)
let envelope_ok sh t ~lo ~v =
  let hi = bound sh t sh.sent.(t) in
  match sh.cls.(t) with
  | Kc -> v * k >= lo && v <= k * hi
  | Km -> v >= lo && v <= k * hi
  | Faa | Cas -> v >= lo && v <= hi

(* ---------------------------------------------------------------- *)
(* One connection's closed loop                                      *)
(* ---------------------------------------------------------------- *)

type conn = {
  c : C.t;
  names : string array;
  sc : script;
  mutable pos : int;
  mutable seq : int;
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;
  mutable viol : int;
  mutable errors : string list;  (* transport errors, refused replies, violations *)
  reads : Samples.t array;  (* per window of the timed phase *)
  updates : Samples.t array;
  mutable wait_ns : int;
  mutable spans : Spans.t;
}

let new_conn c names sc =
  { c;
    names;
    sc;
    pos = 0;
    seq = 0;
    attempted = 0;
    ok = 0;
    failed = 0;
    viol = 0;
    errors = [];
    reads = Array.init max_windows (fun _ -> Samples.create ~cap:1024 ());
    updates = Array.init max_windows (fun _ -> Samples.create ~cap:1024 ());
    wait_ns = 0;
    spans = Spans.empty () }

let slots = 64 (* > any window; a request id's low 6 bits name its slot *)

(* Run the loop: send while [now < t_end] and fewer than [budget] ops
   were sent, keeping [window] requests in flight (refilled in groups of
   window/4, one write each), then drain. Latencies of successful ops
   sent at or after [t_rec] and answered before [t_end] are recorded.
   BUSY and error replies, envelope violations and transport errors
   count as failed, never as successes. *)
let drive x sh ~window ~t_rec ~t_end ~budget ~trace =
  let free = Array.init slots Fun.id and nfree = ref slots in
  let s_t0 = Array.make slots 0 and s_pos = Array.make slots 0 in
  let s_lo = Array.make slots 0 in
  let inflight = ref 0 and sent = ref 0 and stop = ref false in
  let refill = max 1 (window / 4) in
  let send_one () =
    decr nfree;
    let slot = free.(!nfree) in
    let i = x.pos in
    x.pos <- (if i + 1 = script_len then 0 else i + 1);
    let op = x.sc.op.(i) and t = x.sc.tgt.(i) and v = x.sc.v.(i) in
    let id = W.mask_id ((x.seq lsl 6) lor slot) in
    x.seq <- x.seq + 1;
    let name = x.names.(t) in
    let req =
      if op = o_read then W.Read { id; name }
      else if op = o_write then W.Write { id; name; value = v }
      else if op = o_add then W.Add { id; name; delta = v }
      else W.Inc { id; name }
    in
    if op = o_read then s_lo.(slot) <- bound sh t sh.acked.(t)
    else if op = o_write then atomic_max sh.sent.(t) v
    else ignore (Atomic.fetch_and_add sh.sent.(t) (if op = o_add then v else 1));
    s_pos.(slot) <- i;
    incr inflight;
    incr sent;
    x.attempted <- x.attempted + 1;
    s_t0.(slot) <- now_ns ();
    C.send x.c req
  in
  let receive () =
    let t0 = now_ns () in
    let resp = C.recv x.c in
    let t1 = now_ns () in
    x.wait_ns <- x.wait_ns + (t1 - t0);
    let slot = W.response_id resp land (slots - 1) in
    let i = s_pos.(slot) in
    let op = x.sc.op.(i) and t = x.sc.tgt.(i) and v = x.sc.v.(i) in
    let good =
      match resp with
      | W.Value { value; _ } when op = o_read ->
        envelope_ok sh t ~lo:s_lo.(slot) ~v:value
        || begin
             x.viol <- x.viol + 1;
             if x.viol <= 3 then
               x.errors <-
                 Printf.sprintf "envelope: READ %s served %d, acked bound %d at send, sent bound %d at reply"
                   x.names.(t) value s_lo.(slot) (bound sh t sh.sent.(t))
                 :: x.errors;
             false
           end
      | W.Value _ ->
        if op = o_write then atomic_max sh.acked.(t) v
        else ignore (Atomic.fetch_and_add sh.acked.(t) (if op = o_add then v else 1));
        true
      | r ->
        let status =
          match r with
          | W.Busy _ -> "BUSY"
          | W.Unknown_object _ -> "UNKNOWN_OBJECT"
          | W.Bad_request _ -> "BAD_REQUEST"
          | _ -> "an unexpected reply"
        in
        if x.failed < 3 then
          x.errors <- Printf.sprintf "%s %s answered %s" op_names.(op) x.names.(t) status :: x.errors;
        false
    in
    if good then begin
      x.ok <- x.ok + 1;
      let t_send = s_t0.(slot) in
      if t_send >= t_rec && t1 <= t_end then begin
        let w = window_of ~t0:t_rec t1 in
        Samples.add (if op = o_read then x.reads.(w) else x.updates.(w)) (t1 - t_send);
        if trace then Spans.add x.spans ~name:op ~key:(W.response_id resp) ~t0:t_send ~t1
      end
    end
    else x.failed <- x.failed + 1;
    free.(!nfree) <- slot;
    incr nfree;
    decr inflight
  in
  let rec loop () =
    if (not !stop) && !inflight <= window - refill then begin
      let n = ref 0 in
      while (not !stop) && !inflight < window do
        if now_ns () >= t_end || !sent >= budget then stop := true
        else begin
          send_one ();
          incr n
        end
      done;
      if !n > 0 then C.flush x.c
    end;
    if !inflight > 0 then begin
      receive ();
      loop ()
    end
  in
  try loop ()
  with (End_of_file | Unix.Unix_error _ | Failure _) as e ->
    x.failed <- x.failed + !inflight;
    x.errors <- ("transport: " ^ Printexc.to_string e) :: x.errors

(* ---------------------------------------------------------------- *)
(* Server process                                                    *)
(* ---------------------------------------------------------------- *)

type server = { pid : int; sock : string }

(* Servers not yet killed, so an aborted run can stop them all. *)
let children : int list ref = ref []

(* [serve] with 1 shard and 1 I/O domain on a Unix socket given by a
   path relative to the working directory (checkout paths can exceed
   the 108-byte socket-path limit). *)
let spawn ~exe ~log ~sock wl ~extra =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let args =
    [ exe; "serve"; "--shards"; "1"; "--io-domains"; "1"; "--unix"; sock; "-k";
      string_of_int k; "--counters"; string_of_int wl.counters ]
    @ extra
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process (List.hd args) (Array.of_list args) Unix.stdin fd fd)
  in
  children := pid :: !children;
  { pid; sock }

(* Pin every thread of the server to [cpu] once set-up is timed: a
   pinned start-up measured less steady, a pinned load steadier. *)
let pin srv cpu =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process "taskset"
          [| "taskset"; "-a"; "-c"; "-p"; cpu; string_of_int srv.pid |]
          Unix.stdin null null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "taskset could not pin the server"

let kill srv signal =
  (try Unix.kill srv.pid signal with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) srv.pid) !children

let kill_all () = List.iter (fun pid -> kill { pid; sock = "" } Sys.sigkill) !children

(* Poll until the server accepts a HELLO and answers one READ; returns
   the answered client and the served value. *)
let first_reply srv ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec connect () =
    match C.connect (Unix.ADDR_UNIX srv.sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ -> ()
      | _ -> failwith "server exited during start-up");
      if Unix.gettimeofday () > deadline then failwith "server did not start";
      sleep_s 0.0002;
      connect ()
  in
  let c = connect () in
  match C.read_op c "c0" with
  | W.Value { value; _ } -> (c, value)
  | _ -> failwith "first READ refused"

(* STATS over a raw connection with send/receive timeouts: a missing
   reply (e.g. a JSON body over [Wire.max_response_payload], which the
   server's encoder refuses) comes back as [None], never as a hang. *)
let fetch_stats sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.connect fd (Unix.ADDR_UNIX sock);
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO stats_timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO stats_timeout_s;
        let b = Buffer.create 64 in
        W.encode_request b (W.Hello { id = 1; version = W.protocol_version; role = W.role_client });
        W.encode_request b (W.Stats { id = 2 });
        let out = Buffer.to_bytes b in
        let off = ref 0 in
        while !off < Bytes.length out do
          off := !off + Unix.write fd out !off (Bytes.length out - !off)
        done;
        let buf = ref (Bytes.create 65536) and len = ref 0 and pos = ref 0 in
        let rec next () =
          match W.decode_response !buf ~off:!pos ~len:(!len - !pos) with
          | W.Decoded (r, used) ->
            pos := !pos + used;
            Some r
          | W.Oversized _ | W.Malformed _ -> None
          | W.Need_more ->
            if !len = Bytes.length !buf then begin
              let nb = Bytes.create (2 * !len) in
              Bytes.blit !buf 0 nb 0 !len;
              buf := nb
            end;
            let n = Unix.read fd !buf !len (Bytes.length !buf - !len) in
            if n = 0 then None
            else begin
              len := !len + n;
              next ()
            end
        in
        match next () with
        | Some (W.Hello_ok _) -> (
          match next () with Some (W.Stats_json { json; _ }) -> Some json | _ -> None)
        | _ -> None
      with Unix.Unix_error _ -> None)

(* ---------------------------------------------------------------- *)
(* Workload runs                                                     *)
(* ---------------------------------------------------------------- *)

let parallel xs f =
  match xs with
  | [ a; b ] ->
    let h = Domain.spawn (fun () -> f b) in
    f a;
    Domain.join h
  | _ -> List.iter f xs

let load xs sh wl ~t_rec ~t_end ~budget ~trace =
  parallel xs (fun x -> drive x sh ~window:wl.window ~t_rec ~t_end ~budget ~trace)

let connect_all srv wl ~seed ~stream0 =
  let names = names wl in
  List.init conns (fun i ->
      new_conn (C.connect (Unix.ADDR_UNIX srv.sock)) names (make_script wl ~seed ~stream:(stream0 + i)))

let account (r : result) xs =
  List.iter
    (fun x ->
      r.attempted <- r.attempted + x.attempted;
      r.failed <- r.failed + x.failed;
      r.violations <- r.violations + x.viol;
      List.iter (fun e -> note r "%s" e) (List.rev x.errors))
    xs

(* The start-up READ of c0 is a served read like any other. *)
let check_first (r : result) sh v =
  r.attempted <- r.attempted + 1;
  if not (envelope_ok sh 0 ~lo:(bound sh 0 sh.acked.(0)) ~v) then violation r 1

let prep_ops = [ 20_000; 150_000 ]

(* svc-durable's data dir: a seeded load on a fresh dir ended by
   SIGTERM (final snapshot), then a second load on the restarted
   server ended by kill -9, so the dir holds a snapshot plus a WAL
   tail. Untimed. Checks k * recovered >= acked (and recovered <=
   sent) for every object and returns the recovered values. *)
let prep wl ~exe ~log ~run_dir ~seed (r : result) =
  let dir = Filename.concat run_dir "durable-prep" in
  rm_rf dir;
  let names = names wl in
  let sh = new_shared wl ~base:(Array.make (Array.length names) 0) in
  List.iteri
    (fun phase ops ->
      let srv =
        spawn ~exe ~log ~sock:(Filename.concat run_dir "prep.sock") wl
          ~extra:[ "--data-dir"; dir; "--fsync"; fsync; "--snapshot-interval-ms"; "0" ]
      in
      let c, v = first_reply srv ~timeout_s:30.0 in
      C.close c;
      check_first r sh v;
      let xs = connect_all srv wl ~seed ~stream0:(10 + (2 * phase)) in
      load xs sh wl ~t_rec:max_int ~t_end:max_int ~budget:(ops / conns) ~trace:false;
      List.iter (fun x -> C.close x.c) xs;
      account r xs;
      kill srv (if phase = 0 then Sys.sigterm else Sys.sigkill))
    prep_ops;
  let res = Persist.Recovery.run ~dir in
  let base = Array.make (Array.length names) 0 in
  List.iter
    (fun (name, d) ->
      Array.iteri (fun i n -> if n = name then base.(i) <- Persist.Delta.value d) names)
    res.Persist.Recovery.r_state;
  let lost = ref 0 in
  Array.iteri
    (fun i b ->
      let kk = match sh.cls.(i) with Kc | Km -> k | Faa | Cas -> 1 in
      if kk * b < Atomic.get sh.acked.(i) || b > Atomic.get sh.sent.(i) then incr lost)
    base;
  if !lost > 0 then note r "durability: %d object(s) outside k * recovered >= acked" !lost;
  violation r !lost;
  r.extra <-
    r.extra
    @ [ ("prep_replayed_records", Int res.Persist.Recovery.r_replayed_records);
        ("prep_snapshot_entries", Int res.Persist.Recovery.r_snapshot_entries) ];
  (dir, base)

(* Set-up, [setups] times: spawn the server (svc-durable: on a fresh
   copy of the prepared data dir, so every start replays the same
   snapshot and WAL) and time spawn -> first reply. The median is
   setup_s; the last server is kept for the timed phase. *)
let start wl ~exe ~log ~run_dir ~prep_dir sh (r : result) =
  let times = ref [] and kept = ref None in
  for i = 1 to setups do
    let extra =
      match prep_dir with
      | None -> []
      | Some src ->
        let d = Filename.concat run_dir (Printf.sprintf "durable-%d" i) in
        copy_dir src d;
        [ "--data-dir"; d; "--fsync"; fsync; "--snapshot-interval-ms"; string_of_int snapshot_ms ]
    in
    let sock = Filename.concat run_dir (Printf.sprintf "%s-%d.sock" wl.name i) in
    let t0 = now_ns () in
    let srv = spawn ~exe ~log ~sock wl ~extra in
    let c, v = first_reply srv ~timeout_s:30.0 in
    times := (float_of_int (now_ns () - t0) /. 1e9) :: !times;
    C.close c;
    check_first r sh v;
    if i < setups then kill srv Sys.sigkill else kept := Some srv
  done;
  r.extra <- r.extra @ [ ("setup_samples_s", Arr (List.rev_map (fun t -> Num t) !times)) ];
  (Option.get !kept, median_float !times)

let stats_or_fail (r : result) srv what =
  match fetch_stats srv.sock with
  | Some j -> Raw j
  | None ->
    r.attempted <- r.attempted + 1;
    r.failed <- r.failed + 1;
    note r "STATS %s: no reply within %.0f s" what stats_timeout_s;
    Raw "null"

(* The service ops as algo-level ops on the k-counters and kmaxreg
   (faa and cas-maxreg are not the paper's objects). *)
let algo_ops wl scripts =
  let cls = classes wl in
  let kind = ref [] and tgt = ref [] and v = ref [] in
  List.iter
    (fun sc ->
      Array.iteri
        (fun i op ->
          let t = sc.tgt.(i) in
          let push kd tg =
            kind := kd :: !kind;
            tgt := tg :: !tgt;
            v := sc.v.(i) :: !v
          in
          match cls.(t) with
          | Kc ->
            push (if op = o_read then Probe.a_read else if op = o_add then Probe.a_add else Probe.a_inc) t
          | Km -> push (if op = o_read then Probe.a_mread else Probe.a_mwrite) 0
          | Faa | Cas -> ())
        sc.op)
    scripts;
  let arr l = Array.of_list (List.rev l) in
  { Probe.kind = arr !kind; tgt = arr !tgt; v = arr !v }

let requests wl scripts =
  let names = names wl in
  Array.concat
    (List.map
       (fun sc ->
         Array.mapi
           (fun i op ->
             let id = i and name = names.(sc.tgt.(i)) and v = sc.v.(i) in
             if op = o_read then W.Read { id; name }
             else if op = o_write then W.Write { id; name; value = v }
             else if op = o_add then W.Add { id; name; delta = v }
             else W.Inc { id; name })
           sc.op)
       scripts)

let run wl ~exe ~cpu ~seed ~seconds ~trace ~run_dir (r : result) =
  let log = Filename.concat run_dir (wl.name ^ "-server.log") in
  (try Unix.unlink log with Unix.Unix_error _ -> ());
  let nobj = Array.length (names wl) in
  let prep_dir, base =
    if wl.durable then
      let d, b = prep wl ~exe ~log ~run_dir ~seed r in
      (Some d, b)
    else (None, Array.make nobj 0)
  in
  let sh = new_shared wl ~base in
  let srv, setup_s = start wl ~exe ~log ~run_dir ~prep_dir sh r in
  Option.iter (pin srv) cpu;
  let xs = connect_all srv wl ~seed ~stream0:0 in
  (* One timed phase; returns the successful ops completed in each
     window and their windowed throughput. *)
  let phase ~secs ~traced =
    List.iter
      (fun x ->
        x.wait_ns <- 0;
        Array.iter Samples.clear x.reads;
        Array.iter Samples.clear x.updates)
      xs;
    let t_rec = now_ns () in
    let t_end = t_rec + int_of_float (secs *. 1e9) in
    load xs sh wl ~t_rec ~t_end ~budget:max_int ~trace:traced;
    let win_ops =
      Array.init max_windows (fun w ->
          List.fold_left (fun a x -> a + x.reads.(w).Samples.n + x.updates.(w).Samples.n) 0 xs)
    in
    (win_ops, windowed_rate win_ops (full_windows secs))
  in
  let warm_end = now_ns () + int_of_float (warm_s *. 1e9) in
  load xs sh wl ~t_rec:max_int ~t_end:warm_end ~budget:max_int ~trace:false;
  let untraced = if trace then snd (phase ~secs:(seconds /. 2.0) ~traced:false) else 0.0 in
  if trace then List.iter (fun x -> x.spans <- Spans.create 262144) xs;
  let secs = if trace then seconds /. 2.0 else seconds in
  let stats0 = stats_or_fail r srv "before" in
  let win_ops, tput = phase ~secs ~traced:trace in
  let ops = Array.fold_left ( + ) 0 win_ops in
  let stats1 = stats_or_fail r srv "after" in
  let rss = peak_rss_mb (string_of_int srv.pid) in
  List.iter (fun x -> C.close x.c) xs;
  kill srv Sys.sigkill;
  account r xs;
  let nwin = full_windows secs in
  let per_window f = Array.init nwin (fun w -> Samples.sorted (List.map (fun x -> (f x).(w)) xs)) in
  let reads = per_window (fun x -> x.reads) and updates = per_window (fun x -> x.updates) in
  r.extra <-
    r.extra
    @ [ ("stats_before", stats0);
        ("stats_after", stats1);
        ("timed_ops", Int ops);
        ("window_ops", Arr (List.init nwin (fun w -> Int win_ops.(w))));
        ( "window_read_p99_us",
          Arr
            (List.init nwin (fun w ->
                 let a = reads.(w) in
                 if Array.length a = 0 then Num nan
                 else Num (float_of_int (pct_sorted a 0.99) /. 1000.0))) ) ];
  if not trace then begin
    r.e2e <- [ ("throughput_ops_s", tput) ];
    let report prefix wins =
      report_latency r ~prefix
        (Array.to_list
           (Array.map (fun w -> (Array.length w, fun q -> float_of_int (pct_sorted w q))) wins))
    in
    report "read" reads;
    report "update" updates;
    r.e2e <- r.e2e @ [ ("setup_s", setup_s); ("peak_rss_mb", rss) ]
  end
  else begin
    let all = Array.concat (Array.to_list reads @ Array.to_list updates) in
    Array.sort compare all;
    let wait = List.fold_left (fun a x -> a + x.wait_ns) 0 xs in
    let busy = (int_of_float (secs *. 1e9) * conns) - wait in
    let per_op_us ns = ratio ns ops /. 1000.0 in
    let scripts = List.map (fun x -> x.sc) xs in
    let aspans = Spans.create 64 and wspans = Spans.create 64 and pspans = Spans.create 32768 in
    let algo =
      Probe.algo ~k ~ncounters:wl.counters ~nmaxregs:1 (algo_ops wl scripts) ~reps:4 aspans
    in
    let wire, table = Probe.wire_objects ~specs:(specs wl) (requests wl scripts) ~reps:4 wspans in
    let persist =
      Probe.persist
        ~scratch:(Filename.concat run_dir (wl.name ^ "-persist"))
        ~src:prep_dir ~entries:(Probe.exports table) ~fsync:(Persist.Wal.Every_n 16) pspans
    in
    r.layers <-
      algo @ wire @ persist
      @ [ ("client.busy_us_per_op", per_op_us busy);
          ("client.wait_us_per_op", per_op_us wait);
          ("trace.overhead_pct", (untraced -. tput) /. untraced *. 100.0) ];
    r.extra <- r.extra @ [ ("client_p50_us", Num (float_of_int (pct_sorted all 0.5) /. 1000.0)) ];
    let oc = open_out (Filename.concat run_dir ("trace-" ^ wl.name ^ ".csv")) in
    output_string oc "layer,span,source,key,start_ns,end_ns\n";
    List.iteri (fun i x -> Spans.write oc ~layer:"client" ~names:op_names ~source:i x.spans) xs;
    Spans.write oc ~layer:"algo" ~names:Probe.algo_kinds ~source:0 aspans;
    Spans.write oc ~layer:"service" ~names:Probe.wire_kinds ~source:0 wspans;
    Spans.write oc ~layer:"persist" ~names:Probe.persist_kinds ~source:0 pspans;
    close_out oc
  end
