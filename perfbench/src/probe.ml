(* Traced-run layer probes: replay a workload's own ops through one
   layer's public functions at a time and time each call site, so a
   per-layer number can be set against the end-to-end one. Every timed
   call or pass leaves a span whose key is the count of operations it
   covered (ops, frames, records or entries). *)

open Util
module W = Service.Wire
module Objects = Service.Objects

(* Algo-level op kinds: objects-inproc's batch kinds, and what the
   service scripts' ops map to. *)
let a_inc = 0
let a_add = 1
let a_mwrite = 2
let a_read = 3
let a_mread = 4
let algo_kinds = [| "inc"; "add"; "maxreg_write"; "read"; "maxreg_read" |]

type algo_ops = { kind : int array; tgt : int array; v : int array }

module B = Backend.Atomic_backend
module KC = Algo.Kcounter_algo.Make (B)
module KM = Algo.Kmaxreg_algo.Make (B)

(* Single-domain replay (pid 0, n = 1: the service's one-shard shape)
   of the ops a service workload sends to its k-counters and k-max
   register, grouped by kind; [reps] passes of each group, in kind
   order. Reports ns per op, read-cache hit ratios and step counts. *)
let algo ~k ~ncounters ~nmaxregs (ops : algo_ops) ~reps spans =
  let n = Array.length ops.kind in
  let by_kind = Array.init 5 (fun kd -> List.filter (fun i -> ops.kind.(i) = kd) (List.init n Fun.id) |> Array.of_list) in
  let cs = Array.init ncounters (fun _ -> Mcore.Mc_kcounter.create ~n:1 ~k ()) in
  let ms = Array.init nmaxregs (fun _ -> Mcore.Mc_kmaxreg.create ~m:(1 lsl 30) ~k ()) in
  let ctx = B.ctx ~count_steps:1 () in
  let ccs = Array.init ncounters (fun _ -> KC.create ctx ~n:1 ~k ()) in
  let cms = Array.init nmaxregs (fun _ -> KM.create ctx ~n:1 ~m:(1 lsl 30) ~k ()) in
  let ns = Array.make 5 0 and steps = Array.make 5 0 and cnt = Array.make 5 0 in
  let sink = ref 0 in
  for _ = 1 to reps do
    for kd = 0 to 4 do
      let idx = by_kind.(kd) in
      let t0 = now_ns () in
      Array.iter
        (fun i ->
          let t = ops.tgt.(i) in
          match kd with
          | 0 -> Mcore.Mc_kcounter.increment cs.(t) ~pid:0
          | 1 -> Mcore.Mc_kcounter.add cs.(t) ~pid:0 ops.v.(i)
          | 2 -> Mcore.Mc_kmaxreg.write ms.(t) ops.v.(i)
          | 3 -> sink := !sink + Mcore.Mc_kcounter.read_fast cs.(t) ~pid:0
          | _ -> sink := !sink + Mcore.Mc_kmaxreg.read_fast ms.(t))
        idx;
      let t1 = now_ns () in
      Spans.add spans ~name:kd ~key:(Array.length idx) ~t0 ~t1;
      ns.(kd) <- ns.(kd) + (t1 - t0);
      cnt.(kd) <- cnt.(kd) + Array.length idx;
      let s0 = B.steps ctx ~pid:0 in
      Array.iter
        (fun i ->
          let t = ops.tgt.(i) in
          match kd with
          | 0 -> KC.increment ccs.(t) ~pid:0
          | 1 -> KC.add ccs.(t) ~pid:0 ops.v.(i)
          | 2 -> KM.write cms.(t) ~pid:0 ops.v.(i)
          | 3 -> ignore (KC.read_fast ccs.(t) ~pid:0)
          | _ -> ignore (KM.read_fast cms.(t) ~pid:0))
        idx;
      steps.(kd) <- steps.(kd) + B.steps ctx ~pid:0 - s0
    done
  done;
  ignore (Sys.opaque_identity !sink);
  (* Quiesced final reads against the exact totals of the replay. *)
  let exact = Array.make ncounters 0 and top = Array.make nmaxregs 0 in
  Array.iteri
    (fun i kd ->
      let t = ops.tgt.(i) in
      if kd = a_inc then exact.(t) <- exact.(t) + reps
      else if kd = a_add then exact.(t) <- exact.(t) + (reps * ops.v.(i))
      else if kd = a_mwrite then top.(t) <- max top.(t) ops.v.(i))
    ops.kind;
  let worst = ref 1.0 in
  let factor v x =
    if v > 0 && x > 0 then
      worst := Float.max !worst (Float.max (ratio v x) (ratio x v))
  in
  Array.iteri (fun t c -> factor (Mcore.Mc_kcounter.read c ~pid:0) exact.(t)) cs;
  Array.iteri (fun t r -> factor (Mcore.Mc_kmaxreg.read r) top.(t)) ms;
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let hit_ratio h m = ratio h (h + m) in
  let c_hit = sum (fun c -> Mcore.Mc_kcounter.fast_hits c ~pid:0) cs
  and c_miss = sum (fun c -> Mcore.Mc_kcounter.fast_misses c ~pid:0) cs
  and m_hit = sum Mcore.Mc_kmaxreg.fast_hits ms
  and m_miss = sum Mcore.Mc_kmaxreg.fast_misses ms in
  let per a kd = ratio a.(kd) cnt.(kd) in
  [ ("algo.inc_ns", per ns a_inc);
    ("algo.add_ns", per ns a_add);
    ("algo.maxreg_write_ns", per ns a_mwrite);
    ("algo.read_ns", per ns a_read);
    ("algo.maxreg_read_ns", per ns a_mread);
    ("algo.read_cache_hit_ratio", hit_ratio c_hit c_miss);
    ("algo.maxreg_read_cache_hit_ratio", hit_ratio m_hit m_miss);
    ("algo.read_err_factor", !worst);
    ("backend.steps_per_inc", per steps a_inc);
    ("backend.steps_per_maxreg_write", per steps a_mwrite);
    ("backend.steps_per_read", per steps a_read);
    ("backend.steps_per_maxreg_read", per steps a_mread) ]

let wire_kinds = [| "wire.decode"; "objects.apply"; "wire.encode" |]

(* Replay request frames through the server's per-request path, one
   layer per timed pass: [Wire.decode_request], then name resolution
   via the per-connection intern cache and the [Objects] op as a
   one-task shard drain (defer + apply_pending for INC/ADD,
   batch_read for READ), then [Wire.encode_response_obuf]. Returns
   the three ns/op figures and the table, whose final state feeds the
   persistence probe. *)
let wire_objects ~specs (reqs : W.request array) ~reps spans =
  let n = Array.length reqs in
  let buf = Buffer.create (n * 16) in
  Array.iter (W.encode_request buf) reqs;
  let frames = Buffer.to_bytes buf in
  let total = Bytes.length frames in
  let metrics = Service.Metrics.create ~shards:1 ~io_domains:1 () in
  let table = Objects.build ~metrics ~shards:1 specs in
  let intern = Objects.Intern.create () in
  let decoded = Array.make n (W.Ping { id = 0 }) in
  let resps = Array.make n (W.Pong { id = 0 }) in
  let out = Service.Obuf.create ~size:65536 () in
  let stamp = ref 0 in
  let resolve name =
    let c = Objects.Intern.find_cached intern name in
    if c >= 0 then c
    else begin
      let i = Objects.find_id table name in
      if i >= 0 then Objects.Intern.store intern name i;
      i
    end
  in
  let apply = function
    | W.Inc { id; name } | W.Add { id; name; _ } as rq -> (
      let via_add, delta = match rq with W.Add { delta; _ } -> (true, delta) | _ -> (false, 1) in
      match resolve name with
      | -1 -> W.Unknown_object { id }
      | oid ->
        let o = Objects.get table oid in
        if Objects.is_counter_obj o then begin
          ignore (Objects.defer o ~via_add delta);
          Objects.apply_pending o ~pid:0;
          W.Value { id; value = 0 }
        end
        else W.Bad_request { id })
    | W.Read { id; name } -> (
      match resolve name with
      | -1 -> W.Unknown_object { id }
      | oid ->
        incr stamp;
        W.Value { id; value = Objects.batch_read (Objects.get table oid) ~pid:0 ~stamp:!stamp })
    | W.Write { id; name; value } -> (
      match resolve name with
      | -1 -> W.Unknown_object { id }
      | oid -> (
        match Objects.write (Objects.get table oid) ~pid:0 value with
        | Ok _ -> W.Value { id; value = 0 }
        | Error () -> W.Bad_request { id }))
    | rq -> W.Bad_request { id = W.request_id rq }
  in
  let ns = Array.make 3 0 in
  let timed layer f =
    let t0 = now_ns () in
    f ();
    let t1 = now_ns () in
    Spans.add spans ~name:layer ~key:n ~t0 ~t1;
    ns.(layer) <- ns.(layer) + (t1 - t0)
  in
  for _ = 1 to reps do
    timed 0 (fun () ->
        let off = ref 0 in
        for i = 0 to n - 1 do
          match W.decode_request frames ~off:!off ~len:(total - !off) with
          | W.Decoded (rq, used) ->
            decoded.(i) <- rq;
            off := !off + used
          | _ -> failwith "probe: replayed frame did not decode"
        done);
    timed 1 (fun () ->
        for i = 0 to n - 1 do
          resps.(i) <- apply decoded.(i)
        done);
    timed 2 (fun () ->
        for i = 0 to n - 1 do
          W.encode_response_obuf out resps.(i);
          if Service.Obuf.length out > 65536 then Service.Obuf.clear out
        done;
        Service.Obuf.clear out)
  done;
  let bad = Array.fold_left (fun a r -> match r with W.Value _ -> a | _ -> a + 1) 0 resps in
  if bad > 0 then failwith (Printf.sprintf "probe: %d replayed requests were refused" bad);
  let per layer = ratio ns.(layer) (n * reps) in
  ( [ ("wire.decode_ns", per 0); ("objects.apply_ns", per 1); ("wire.encode_ns", per 2) ],
    table )

let persist_kinds = [| "recovery.run"; "snapshot.write"; "wal.append"; "wal.flush" |]

(* Direct calls into the durability plane on scratch directories:
   [Recovery.run] on [src] (a copy of a workload's data dir, or one
   built here from [entries] — a snapshot plus one WAL record per
   object), [Snapshot.write] of the recovered state, and
   [Wal.append]/[Wal.flush] of those records under [fsync] (a flush
   every 8 appends). *)
let persist ~scratch ~src ~entries ~fsync spans =
  let src =
    match src with
    | Some dir ->
      let d = Filename.concat scratch "recover" in
      copy_dir dir d;
      d
    | None ->
      let d = Filename.concat scratch "built" in
      rm_rf d;
      mkdir_p d;
      Persist.Snapshot.write ~dir:d ~wal_index:0 entries;
      let w = Persist.Wal.open_ ~dir:d ~fsync ~scan:(Persist.Wal.scan ~dir:d) in
      List.iter (Persist.Wal.append w) entries;
      Persist.Wal.close w;
      d
  in
  let reps = 5 in
  let rec_ms = ref [] and snap_ms = ref [] and last = ref None in
  for _ = 1 to reps do
    let t0 = now_ns () in
    let res = Persist.Recovery.run ~dir:src in
    let t1 = now_ns () in
    Spans.add spans ~name:0 ~key:res.Persist.Recovery.r_replayed_records ~t0 ~t1;
    rec_ms := (float_of_int (t1 - t0) /. 1e6) :: !rec_ms;
    last := Some res
  done;
  let res = Option.get !last in
  let state = res.Persist.Recovery.r_state in
  let snap_dir = Filename.concat scratch "snap" in
  mkdir_p snap_dir;
  let entries = List.length state in
  for _ = 1 to reps do
    let t0 = now_ns () in
    Persist.Snapshot.write ~dir:snap_dir ~wal_index:0 state;
    let t1 = now_ns () in
    Spans.add spans ~name:1 ~key:entries ~t0 ~t1;
    snap_ms := (float_of_int (t1 - t0) /. 1e6) :: !snap_ms
  done;
  let wal_dir = Filename.concat scratch "wal" in
  rm_rf wal_dir;
  let w = Persist.Wal.open_ ~dir:wal_dir ~fsync ~scan:(Persist.Wal.scan ~dir:wal_dir) in
  let records = Array.of_list state in
  let appends = 8192 in
  let app_ns = ref 0 and fl_ns = ref 0 and flushes = ref 0 in
  for i = 0 to appends - 1 do
    let t0 = now_ns () in
    Persist.Wal.append w records.(i mod Array.length records);
    let t1 = now_ns () in
    Spans.add spans ~name:2 ~key:1 ~t0 ~t1;
    app_ns := !app_ns + (t1 - t0);
    if i mod 8 = 7 then begin
      let t2 = now_ns () in
      Persist.Wal.flush w;
      let t3 = now_ns () in
      Spans.add spans ~name:3 ~key:8 ~t0:t2 ~t1:t3;
      fl_ns := !fl_ns + (t3 - t2);
      incr flushes
    end
  done;
  Persist.Wal.close w;
  [ ("wal.append_ns", ratio !app_ns appends);
    ("wal.flush_us", ratio !fl_ns !flushes /. 1000.0);
    ("snapshot.write_ms", median_float !snap_ms);
    ("recovery.run_ms", median_float !rec_ms);
    ("recovery.records_replayed", float_of_int res.Persist.Recovery.r_replayed_records);
    ("recovery.snapshot_entries", float_of_int res.Persist.Recovery.r_snapshot_entries) ]

(* Every object's durable export, as the server's snapshot takes it. *)
let exports table =
  let l = ref [] in
  Objects.iter (fun o -> l := ((Objects.spec o).Objects.name, Objects.persist_export o) :: !l) table;
  List.rev !l
