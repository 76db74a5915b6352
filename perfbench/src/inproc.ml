(* objects-inproc: two domains (pids 0 and 1) call Algorithm 1 counters
   and Algorithm 2 max registers directly, through the entry points the
   service shard uses. No service, no persistence: a change there must
   leave these numbers flat.

   A clock read costs about as much as one op, so ops run in same-kind
   batches of [bsz] and each batch is timed once; latency percentiles
   are taken over the per-op means of those batches, per window of the
   timed phase (see [Util.report_latency]). *)

open Util
module Kc = Mcore.Mc_kcounter
module Km = Mcore.Mc_kmaxreg

let k = 4
let m = 1 lsl 30
let n_counters = 256
let n_maxregs = 64
let zipf_s = 0.9
let bsz = 32
let nbatches = 16384 (* script length per domain: 512 Ki ops, cycled *)
let warm_batches = 32768 (* set-up warms each domain with 1 Mi ops *)
let setups = 5

(* Batch kinds are [Probe.algo_kinds]; the mix is ~55% INC, 5% ADD,
   10% WRITE and 30% reads. *)
let weights = [| 55; 5; 10; 20; 10 |]
let is_read kind = kind >= 3

type script = { kind : int array; tgt : int array; v : int array }

(* Domain [d]'s op script. Max-register reads go only to registers with
   [index mod 2 = d]: [Mc_kmaxreg.read_fast] keeps a single cache, so
   each register has exactly one reading domain. *)
let make_script ~seed ~d =
  let st = rng ~seed ~stream:(100 + d) in
  let zc = zipf ~n:n_counters ~s:zipf_s and zm = zipf ~n:n_maxregs ~s:zipf_s in
  let kind = Array.init nbatches (fun _ -> weighted weights st) in
  let tgt = Array.make (nbatches * bsz) 0 and v = Array.make (nbatches * bsz) 0 in
  Array.iteri
    (fun b kd ->
      for j = b * bsz to ((b + 1) * bsz) - 1 do
        match kd with
        | 0 | 3 -> tgt.(j) <- zipf_draw zc st
        | 1 ->
          tgt.(j) <- zipf_draw zc st;
          v.(j) <- 1 + Random.State.int st 16
        | 2 ->
          tgt.(j) <- zipf_draw zm st;
          (* log-uniform values, so the maximum keeps moving for a while *)
          let bits = 1 + Random.State.int st 30 in
          v.(j) <- 1 + Random.State.int st ((1 lsl bits) - 1)
        | _ -> tgt.(j) <- zipf_draw zm st land lnot 1 lor d
      done)
    kind;
  { kind; tgt; v }

type objs = { cs : Kc.t array; ms : Km.t array }

let build () =
  { cs = Array.init n_counters (fun _ -> Kc.create ~n:2 ~k ());
    ms = Array.init n_maxregs (fun _ -> Km.create ~m ~k ()) }

(* Per-domain state, written only by its own domain. *)
type dom = {
  d : int;
  sc : script;
  mutable pos : int;
  own_cnt : int array;  (* this domain's increments per counter *)
  own_max : int array;  (* this domain's largest write per register *)
  mutable viol : int;
  mutable ops : int;  (* every op executed, warm-up included *)
  ns_by_kind : int array;
  ops_by_kind : int array;
  mutable read_h : Fine.t array;  (* per window of the timed phase *)
  mutable upd_h : Fine.t array;
  win_ops : int array;  (* ops completed per window of the timed phase *)
  mutable spans : Spans.t;
}

let new_dom sc d =
  { d;
    sc;
    pos = 0;
    own_cnt = Array.make n_counters 0;
    own_max = Array.make n_maxregs 0;
    viol = 0;
    ops = 0;
    ns_by_kind = Array.make 5 0;
    ops_by_kind = Array.make 5 0;
    read_h = [||];
    upd_h = [||];
    win_ops = Array.make max_windows 0;
    spans = Spans.empty () }

let reset_measure s ~nwin =
  Array.fill s.ns_by_kind 0 5 0;
  Array.fill s.ops_by_kind 0 5 0;
  Array.fill s.win_ops 0 max_windows 0;
  s.read_h <- Array.init nwin (fun _ -> Fine.create ());
  s.upd_h <- Array.init nwin (fun _ -> Fine.create ())

(* One batch. Every read is checked against what this domain alone has
   completed: a counter read must be >= own increments / k, a max
   register read >= this domain's largest write (Algorithm 2 reads
   never undershoot). *)
let run_batch o s b =
  let sc = s.sc and d = s.d in
  let base = b * bsz in
  (match sc.kind.(b) with
  | 0 ->
    for j = base to base + bsz - 1 do
      let t = sc.tgt.(j) in
      Kc.increment o.cs.(t) ~pid:d;
      s.own_cnt.(t) <- s.own_cnt.(t) + 1
    done
  | 1 ->
    for j = base to base + bsz - 1 do
      let t = sc.tgt.(j) and x = sc.v.(j) in
      Kc.add o.cs.(t) ~pid:d x;
      s.own_cnt.(t) <- s.own_cnt.(t) + x
    done
  | 2 ->
    for j = base to base + bsz - 1 do
      let t = sc.tgt.(j) and x = sc.v.(j) in
      Km.write o.ms.(t) x;
      if x > s.own_max.(t) then s.own_max.(t) <- x
    done
  | 3 ->
    for j = base to base + bsz - 1 do
      let t = sc.tgt.(j) in
      if Kc.read_fast o.cs.(t) ~pid:d * k < s.own_cnt.(t) then
        s.viol <- s.viol + 1
    done
  | _ ->
    for j = base to base + bsz - 1 do
      let t = sc.tgt.(j) in
      if Km.read_fast o.ms.(t) < s.own_max.(t) then s.viol <- s.viol + 1
    done);
  s.ops <- s.ops + bsz;
  s.pos <- (if b + 1 = nbatches then 0 else b + 1)

let warm o s =
  for _ = 1 to warm_batches do
    run_batch o s s.pos
  done

let measure o s ~t0 ~t_end ~nwin ~trace =
  reset_measure s ~nwin;
  let t_prev = ref (now_ns ()) in
  while !t_prev < t_end do
    let b = s.pos in
    run_batch o s b;
    let t = now_ns () in
    let kd = s.sc.kind.(b) and dt = t - !t_prev in
    s.ns_by_kind.(kd) <- s.ns_by_kind.(kd) + dt;
    s.ops_by_kind.(kd) <- s.ops_by_kind.(kd) + bsz;
    let w = window_of ~t0 t in
    s.win_ops.(w) <- s.win_ops.(w) + bsz;
    if w < nwin then Fine.add (if is_read kd then s.read_h.(w) else s.upd_h.(w)) ~ns:dt ~ops:bsz;
    if trace then Spans.add s.spans ~name:kd ~key:bsz ~t0:!t_prev ~t1:t;
    t_prev := t
  done

let both f s0 s1 =
  let h = Domain.spawn (fun () -> f s1) in
  f s0;
  Domain.join h

(* Quiesced final reads against exact totals: every counter within
   [exact/k, k*exact], every register within [max, k*max]. Returns the
   number of violations and the worst error factor (>= 1). *)
let final_check o s0 s1 =
  let viol = ref 0 and worst = ref 1.0 in
  let factor v x =
    if v > 0 && x > 0 then
      worst :=
        Float.max !worst
          (Float.max (float_of_int v /. float_of_int x) (float_of_int x /. float_of_int v))
  in
  Array.iteri
    (fun i c ->
      let x = s0.own_cnt.(i) + s1.own_cnt.(i) and v = Kc.read c ~pid:0 in
      if v * k < x || v > k * x then incr viol;
      factor v x)
    o.cs;
  Array.iteri
    (fun i r ->
      let x = max s0.own_max.(i) s1.own_max.(i) and v = Km.read r in
      if v < x || v > k * x then incr viol;
      factor v x)
    o.ms;
  (!viol, !worst)

(* Step counts: the same functors over an [Atomic_backend] context that
   counts primitives per pid (the paper's cost measure), one pass of
   both scripts concurrently. *)
module B = Probe.B
module KC = Probe.KC
module KM = Probe.KM

let steps_per_kind sc0 sc1 =
  let ctx = B.ctx ~count_steps:2 () in
  let cs = Array.init n_counters (fun _ -> KC.create ctx ~n:2 ~k ()) in
  let ms = Array.init n_maxregs (fun _ -> KM.create ctx ~n:2 ~m ~k ()) in
  let run (d, sc, steps) =
    for b = 0 to nbatches - 1 do
      let s0 = B.steps ctx ~pid:d in
      for j = b * bsz to ((b + 1) * bsz) - 1 do
        let t = sc.tgt.(j) in
        match sc.kind.(b) with
        | 0 -> KC.increment cs.(t) ~pid:d
        | 1 -> KC.add cs.(t) ~pid:d sc.v.(j)
        | 2 -> KM.write ms.(t) ~pid:d sc.v.(j)
        | 3 -> ignore (KC.read_fast cs.(t) ~pid:d)
        | _ -> ignore (KM.read_fast ms.(t) ~pid:d)
      done;
      let kd = sc.kind.(b) in
      steps.(kd) <- steps.(kd) + B.steps ctx ~pid:d - s0
    done
  in
  let st0 = Array.make 5 0 and st1 = Array.make 5 0 in
  both run (0, sc0, st0) (1, sc1, st1);
  let ops kd =
    let count sc = Array.fold_left (fun a x -> if x = kd then a + bsz else a) 0 sc.kind in
    count sc0 + count sc1
  in
  Array.init 5 (fun kd -> ratio (st0.(kd) + st1.(kd)) (ops kd))

let replay_ops = 65536

(* The first [replay_ops] ops of each script as service frames over an
   equivalent object table (counters c<i>, registers m<i>), for the
   wire/objects and persistence probes of the traced run. *)
let service_replay sc0 sc1 ~run_dir =
  let module O = Service.Objects in
  let specs =
    List.init n_counters (fun i -> { O.name = Printf.sprintf "c%d" i; kind = O.Kcounter { k } })
    @ List.init n_maxregs (fun i -> { O.name = Printf.sprintf "m%d" i; kind = O.Kmaxreg { k; m } })
  in
  let reqs sc =
    Array.init replay_ops (fun j ->
        let t = sc.tgt.(j) and x = sc.v.(j) and id = j in
        let c = Printf.sprintf "c%d" t and r = Printf.sprintf "m%d" t in
        match sc.kind.(j / bsz) with
        | 0 -> Service.Wire.Inc { id; name = c }
        | 1 -> Service.Wire.Add { id; name = c; delta = x }
        | 2 -> Service.Wire.Write { id; name = r; value = x }
        | 3 -> Service.Wire.Read { id; name = c }
        | _ -> Service.Wire.Read { id; name = r })
  in
  let wspans = Spans.create 64 and pspans = Spans.create 32768 in
  let wire, table = Probe.wire_objects ~specs (Array.append (reqs sc0) (reqs sc1)) ~reps:4 wspans in
  let persist =
    Probe.persist
      ~scratch:(Filename.concat run_dir "objects-inproc-persist")
      ~src:None ~entries:(Probe.exports table) ~fsync:(Persist.Wal.Every_n 16) pspans
  in
  (wire @ persist, wspans, pspans)

let run ~seed ~seconds ~trace ~run_dir (r : result) =
  let sc0 = make_script ~seed ~d:0 and sc1 = make_script ~seed ~d:1 in
  (* Set-up: build the objects and warm them from both domains; done
     [setups] times, the median is setup_s and the last set is kept. *)
  let last = ref None and times = ref [] and total_ops = ref 0 in
  for _ = 1 to setups do
    (match !last with
    | Some (_, s0, s1) -> total_ops := !total_ops + s0.ops + s1.ops
    | None -> ());
    let t0 = now_ns () in
    let o = build () in
    let s0 = new_dom sc0 0 and s1 = new_dom sc1 1 in
    both (warm o) s0 s1;
    times := (float_of_int (now_ns () - t0) /. 1e9) :: !times;
    last := Some (o, s0, s1)
  done;
  let o, s0, s1 = Option.get !last in
  (* Collect the earlier set-ups' objects now, so the peak RSS does not
     depend on when the GC would have got to them. *)
  Gc.full_major ();
  (* One timed phase; returns the windowed throughput of both domains. *)
  let phase ~secs ~traced =
    let t0 = now_ns () in
    let t_end = t0 + int_of_float (secs *. 1e9) in
    let nwin = full_windows secs in
    both (fun s -> measure o s ~t0 ~t_end ~nwin ~trace:traced) s0 s1;
    windowed_rate (Array.map2 ( + ) s0.win_ops s1.win_ops) nwin
  in
  if not trace then begin
    let tput = phase ~secs:seconds ~traced:false in
    r.e2e <- [ ("throughput_ops_s", tput) ];
    let report prefix h0 h1 =
      report_latency r ~prefix
        (Array.to_list
           (Array.map2
              (fun a b ->
                let h = Fine.merge a b in
                (h.Fine.n, Fine.pct h))
              h0 h1))
    in
    report "read" s0.read_h s1.read_h;
    report "update" s0.upd_h s1.upd_h;
    r.e2e <-
      r.e2e
      @ [ ("setup_s", median_float !times); ("peak_rss_mb", peak_rss_mb "self") ]
  end
  else begin
    (* Half the window untraced, half traced: the difference in
       throughput is the tracing overhead. *)
    let untraced = phase ~secs:(seconds /. 2.0) ~traced:false in
    s0.spans <- Spans.create 262144;
    s1.spans <- Spans.create 262144;
    let traced = phase ~secs:(seconds /. 2.0) ~traced:true in
    let ns kd =
      ratio (s0.ns_by_kind.(kd) + s1.ns_by_kind.(kd)) (s0.ops_by_kind.(kd) + s1.ops_by_kind.(kd))
    in
    let c_hit = ref 0 and c_miss = ref 0 and m_hit = ref 0 and m_miss = ref 0 in
    Array.iter
      (fun c ->
        for pid = 0 to 1 do
          c_hit := !c_hit + Kc.fast_hits c ~pid;
          c_miss := !c_miss + Kc.fast_misses c ~pid
        done)
      o.cs;
    Array.iter
      (fun reg ->
        m_hit := !m_hit + Km.fast_hits reg;
        m_miss := !m_miss + Km.fast_misses reg)
      o.ms;
    let steps = steps_per_kind sc0 sc1 in
    let replay, wspans, pspans = service_replay sc0 sc1 ~run_dir in
    r.layers <-
      [ ("algo.inc_ns", ns 0);
        ("algo.add_ns", ns 1);
        ("algo.maxreg_write_ns", ns 2);
        ("algo.read_ns", ns 3);
        ("algo.maxreg_read_ns", ns 4);
        ("algo.read_cache_hit_ratio", ratio !c_hit (!c_hit + !c_miss));
        ("algo.maxreg_read_cache_hit_ratio", ratio !m_hit (!m_hit + !m_miss));
        ("backend.steps_per_inc", steps.(0));
        ("backend.steps_per_maxreg_write", steps.(2));
        ("backend.steps_per_read", steps.(3));
        ("backend.steps_per_maxreg_read", steps.(4));
        ("trace.overhead_pct", (untraced -. traced) /. untraced *. 100.0) ]
      @ replay;
    let oc = open_out (Filename.concat run_dir "trace-objects-inproc.csv") in
    output_string oc "layer,span,source,key,start_ns,end_ns\n";
    Spans.write oc ~layer:"algo" ~names:Probe.algo_kinds ~source:0 s0.spans;
    Spans.write oc ~layer:"algo" ~names:Probe.algo_kinds ~source:1 s1.spans;
    Spans.write oc ~layer:"service" ~names:Probe.wire_kinds ~source:0 wspans;
    Spans.write oc ~layer:"persist" ~names:Probe.persist_kinds ~source:0 pspans;
    close_out oc
  end;
  let viol, worst = final_check o s0 s1 in
  if trace then r.layers <- r.layers @ [ ("algo.read_err_factor", worst) ];
  violation r (viol + s0.viol + s1.viol);
  r.attempted <- !total_ops + s0.ops + s1.ops + n_counters + n_maxregs
