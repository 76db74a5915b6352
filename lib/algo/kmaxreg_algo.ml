(* Algorithm 2 — the k-multiplicative-accurate m-bounded max register
   (Section IV) — over an abstract primitive backend. Write(v) stores
   floor(log_k v) + 1 into an exact bounded max register M of bound
   floor(log_k (m-1)) + 2; Read returns 0 or k^p. The inner exact
   register defaults to the shared AACH switch heap
   (Tree_maxreg_algo.Make (B)); wrappers may substitute any exact
   register handle (Approx.Kmaxreg keeps the simulator's tree-vs-
   snapshot selection that realises the O(min(log2 log_k m, n)) bound
   of Theorem IV.2). *)

module Make (B : Backend.Backend_intf.S) = struct
  module Tree = Tree_maxreg_algo.Make (B)

  (* Per-pid validated read cache (see Kcounter_algo.read_fast for the
     protocol and the linearizability argument). Only available when
     the inner register is the default switch heap, whose modification
     watermark Tree.version exposes; a custom inner handle is opaque,
     so read_fast then degrades to the plain read. *)
  type cache = {
    mutable cache_value : int;
    mutable cache_version : int;  (* -1 = nothing cached *)
    mutable fast_hits : int;
    mutable fast_misses : int;
  }

  type t = {
    m : int;
    k : int;
    inner : Obj_intf.max_register;
    tree : Tree.t option;  (* the default inner, when we built it *)
    top : B.cas_cell;  (* write_fast's futility threshold, see below *)
    caches : cache array;
  }

  let inner_bound ~m ~k = Zmath.floor_log ~base:k (m - 1) + 2

  let create ctx ?(name = "kmax") ?inner ?(n = 1) ~m ~k () =
    if k < 2 then invalid_arg "Kmaxreg_algo.create: k < 2";
    if m < 2 then invalid_arg "Kmaxreg_algo.create: m < 2";
    if n < 1 then invalid_arg "Kmaxreg_algo.create: n < 1";
    let inner_tree, inner =
      match inner with
      | Some handle -> (None, handle)
      | None ->
        (* M stores indices 0 .. floor(log_k (m-1)) + 1. *)
        let tree = Tree.create ctx ~name ~m:(inner_bound ~m ~k) () in
        (Some tree, Tree.handle tree)
    in
    { m;
      k;
      inner;
      tree = inner_tree;
      top = B.cas_cell ctx ~name:(name ^ ".top") 1;
      caches =
        Array.init n (fun _ ->
            Backend.Padded.copy
              { cache_value = 0;
                cache_version = -1;
                fast_hits = 0;
                fast_misses = 0 }) }

  let check_value t v =
    if v < 0 || v >= t.m then invalid_arg "Kmaxreg_algo.write: value out of range"

  let write t ~pid v =
    check_value t v;
    if v > 0 then
      (* lines 8-9: index of the bit left of v's base-k MSB *)
      t.inner.Obj_intf.mr_write ~pid (Zmath.floor_log ~base:t.k v + 1)

  (* Futile-write filter (DESIGN §9). [top] holds T = min(k^p, max_int)
     for the largest index p whose inner write has returned (1 before
     any), so the inner register already holds at least p, and a value
     v < T (whose index floor(log_k v) + 1 is then at most p) is
     covered: the write linearizes at the [top] load. [top] must only
     be raised after the inner write returns; raising it first lets a
     covered write return before the register shows it. A CAS fails
     only when another write raised [top], which takes at most
     [inner_bound] distinct values, so the loop is wait-free. *)
  let rec raise_top t ~pid target =
    let cur = B.cas_read t.top ~pid in
    if
      cur < target
      && not (B.compare_and_set t.top ~pid ~expect:cur ~value:target)
    then raise_top t ~pid target

  let write_fast t ~pid v =
    check_value t v;
    if v >= B.cas_read t.top ~pid then begin
      let p = Zmath.floor_log ~base:t.k v + 1 in
      t.inner.Obj_intf.mr_write ~pid p;
      raise_top t ~pid (Zmath.pow_sat t.k p)
    end

  (* Lines 2-5. k^p saturates at max_int: when k^p overflows, every
     written v satisfies k^(p-1) <= v <= max_int < k^p, so max_int is
     still within the k-envelope. *)
  let read t ~pid =
    match t.inner.Obj_intf.mr_read ~pid with
    | 0 -> 0
    | p -> Zmath.pow_sat t.k p

  (* Validated-cache read over the inner heap's watermark; same
     hit/miss protocol as Kcounter_algo.read_fast. Requires [pid] to be
     within the [n] given at creation. *)
  let read_fast t ~pid =
    match t.tree with
    | None -> read t ~pid
    | Some tree ->
      let s = t.caches.(pid) in
      let v = Tree.version tree ~pid in
      if v = s.cache_version then begin
        s.fast_hits <- s.fast_hits + 1;
        s.cache_value
      end
      else begin
        s.fast_misses <- s.fast_misses + 1;
        let value = read t ~pid in
        if Tree.version tree ~pid = v then begin
          s.cache_value <- value;
          s.cache_version <- v
        end;
        value
      end

  let fast_hits t ~pid = t.caches.(pid).fast_hits
  let fast_misses t ~pid = t.caches.(pid).fast_misses

  let bound t = t.m
  let k t = t.k

  let handle t =
    { Obj_intf.mr_label = Printf.sprintf "kmaxreg(k=%d)" t.k;
      mr_write = (fun ~pid v -> write t ~pid v);
      mr_read = (fun ~pid -> read t ~pid) }
end
