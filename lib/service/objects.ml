type kind =
  | Kcounter of { k : int }
  | Faa
  | Kmaxreg of { k : int; m : int }
  | Cas_maxreg

type spec = { name : string; kind : kind }

let kind_label = function
  | Kcounter _ -> "kcounter"
  | Faa -> "faa"
  | Kmaxreg _ -> "kmaxreg"
  | Cas_maxreg -> "cas-maxreg"

let is_counter = function
  | Kcounter _ | Faa -> true
  | Kmaxreg _ | Cas_maxreg -> false

let kind_k = function
  | Kcounter { k } | Kmaxreg { k; _ } -> k
  | Faa | Cas_maxreg -> 1

let default_specs ~counters ~k =
  if counters < 1 then invalid_arg "Objects.default_specs: counters < 1";
  if k < 2 then invalid_arg "Objects.default_specs: k < 2";
  List.init counters (fun i ->
      { name = Printf.sprintf "c%d" i; kind = Kcounter { k } })
  @ [ { name = "faa"; kind = Faa };
      { name = "kmaxreg"; kind = Kmaxreg { k; m = 1 lsl 30 } };
      { name = "cas-maxreg"; kind = Cas_maxreg } ]

(* The debug exact shadow is a plain mutable int: the owning shard is
   the only writer and compares in the same serialised step. *)
type impl =
  | I_kcounter of Mcore.Mc_kcounter.t * int ref * int  (* counter, exact, k *)
  | I_faa of Mcore.Mc_baselines.Faa_counter.t
  | I_kmaxreg of Mcore.Mc_kmaxreg.t * int ref * int * int  (* reg, exact, k, m *)
  | I_casmax of Mcore.Mc_baselines.Cas_maxreg.t

(* [pending_delta]/[o_dirty] and [batch_value]/[batch_stamp] are
   drain-batch scratch, touched only under the owning shard's lock
   between a drain's accumulate and reply phases (Server.exec_batch):
   deferred increments fused into one [apply_pending], and the one
   computed read value every READ of the drain is answered from.

   Replication state ([r_*]) is written only by the owning shard —
   remote merges are batched like any other op
   — and read racily by the gossip-sender domain. Every replicated
   quantity is monotone (G-counter slots, maxima), so a torn export is
   a pointwise lower bound of the current state, which gossip merges
   absorb harmlessly. [r_last_sent] is the one field the sender writes
   (its export watermark); the shard only reads it, for the
   k_staleness boundary check. *)
type obj = {
  o_id : int;  (* dense index into the table array *)
  o_spec : spec;
  o_shard : int;
  o_node : int;  (* this server's node id *)
  o_nodes : int;  (* cluster width = counter vector width *)
  impl : impl;
  o_stats : Metrics.obj;
  mutable pending_delta : int;
  mutable o_dirty : bool;
  mutable batch_value : int;
  mutable batch_stamp : int;  (* drain stamp of batch_value; -1 = none *)
  mutable r_base : int;  (* own contribution recovered from peers after restart *)
  mutable r_recovering : bool;  (* withhold own slot until the first echo *)
  r_vec : int array;  (* merged remote slots (own slot unused) *)
  mutable r_remote : int;  (* cached r_base + sum of remote slots *)
  mutable r_max_remote : int;  (* merged remote max (max kinds) *)
  mutable r_last_sent : int;  (* gossip sender's export watermark *)
  r_gossip_dirty : bool Atomic.t;  (* shard sets, sender test-and-clears *)
  mutable p_last_logged : int;  (* [known] at the last WAL record *)
}

let id o = o.o_id
let spec o = o.o_spec
let shard_of o = o.o_shard
let stats o = o.o_stats
let is_counter_obj o = is_counter o.o_spec.kind

(* ADD deltas beyond this are rejected as Bad_request: it keeps a
   drain's fused total (max_batch * delta) far from int overflow while
   allowing any sane client-side batch. *)
let max_add_delta = 1 lsl 32

(* Name -> dense id; the id indexes the immutable [objs] array. The
   per-request hot path never touches the Hashtbl after a
   connection's first request for a name — the connection's intern
   cache short-circuits straight to the id (see {!Intern}). *)
type table = { by_name : (string, int) Hashtbl.t; objs : obj array }

(* Routing hashes the full name (FNV-1a), not Hashtbl.hash's sampled
   prefix: generated namespaces with long shared prefixes would
   otherwise pile onto one shard. *)
let shard_of_name ~shards name = Fnv.hash name mod shards

let build ?(nodes = 1) ?(node_id = 0) ~metrics ~shards specs =
  (* An empty spec list is legal: a cluster node may own no slice of
     the placement ring and still serve STATS/gossip. *)
  if nodes < 1 then invalid_arg "Objects.build: nodes < 1";
  if node_id < 0 || node_id >= nodes then
    invalid_arg "Objects.build: node_id outside 0..nodes-1";
  let by_name = Hashtbl.create 64 in
  let objs =
    List.mapi
      (fun i s ->
        if Hashtbl.mem by_name s.name then
          invalid_arg ("Objects.build: duplicate object name " ^ s.name);
        if String.length s.name > Wire.max_name_len || s.name = "" then
          invalid_arg ("Objects.build: bad object name " ^ s.name);
        let shard = shard_of_name ~shards s.name in
        let impl =
          match s.kind with
          | Kcounter { k } ->
            I_kcounter (Mcore.Mc_kcounter.create ~n:shards ~k (), ref 0, k)
          | Faa -> I_faa (Mcore.Mc_baselines.Faa_counter.create ())
          | Kmaxreg { k; m } ->
            I_kmaxreg (Mcore.Mc_kmaxreg.create ~m ~k (), ref 0, k, m)
          | Cas_maxreg -> I_casmax (Mcore.Mc_baselines.Cas_maxreg.create ())
        in
        let o =
          { o_id = i;
            o_spec = s;
            o_shard = shard;
            o_node = node_id;
            o_nodes = nodes;
            impl;
            o_stats =
              Metrics.add_obj metrics ~name:s.name ~kind:(kind_label s.kind)
                ~k:(kind_k s.kind) ~shard;
            pending_delta = 0;
            o_dirty = false;
            batch_value = 0;
            batch_stamp = -1;
            r_base = 0;
            r_recovering = false;
            r_vec = Array.make nodes 0;
            r_remote = 0;
            r_max_remote = 0;
            r_last_sent = 0;
            r_gossip_dirty = Atomic.make false;
            p_last_logged = 0 }
        in
        Hashtbl.add by_name s.name i;
        o)
      specs
    |> Array.of_list
  in
  { by_name; objs }

(* [Hashtbl.find] rather than [find_opt]: the stored value is an
   immediate int and [Not_found] is a preallocated constant, so the
   miss path of the intern cache allocates nothing either way. *)
let find_id t name =
  match Hashtbl.find t.by_name name with
  | i -> i
  | exception Not_found -> -1

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> Some t.objs.(i)
  | None -> None

let get t i = t.objs.(i)
let count t = Array.length t.objs
let iter f t = Array.iter f t.objs
let to_list t = Array.to_list t.objs

(* ------------------------------------------------------------------ *)
(* Per-connection name interning                                       *)
(* ------------------------------------------------------------------ *)

(* A direct-mapped cache from object name to dense id, one per
   connection. The per-request path used to pay a full [Hashtbl.hash]
   + bucket-chain walk per frame — a dependent-load chain through the
   bucket list on every op. A client overwhelmingly re-sends the same
   few names on one connection, so a 64-slot direct-mapped probe (one
   FNV pass over the name, one array read, one string compare — the
   compare's loads are independent of the table's) almost always
   resolves the id without touching the Hashtbl. Misses fall back to
   the table and install the mapping. No invalidation is ever needed:
   the table is immutable after [build], so a cached (name, id) pair
   can never go stale.

   The probe is split from the install ([find_cached] / [store]) so
   the hit path returns a bare int — no option, no tuple, zero
   allocation. *)
module Intern = struct
  let slots = 64
  let ways = 2

  (* Set [s] is slots [2s] (the newer entry) and [2s + 1]. *)
  type t = {
    in_names : string array;  (* "" = empty slot *)
    in_ids : int array;  (* -1 = empty slot *)
  }

  let create () =
    { in_names = Array.make slots ""; in_ids = Array.make slots (-1) }

  let set_base name = (Fnv.hash name land ((slots / ways) - 1)) * ways

  (* The cached dense id, or -1. A hit costs one FNV pass plus at most
     two string compares; no allocation. *)
  let find_cached t name =
    let s = set_base name in
    if String.equal (Array.unsafe_get t.in_names s) name then
      Array.unsafe_get t.in_ids s
    else if String.equal (Array.unsafe_get t.in_names (s + 1)) name then
      Array.unsafe_get t.in_ids (s + 1)
    else -1

  (* Insert as the set's newer entry; the older one is evicted. A name
     already cached keeps its slot. *)
  let store t name id =
    let s = set_base name in
    if String.equal t.in_names.(s) name then t.in_ids.(s) <- id
    else if String.equal t.in_names.(s + 1) name then t.in_ids.(s + 1) <- id
    else begin
      t.in_names.(s + 1) <- t.in_names.(s);
      t.in_ids.(s + 1) <- t.in_ids.(s);
      t.in_names.(s) <- name;
      t.in_ids.(s) <- id
    end
end

(* ------------------------------------------------------------------ *)
(* Replication (merge on owning shard; export from any domain)         *)
(* ------------------------------------------------------------------ *)

(* This node's locally applied contribution, excluding the recovered
   base: applied increments for counters, the largest local write for
   max registers. *)
let own_applied o =
  match o.impl with
  | I_kcounter (_, exact, _) -> !exact
  | I_faa c -> Mcore.Mc_baselines.Faa_counter.read c
  | I_kmaxreg (_, exact, _, _) -> !exact
  | I_casmax r -> Mcore.Mc_baselines.Cas_maxreg.read r

let own_total o =
  if is_counter_obj o then o.r_base + own_applied o else own_applied o

(* The node's full merged (exact-side) view: what the cluster is known
   to have reached. The widened-envelope accuracy check compares
   served reads against this. *)
let known o =
  if is_counter_obj o then own_applied o + o.r_remote
  else max (own_applied o) o.r_max_remote

let refresh_repl o =
  o.o_stats.repl_own_total <- own_total o;
  o.o_stats.repl_known <- known o;
  o.o_stats.repl_recovering <- o.r_recovering

(* Restart-base recovery. A blank node cannot tell its pre-crash
   contribution T apart from post-restart increments, and a peer's
   echo of its slot cannot either — so the two epochs must never be
   reconciled by subtraction while both are moving. Instead the node
   starts [recovering]: it keeps serving clients (increments apply
   locally as usual) but exports only [r_base] in its own slot, never
   the mixed [own_total]. Peer echoes therefore stay purely pre-crash
   and recovery is plain [max] into [r_base]; the first echo ends the
   window and unlocks [own_total] exports, so nothing acked during the
   window is lost. The server arms this only for clustered counters
   that some configured peer also hosts — an un-replicated object has
   no echo to wait for. *)
let begin_recovery o =
  if is_counter_obj o && o.o_nodes > 1 then begin
    o.r_recovering <- true;
    refresh_repl o
  end

let recovering o = o.r_recovering

(* The own-slot value gossip may carry: the recovered base alone while
   recovering, the full own contribution after. Read racily by the
   gossip sender — both stale answers are monotone lower bounds. *)
let own_export o = if o.r_recovering then o.r_base else own_total o

(* Standalone servers skip the dirty flag entirely — nothing drains
   it — keeping the single-node hot path byte-identical. *)
let mark_dirty o = if o.o_nodes > 1 then Atomic.set o.r_gossip_dirty true

let merge_delta o (d : Persist.Delta.t) =
  match (d, o.impl) with
  | Persist.Delta.Counter v, (I_kcounter _ | I_faa _)
    when Array.length v = o.o_nodes ->
    let self = o.o_node in
    let remote = ref 0 in
    let changed = ref false in
    for j = 0 to o.o_nodes - 1 do
      if j = self then begin
        (* Our own slot echoed back. A negative value is the sparse
           sentinel, not an echo: compact GOSSIP2 dirty pushes omit
           the receiver's slot, and the server rebuilds the absent
           slot as -1 so "the sender did not speak about it" cannot
           be confused with "the sender's copy is zero" — a zero
           (full-vector) echo legitimately closes the recovery window
           below, an absent slot must leave it open. While recovering
           the echo is purely pre-crash state (we export only
           [r_base], see [begin_recovery]), so the base is a plain
           max. Afterwards every echo should sit at or below
           [own_total]; one that does not proves a pre-crash
           contribution this node still has not claimed, and the
           subtraction conservatively folds the excess into the
           base. *)
        if v.(j) >= 0 then begin
          let recovered =
            if o.r_recovering then v.(j) else v.(j) - own_applied o
          in
          if recovered > o.r_base then begin
            o.r_base <- recovered;
            changed := true
          end;
          if o.r_recovering then begin
            (* First echo: the recovery window closes and the withheld
               own contribution becomes exportable — mark dirty so the
               next tick ships it. *)
            o.r_recovering <- false;
            changed := true
          end
        end
      end
      else begin
        if v.(j) > o.r_vec.(j) then begin
          o.r_vec.(j) <- v.(j);
          changed := true
        end;
        remote := !remote + o.r_vec.(j)
      end
    done;
    o.r_remote <- o.r_base + !remote;
    if !changed then mark_dirty o;
    refresh_repl o;
    true
  | Persist.Delta.Max v, (I_kmaxreg _ | I_casmax _) ->
    if v > o.r_max_remote then begin
      o.r_max_remote <- v;
      mark_dirty o
    end;
    refresh_repl o;
    true
  | Persist.Delta.Counter _, _ | Persist.Delta.Max _, _ ->
    o.o_stats.rejects <- o.o_stats.rejects + 1;
    false

(* Has our own contribution grown past the staleness budget since the
   last export? Crossing it wakes the gossip sender early, so a peer
   that merged the previous export still holds >= own/k_staleness.
   Quiet while recovering: the own slot is withheld from exports, so
   kicking the sender could not narrow the gap anyway. *)
let boundary_crossed o ~k_staleness =
  let own = own_total o in
  (not o.r_recovering) && own > 0 && own >= k_staleness * o.r_last_sent

let take_dirty o = Atomic.exchange o.r_gossip_dirty false
let mark_exported o = o.r_last_sent <- own_export o
let last_sent o = o.r_last_sent
let nodes o = o.o_nodes

(* Allocation-free export for the coalesced sender: fill the caller's
   scratch array (>= o_nodes wide) with the gossip export vector.
   Racy from the gossip domain: every field read is monotone, so a
   torn snapshot is a pointwise lower bound of the current state —
   safe to merge anywhere, any number of times. *)
let export_counter_into o dst =
  let self = o.o_node in
  for j = 0 to o.o_nodes - 1 do
    Array.unsafe_set dst j
      (if j = self then own_export o else Array.unsafe_get o.r_vec j)
  done

let export_max o = max (own_applied o) o.r_max_remote

(* Anti-entropy summary of the gossip export: a 32-bit truncated FNV
   fold of the vector plus its total. Two replicas whose exports are
   equal produce equal (fp, total); a divergence flips the total
   unless the vectors differ in compensating slots, and then the
   avalanche-mixed fingerprint catches it — the pair colliding while
   the vectors differ needs a 32-bit fp collision on top of an equal
   total. Racy from the gossip domain like every export: a torn read
   can only produce a stale summary, and a spurious mismatch just
   costs one redundant repair push (merges are idempotent). *)
let digest o =
  if is_counter_obj o then begin
    let h = ref Fnv.init and total = ref 0 in
    let self = o.o_node in
    for j = 0 to o.o_nodes - 1 do
      let v = if j = self then own_export o else Array.unsafe_get o.r_vec j in
      h := Fnv.mix_int !h v;
      total := !total + v
    done;
    (Fnv.finish !h land 0xFFFF_FFFF, !total)
  end
  else begin
    let v = export_max o in
    (Fnv.finish (Fnv.mix_int Fnv.init v) land 0xFFFF_FFFF, v)
  end

(* A digest agreed with a peer while this object was still waiting
   for its restart echo: the peer's copy of our own slot equals our
   exported [r_base], so the pre-crash contribution is fully
   accounted for and the window may close. This is the anti-entropy
   replacement for the full-sync frames that used to close the
   window as a side effect — without it a fresh all-zero cluster
   (both sides recovering, exports identical, nothing ever diverges)
   would withhold own contributions forever. Owning shard only,
   routed like a merge. *)
let confirm_echo o =
  if o.r_recovering then begin
    o.r_recovering <- false;
    mark_dirty o;
    refresh_repl o
  end

(* ------------------------------------------------------------------ *)
(* Durability (owning shard, except the fuzzy snapshot export)          *)
(* ------------------------------------------------------------------ *)

(* The WAL/snapshot export. Unlike the gossip export it always puts
   the full [own_total] in the own slot, recovery window or not:
   replay happens only at process start, before any client op or peer
   echo, so the epoch-subtraction hazard that makes gossip withhold
   the own slot cannot arise on the disk path. Max kinds persist the
   full merged maximum. Racy when called from the snapshot domain —
   every field is monotone, so a torn export is a pointwise lower
   bound, which is exactly what a fuzzy snapshot is allowed to be. *)
let persist_export o =
  if is_counter_obj o then
    Persist.Delta.Counter
      (Array.init o.o_nodes (fun j ->
           if j = o.o_node then own_total o else o.r_vec.(j)))
  else Persist.Delta.Max (known o)

(* Envelope-aware batching: a record is due only when the merged value
   has grown past the object's approximation factor since the last
   record, so losing every unlogged op still leaves a restart within
   the k-envelope. Exact kinds (k = 1) have no slack to spend and log
   every change. *)
let persist_due o =
  let v = known o in
  let k = kind_k o.o_spec.kind in
  if k < 2 then v <> o.p_last_logged
  else v > 0 && v >= k * o.p_last_logged

let mark_persisted o = o.p_last_logged <- known o

(* Install recovered state (build phase, before any client op, peer
   echo or [begin_recovery]). Counters fold the recovered own slot
   into [r_base] — post-restart increments then stack on top — and
   remote slots into the merged view; max kinds fold into the merged
   remote max, which reads already serve. A kind or width mismatch
   (the name was redefined across restarts) drops the record and
   counts a reject rather than refusing to start. *)
let recover o (d : Persist.Delta.t) =
  match (d, o.impl) with
  | Persist.Delta.Counter v, (I_kcounter _ | I_faa _)
    when Array.length v = o.o_nodes ->
    let self = o.o_node in
    let remote = ref 0 in
    for j = 0 to o.o_nodes - 1 do
      if j = self then begin
        if v.(j) > o.r_base then o.r_base <- v.(j)
      end
      else begin
        if v.(j) > o.r_vec.(j) then o.r_vec.(j) <- v.(j);
        remote := !remote + o.r_vec.(j)
      end
    done;
    o.r_remote <- o.r_base + !remote;
    o.p_last_logged <- known o;
    mark_dirty o;
    refresh_repl o;
    true
  | Persist.Delta.Max v, (I_kmaxreg _ | I_casmax _) ->
    if v > o.r_max_remote then o.r_max_remote <- v;
    o.p_last_logged <- known o;
    mark_dirty o;
    refresh_repl o;
    true
  | Persist.Delta.Counter _, _ | Persist.Delta.Max _, _ ->
    o.o_stats.rejects <- o.o_stats.rejects + 1;
    false

(* ------------------------------------------------------------------ *)
(* Operations (owning shard only)                                      *)
(* ------------------------------------------------------------------ *)

let inc o ~pid =
  match o.impl with
  | I_kcounter (c, exact, _) ->
    Mcore.Mc_kcounter.increment c ~pid;
    incr exact;
    o.o_stats.incs <- o.o_stats.incs + 1;
    mark_dirty o;
    refresh_repl o;
    Ok 0
  | I_faa c ->
    Mcore.Mc_baselines.Faa_counter.increment c;
    o.o_stats.incs <- o.o_stats.incs + 1;
    mark_dirty o;
    refresh_repl o;
    Ok 0
  | I_kmaxreg _ | I_casmax _ ->
    o.o_stats.rejects <- o.o_stats.rejects + 1;
    Error ()

(* [lower_exact]: Algorithm 2 rounds up to a power of k, so a max
   register must additionally serve [>= exact]; Algorithm 1 may round
   either way within [exact/k .. exact*k]. *)
let accuracy_check o ~k ~served ~exact ~lower_exact =
  o.o_stats.acc_checks <- o.o_stats.acc_checks + 1;
  o.o_stats.last_served <- served;
  o.o_stats.last_exact <- exact;
  let ok =
    Zmath.within_k ~k ~exact served && ((not lower_exact) || served >= exact)
  in
  if not ok then o.o_stats.acc_violations <- o.o_stats.acc_violations + 1

(* Reads take the validated-cache fast path, then widen with the
   merged remote state: counters serve local approx + remote exact
   contributions, max registers serve the max of both sides. The
   self-check stays exact and node-local — the owning shard is the
   object's only mutator (merges included), so comparing against
   [known] at the same serialised step is race-free. Adding the same
   remote constant to both sides preserves the multiplicative
   envelope (C/k <= C <= C*k for k >= 1), so a read within k of the
   local count stays within k of [known]; the remaining gap between
   [known] and the true cluster total is the gossip staleness, bounded
   by k_staleness and checked cluster-wide at quiescence. *)
let read o ~pid =
  o.o_stats.reads <- o.o_stats.reads + 1;
  match o.impl with
  | I_kcounter (c, exact, k) ->
    let served = Mcore.Mc_kcounter.read_fast c ~pid + o.r_remote in
    o.o_stats.cache_hits <- Mcore.Mc_kcounter.fast_hits c ~pid;
    o.o_stats.cache_misses <- Mcore.Mc_kcounter.fast_misses c ~pid;
    accuracy_check o ~k ~served ~exact:(!exact + o.r_remote)
      ~lower_exact:false;
    served
  | I_faa c -> Mcore.Mc_baselines.Faa_counter.read c + o.r_remote
  | I_kmaxreg (r, exact, k, _) ->
    let served = max (Mcore.Mc_kmaxreg.read_fast r) o.r_max_remote in
    o.o_stats.cache_hits <- Mcore.Mc_kmaxreg.fast_hits r;
    o.o_stats.cache_misses <- Mcore.Mc_kmaxreg.fast_misses r;
    accuracy_check o ~k ~served ~exact:(max !exact o.r_max_remote)
      ~lower_exact:true;
    served
  | I_casmax r -> max (Mcore.Mc_baselines.Cas_maxreg.read r) o.r_max_remote

(* ------------------------------------------------------------------ *)
(* Drain-batch fusion (owning shard only; see Server.exec_batch)       *)
(* ------------------------------------------------------------------ *)

(* Accumulate one INC ([via_add = false], delta 1) or ADD into the
   object's pending total. Returns [true] iff this deferral dirtied a
   clean object — the caller's cue to put it on the drain's dirty
   list. The caller must have validated kind (counter) and delta
   ([0 .. max_add_delta]). *)
let defer o ~via_add delta =
  if via_add then o.o_stats.adds <- o.o_stats.adds + 1
  else o.o_stats.incs <- o.o_stats.incs + 1;
  o.pending_delta <- o.pending_delta + delta;
  if o.o_dirty then false
  else begin
    o.o_dirty <- true;
    true
  end

(* Apply every deferred increment of the drain as one bulk add. *)
let apply_pending o ~pid =
  let n = o.pending_delta in
  o.pending_delta <- 0;
  o.o_dirty <- false;
  if n > 0 then begin
    (match o.impl with
     | I_kcounter (c, exact, _) ->
       Mcore.Mc_kcounter.add c ~pid n;
       exact := !exact + n
     | I_faa c -> Mcore.Mc_baselines.Faa_counter.add c n
     | I_kmaxreg _ | I_casmax _ -> assert false (* defer checks the kind *));
    mark_dirty o;
    refresh_repl o
  end

(* Serve a READ within drain [stamp]: compute the value once per
   (object, drain), answer every further READ of the drain from the
   memo. Sound because all requests popped in one drain are in flight
   concurrently — any of them may linearize at the single computed
   read. [stamp] must be distinct per drain (the shard's drain
   counter). *)
let batch_read o ~pid ~stamp =
  if o.batch_stamp = stamp then begin
    o.o_stats.reads <- o.o_stats.reads + 1;
    o.o_stats.batch_read_hits <- o.o_stats.batch_read_hits + 1;
    o.batch_value
  end
  else begin
    let v = read o ~pid in
    o.batch_stamp <- stamp;
    o.batch_value <- v;
    v
  end

let write o ~pid:_ v =
  match o.impl with
  | I_kmaxreg (r, exact, _, m) ->
    if v < 0 || v >= m then begin
      o.o_stats.rejects <- o.o_stats.rejects + 1;
      Error ()
    end
    else begin
      Mcore.Mc_kmaxreg.write r v;
      if v > !exact then exact := v;
      o.o_stats.writes <- o.o_stats.writes + 1;
      mark_dirty o;
      refresh_repl o;
      Ok 0
    end
  | I_casmax r ->
    if v < 0 then begin
      o.o_stats.rejects <- o.o_stats.rejects + 1;
      Error ()
    end
    else begin
      Mcore.Mc_baselines.Cas_maxreg.write r v;
      o.o_stats.writes <- o.o_stats.writes + 1;
      mark_dirty o;
      refresh_repl o;
      Ok 0
    end
  | I_kcounter _ | I_faa _ ->
    o.o_stats.rejects <- o.o_stats.rejects + 1;
    Error ()
