(* Algorithm 1 — the wait-free linearizable k-multiplicative-accurate
   counter (Section III) — written once, over an abstract primitive
   backend. Sim_algo.Kcounter and Mcore.Atomic_algo.Kcounter are its
   instantiations; the interface carries the paper-facing
   documentation.

   The body is the allocation-free formulation from the multicore
   rewrite: tail recursions instead of ref cells and exceptions, a
   reusable per-pid helping-scratch array, persistent read-side
   (last, p, q). Under Sim_backend every primitive is one charged step
   and the step sequences are exactly those of the paper's pseudocode
   (probe loop lines 12-22, read loop lines 35-58 with the helping
   rescan every n iterations). The ablations and the startup-corner
   repair are create-time variants of this body; no variant test sits
   on read_fast's hit or on add's arithmetic between boundaries. *)

type variant =
  | Paper
  | No_helping
  | No_probe_resume
  | Full_scan_read
  | Startup_corrected

module Make (B : Backend.Backend_intf.S) = struct
  type local = {
    mutable lcounter : int;  (* unannounced increments *)
    mutable limit_exp : int;  (* j with limit = k^j *)
    mutable limit : int;  (* announce threshold, k^limit_exp *)
    mutable sn : int;  (* announcements by this process *)
    mutable l0 : int;  (* 1-based probe start within the current interval *)
    mutable last : int;  (* read-side scan position *)
    mutable p : int;  (* last mod k of the last set switch seen *)
    mutable q : int;  (* last / k of the last set switch seen *)
    mutable cache_value : int;  (* last full-read result, if validated *)
    mutable cache_version : int;  (* flip watermark it was read under; -1 = none *)
    mutable fast_hits : int;  (* read_fast served from cache *)
    mutable fast_misses : int;  (* read_fast fell through to the full read *)
    help : int array;  (* reusable read scratch; only slots 0 .. n-1 used *)
  }

  (* The variant fields come last, so the hot fields keep the offsets
     (and cache line) they have without them. *)
  type t = {
    n : int;
    k : int;
    switches : B.ts_array;
    h : B.ann_array;
    locals : local array;
    variant : variant;
    first_inc : B.swmr_array option;
        (* Startup_corrected only: per-pid first-increment bits *)
  }

  let max_capacity = min B.ts_max_capacity (B.ann_max_value + 1)

  let create ctx ?(name = "kcnt") ?capacity_hint ?(variant = Paper) ~n ~k
      () =
    if n < 1 then invalid_arg "Kcounter_algo.create: n < 1";
    if k < 2 then invalid_arg "Kcounter_algo.create: k < 2";
    (* Cache-line padding keeps one pid's locals and scratch off the
       lines another pid writes; with a single pid there is no other
       writer, so n = 1 objects skip it. *)
    let pad, help_padding =
      if n > 1 then (Backend.Padded.copy, Backend.Padded.padding_words)
      else (Fun.id, 0)
    in
    let fresh () =
      { lcounter = 0;
        limit_exp = 0;
        limit = 1;
        sn = 0;
        l0 = 1;
        last = 0;
        p = 0;
        q = 0;
        cache_value = 0;
        cache_version = -1;
        fast_hits = 0;
        fast_misses = 0;
        help = Array.make (n + help_padding) 0 }
    in
    (* The padding follows a record's fields, so whatever is allocated
       next lies just below them in the minor heap until it is
       promoted. The [locals] array, which every pid reads on every
       operation, is therefore allocated before the records, not
       between them as [Array.init] would. *)
    let locals = Array.make n (fresh ()) in
    for pid = 0 to n - 1 do
      locals.(pid) <- pad (fresh ())
    done;
    let h = B.ann_array ctx ~name:(name ^ ".H") ~n () in
    let switches =
      B.ts_array ctx ~name:(name ^ ".switch") ?capacity_hint ~n ()
    in
    let first_inc =
      match variant with
      | Startup_corrected ->
        Some (B.swmr_array ctx ~name:(name ^ ".first") ~n ~init:0 ())
      | Paper | No_helping | No_probe_resume | Full_scan_read -> None
    in
    { n; k; switches; h; locals; variant; first_inc }

  let k t = t.k
  let n t = t.n

  (* Probe switches l .. j*k for the j-th limit boundary (lines 12-22).
     Tail-recursive so the announcement path stays allocation-free. *)
  let rec announce_scan t s ~pid ~j l =
    if l > j * t.k then begin
      (* interval exhausted: someone else set every switch *)
      s.l0 <- 1;
      s.limit_exp <- s.limit_exp + 1;
      s.limit <- t.k * s.limit
    end
    else if B.test_and_set t.switches ~pid l then begin
      s.sn <- B.sn_succ s.sn;
      B.announce t.h ~pid ~value:l ~sn:s.sn;
      s.lcounter <- 0;
      s.l0 <- 1 + (l mod t.k);
      (* lines 20-21: the interval is exhausted iff we just set its last
         switch; only then does the threshold grow. *)
      if l = j * t.k then begin
        s.limit_exp <- s.limit_exp + 1;
        s.limit <- t.k * s.limit
      end
    end
    else announce_scan t s ~pid ~j (l + 1)

  (* One limit-boundary announcement — the body of lines 23-28, run
     exactly when [lcounter] has just reached [limit]. *)
  let announce_boundary t s ~pid =
    let j = s.limit_exp in
    if j > 0 then begin
      (* No_probe_resume re-probes the interval from its first switch
         instead of the persistent cursor l0 (lines 22-24). *)
      let l0 = match t.variant with No_probe_resume -> 1 | _ -> s.l0 in
      announce_scan t s ~pid ~j (((j - 1) * t.k) + l0)
    end
    else begin
      (* Every pid's first increment lands here exactly once, so this
         is where Startup_corrected publishes its first-increment bit,
         before the switch_0 probe. *)
      (match t.first_inc with
       | Some bits -> B.swmr_write bits ~pid 1
       | None -> ());
      (* lines 25-28: first announcement targets switch_0; the paper
         does not publish it in H (helping only ever adopts interval
         switches). *)
      if B.test_and_set t.switches ~pid 0 then s.lcounter <- 0;
      s.limit_exp <- s.limit_exp + 1;
      s.limit <- t.k * s.limit
    end

  (* CounterAdd: [amount] logical increments buffered locally, touching
     shared memory only at the limit boundaries the unit-increment
     schedule would also cross. The loop pins [lcounter] to exactly
     [limit], announces, then restores the carried remainder — so the
     boundary crossings (and hence the primitive step sequence, and the
     amortized accounting of Theorem III.9) are identical to [amount]
     unit increments, while everything between boundaries is private
     arithmetic. Accuracy is unaffected: deferral up to [limit] is
     Algorithm 1's own slack mechanism (lines 10-11). *)
  let add t ~pid amount =
    if amount < 0 then invalid_arg "Kcounter_algo.add: negative amount";
    let s = t.locals.(pid) in
    if amount > max_int - s.lcounter then raise Zmath.Overflow;
    s.lcounter <- s.lcounter + amount;
    while s.lcounter >= s.limit do
      if s.limit > max_int / t.k then raise Zmath.Overflow;
      let pending = s.lcounter - s.limit in
      s.lcounter <- s.limit;
      announce_boundary t s ~pid;
      s.lcounter <- s.lcounter + pending
    done

  (* CounterIncrement, paper lines 10-28: [add 1]. The specialisation
     is step-for-step the paper's pseudocode — after every operation
     [lcounter < limit] holds, so the while loop fires iff the unit
     increment lands exactly on [limit], with a zero carry. *)
  let increment t ~pid = add t ~pid 1

  (* ReturnValue(p, q), paper lines 30-34: k * u_min(p, q), with the
     overflow test inlined (an option-returning guard would allocate on
     every non-trivial read). *)
  let return_value t ~p ~q =
    let u =
      1
      + Zmath.geometric_sum ~base:t.k ~lo:2 ~hi:(q + 1)
      + (p * Zmath.pow t.k (q + 1))
    in
    if u <> 0 && t.k > max_int / u then raise Zmath.Overflow;
    t.k * u

  (* Unconditional scan of all n announcement cells, unrolled 4-wide:
     the four [ann_load]s per iteration carry no data dependence on one
     another, so on the flat strided announcement layout their cache
     misses issue in parallel instead of one per loop-carried step.
     Load order (0, 1, 2, ..., n-1) and load count are exactly the
     plain loop's, so the charged-step sequence under Sim_backend is
     unchanged. *)
  let collect_help t s ~pid =
    let n = t.n in
    let j = ref 0 in
    while !j + 3 < n do
      let j0 = !j in
      let a0 = B.ann_load t.h ~pid j0 in
      let a1 = B.ann_load t.h ~pid (j0 + 1) in
      let a2 = B.ann_load t.h ~pid (j0 + 2) in
      let a3 = B.ann_load t.h ~pid (j0 + 3) in
      s.help.(j0) <- B.ann_sn a0;
      s.help.(j0 + 1) <- B.ann_sn a1;
      s.help.(j0 + 2) <- B.ann_sn a2;
      s.help.(j0 + 3) <- B.ann_sn a3;
      j := j0 + 4
    done;
    while !j < n do
      s.help.(!j) <- B.ann_sn (B.ann_load t.h ~pid !j);
      incr j
    done

  (* The switch index announced by any process that announced at least
     twice since [collect_help], or -1. A top-level recursion, not a
     nested [let rec]: capturing [t]/[s] would allocate a closure on
     the read path. Deliberately *not* unrolled: this scan early-exits
     at the first helper found, so issuing speculative extra [ann_load]s
     would change the charged-step sequence the simulator counts
     (unlike [collect_help], whose load count is unconditional). *)
  let rec check_help_from t s ~pid j =
    if j >= t.n then -1
    else begin
      let a = B.ann_load t.h ~pid j in
      if B.sn_delta (B.ann_sn a) s.help.(j) >= 2 then B.ann_value a
      else check_help_from t s ~pid (j + 1)
    end

  (* Startup_corrected's corner read: the number of processes whose
     first-increment bit is set, one load per pid in order. *)
  let rec count_started t bits ~pid j acc =
    if j >= t.n then acc
    else count_started t bits ~pid (j + 1) (acc + B.swmr_read bits ~pid j)

  (* The read loop of Algorithm 1 (lines 35-58): hop between first and
     last switch of each interval from the persistent position [last];
     every n probes rescan H, returning through the helping mechanism
     once some process's sequence number advanced by >= 2. *)
  let rec read_loop t s ~pid c =
    if not (B.ts_read t.switches ~pid s.last) then
      if s.last = 0 then 0
      else
        match t.first_inc with
        | Some bits when s.p = 0 && s.q = 0 ->
          (* The startup corner: only switch_0 is known set, and
             ReturnValue(0,0) = k cannot cover the increments parked in
             local counters. Return k times the started processes. *)
          t.k * max 1 (count_started t bits ~pid 0 0)
        | _ -> return_value t ~p:s.p ~q:s.q
    else begin
      s.p <- s.last mod t.k;
      s.q <- s.last / t.k;
      (match t.variant with
       | Full_scan_read -> s.last <- s.last + 1
       | _ ->
         if s.last mod t.k = 0 then s.last <- s.last + 1
         else s.last <- s.last + t.k - 1);
      let c = c + 1 in
      let helping = match t.variant with No_helping -> false | _ -> true in
      if c mod t.n = 0 && helping then
        if c = t.n then begin
          (* lines 46-48: first pass only records sequence numbers *)
          collect_help t s ~pid;
          read_loop t s ~pid c
        end
        else begin
          (* lines 49-55: a process whose sn advanced by >= 2 set a
             switch entirely within our interval; adopt it. *)
          let v = check_help_from t s ~pid 0 in
          if v >= 0 then return_value t ~p:(v mod t.k) ~q:(v / t.k)
          else read_loop t s ~pid c
        end
      else read_loop t s ~pid c
    end

  (* CounterRead, paper lines 35-58. *)
  let read t ~pid = read_loop t t.locals.(pid) ~pid 0

  (* Validated-cache read: serve the cached value when the switch
     array's flip watermark is unchanged — one primitive step, zero
     allocation. A miss runs the full read bracketed by the watermark
     (the validation load that failed doubles as the pre-read stamp)
     and caches only if no flip landed in between; otherwise the
     (value, version) pairing would be unsound — a flip could land
     after the value was computed yet before the stamp, leaving a
     permanently stale cache.

     Linearizability of a hit: the backend bumps the watermark after a
     flip lands and before the flipping operation returns, so an
     unchanged watermark proves every flip since the cached full read
     belongs to a still-in-flight operation. Linearizing the cached
     read before those concurrent increments is therefore legal, and
     the served value is one a fresh full read could also have
     returned.

     A startup-corner value is never cached: a process that starts
     later only writes its first-increment bit and fails the switch_0
     probe, so no flip invalidates it. Under Startup_corrected a full
     read ends with [last = 1] exactly when it took the corner exit. *)
  let read_fast t ~pid =
    let s = t.locals.(pid) in
    let v = B.ts_version t.switches ~pid in
    if v = s.cache_version then begin
      s.fast_hits <- s.fast_hits + 1;
      s.cache_value
    end
    else begin
      s.fast_misses <- s.fast_misses + 1;
      let value = read_loop t s ~pid 0 in
      let corner =
        match t.first_inc with Some _ -> s.last = 1 | None -> false
      in
      if B.ts_version t.switches ~pid = v && not corner then begin
        s.cache_value <- value;
        s.cache_version <- v
      end;
      value
    end

  let fast_hits t ~pid = t.locals.(pid).fast_hits
  let fast_misses t ~pid = t.locals.(pid).fast_misses

  let local_pending t ~pid = t.locals.(pid).lcounter
  let switch_states t = B.ts_states t.switches
  let capacity t = B.ts_capacity t.switches

  let switches_set t =
    List.fold_left
      (fun acc (_, b) -> if b then acc + 1 else acc)
      0
      (B.ts_states t.switches)

  let handle t =
    let variant =
      match t.variant with
      | Paper -> ""
      | No_helping -> "/no-helping"
      | No_probe_resume -> "/no-probe-resume"
      | Full_scan_read -> "/full-scan-read"
      | Startup_corrected -> "/startup-corrected"
    in
    { Obj_intf.c_label = Printf.sprintf "kcounter%s(k=%d)" variant t.k;
      c_inc = (fun ~pid -> increment t ~pid);
      c_read = (fun ~pid -> read t ~pid) }
end
