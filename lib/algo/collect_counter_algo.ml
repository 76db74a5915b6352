(* The collect-based counter over the backend's single-writer register
   array: process i keeps its own increment total in slot i (mirrored
   locally — slots are single-writer), and a read collects all n
   slots. Monotone per-slot sums make the collect linearizable (unlike
   maxima; see Linear_maxreg).

   [k] relaxes it to the k-additive counter the paper contrasts with in
   Section I-A: each process publishes its total only every
   [threshold = k/(n+1) + 1] increments, so it hides at most
   [k/(n+1)] of them and a read is off by at most
   [(n+1) * (k/(n+1)) <= k]. At k = 0 the threshold is 1 and every
   increment is one slot write — the exact collect counter, the
   baseline Algorithm 1 beats: 1 step per increment, n per read. *)

module Make (B : Backend.Backend_intf.S) = struct
  type local = {
    mutable own : int;  (* mirror of this process's published slot *)
    mutable pending : int;  (* unpublished increments, < threshold *)
  }

  type t = {
    n : int;
    k : int;
    threshold : int;
    cells : B.swmr_array;
    locals : local array;
  }

  let create ctx ?(name = "cnt") ?(k = 0) ~n () =
    if n < 1 then invalid_arg "Collect_counter_algo.create: n < 1";
    if k < 0 then invalid_arg "Collect_counter_algo.create: k < 0";
    { n;
      k;
      threshold = (k / (n + 1)) + 1;
      cells = B.swmr_array ctx ~name ~n ~init:0 ();
      locals =
        Array.init n (fun _ -> Backend.Padded.copy { own = 0; pending = 0 }) }

  let increment t ~pid =
    let s = t.locals.(pid) in
    let pending = s.pending + 1 in
    if pending = t.threshold then begin
      s.pending <- 0;
      s.own <- s.own + pending;
      B.swmr_write t.cells ~pid s.own
    end
    else s.pending <- pending

  (* The collect, strided: four independent partial sums instead of one
     serial carry, so the per-slot loads (one cache line each on the
     flat strided layout) issue in parallel rather than waiting on the
     accumulator chain, plus an uncharged prefetch hint one group
     ahead. Load order (0, 1, ..., n-1) and count are exactly the old
     tail recursion's, so charged steps under Sim_backend are
     unchanged. *)
  let read t ~pid =
    let n = t.n in
    let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
    let i = ref 0 in
    while !i + 3 < n do
      let i0 = !i in
      if i0 + 4 < n then B.swmr_prefetch t.cells (i0 + 4);
      s0 := !s0 + B.swmr_read t.cells ~pid i0;
      s1 := !s1 + B.swmr_read t.cells ~pid (i0 + 1);
      s2 := !s2 + B.swmr_read t.cells ~pid (i0 + 2);
      s3 := !s3 + B.swmr_read t.cells ~pid (i0 + 3);
      i := i0 + 4
    done;
    while !i < n do
      s0 := !s0 + B.swmr_read t.cells ~pid !i;
      incr i
    done;
    !s0 + !s1 + !s2 + !s3

  let n t = t.n
  let flush_threshold t = t.threshold

  let handle t =
    { Obj_intf.c_label =
        (if t.k = 0 then "collect-counter"
         else Printf.sprintf "kadditive(t=%d)" t.threshold);
      c_inc = (fun ~pid -> increment t ~pid);
      c_read = (fun ~pid -> read t ~pid) }
end
