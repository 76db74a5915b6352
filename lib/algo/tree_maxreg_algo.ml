(* The exact bounded max register of Aspnes-Attiya-Censor-Hillel: a
   switch tree over values 0 .. m-1, written once over the backend's
   multi-writer registers.

   Layout: a 1-based heap of switch bits — node [i]'s children are [2i]
   and [2i+1] — walked over (index, span) integers (reads as a flat
   index-arithmetic loop, writes tail-recursively), so write/read are
   allocation-free. Node spans split as half = (span + 1) / 2, matching
   the old pointer tree exactly, so the primitive step sequences (and
   with Sim_backend the charged steps) are unchanged; the walks
   additionally issue uncharged prefetch hints for the child line (and,
   on reads, the grandchild line) so on the flat atomic heap successive
   levels' cache misses overlap instead of serialising. Backends with
   lazy register arrays (the simulator's regions) only materialise the
   switches an execution touches, so a huge value range still costs
   only what is reached. *)

module Make (B : Backend.Backend_intf.S) = struct
  type t = { m : int; heap : B.reg_array }

  let heap_len ~m = 2 * Zmath.pow 2 (Zmath.ceil_log2 (max m 1))

  let create ctx ?(name = "treemax") ~m () =
    if m < 1 then invalid_arg "Tree_maxreg_algo.create: m < 1";
    { m;
      heap =
        B.reg_array ctx ~name:(name ^ ".switch") ~len:(heap_len ~m) ~init:0 ()
    }

  let bound t = t.m

  (* Node [i] spans [span] values. Writing v >= half descends right
     first and only then raises the switch (the AACH ordering that
     makes the register linearizable); writing v < half is futile once
     the switch is up, because the register already holds a larger
     value.

     The child-pair hint before the switch read is uncharged: children
     [2i] and [2i+1] are adjacent words of the flat heap, so one
     prefetch pulls the line the next level's read needs while this
     level's (dependent) read is still in flight. *)
  let rec write_node t ~pid i span v =
    if span > 1 then begin
      let half = (span + 1) / 2 in
      B.reg_prefetch t.heap (2 * i);
      if v < half then begin
        if B.reg_get t.heap ~pid i = 0 then write_node t ~pid (2 * i) half v
      end
      else begin
        write_node t ~pid ((2 * i) + 1) (span - half) (v - half);
        B.reg_set t.heap ~pid i 1
      end
    end

  (* The read walk, flattened: the (index, span) recursion becomes a
     loop of index arithmetic over the level-order heap, issuing the
     same [reg_get] at the same node sequence as the recursive form
     (so with Sim_backend the charged steps are unchanged — node
     shapes, including the half = (span + 1) / 2 splits of
     non-power-of-2 spans, are identical). Dependence breaking is done
     with uncharged hints only: each level hints the child pair (one
     line — children [2i] and [2i+1] are adjacent words, and the
     switch read then picks a direction whose line is already in
     flight) and the grandchild quad's line at [4i] (the quad
     [4i .. 4i+3] spans one line except when it straddles a boundary,
     not worth a second hint call), so the walk keeps ~2 levels of
     line fetches in flight instead of serialising one miss per
     level. Both hint targets stay inside the heap: a node with
     span > 1 has depth <= L-1 of the 2^(L+1)-word envelope,
     span > 3 depth <= L-2. *)
  let read t ~pid =
    let i = ref 1 and span = ref t.m and acc = ref 0 in
    while !span > 1 do
      let child = 2 * !i in
      B.reg_prefetch t.heap child;
      if !span > 3 then B.reg_prefetch t.heap (2 * child);
      let half = (!span + 1) / 2 in
      if B.reg_get t.heap ~pid !i = 1 then begin
        i := child + 1;
        span := !span - half;
        acc := !acc + half
      end
      else begin
        i := child;
        span := half
      end
    done;
    !acc

  let write t ~pid v =
    if v < 0 || v >= t.m then
      invalid_arg "Tree_maxreg_algo.write: value out of range";
    write_node t ~pid 1 t.m v

  (* The heap's modification watermark (one step): unchanged iff no
     switch write landed, i.e. the register value cannot have grown. *)
  let version t ~pid = B.reg_array_version t.heap ~pid

  let handle t =
    { Obj_intf.mr_label = "tree-maxreg";
      mr_write = (fun ~pid v -> write t ~pid v);
      mr_read = (fun ~pid -> read t ~pid) }
end
