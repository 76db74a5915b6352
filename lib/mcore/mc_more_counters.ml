module Tree_counter = struct
  type t = {
    n : int;
    size : int;  (* leaf slots, power of two; heap layout *)
    leaves : int Atomic.t array;  (* padded: single-writer per pid *)
    nodes : int Atomic.t array;  (* 1-based heap of subtree-sum maxima *)
  }

  let create ~n () =
    if n < 1 then invalid_arg "Mc_more_counters.Tree_counter: n < 1";
    let size = Zmath.pow 2 (Zmath.ceil_log2 (max 2 n)) in
    { n;
      size;
      leaves = Backend.Padded.atomic_array n 0;
      nodes = Backend.Padded.atomic_array size 0 }

  let child_value t i =
    if i >= t.size then
      (* leaf slot *)
      let leaf = i - t.size in
      if leaf < t.n then Atomic.get t.leaves.(leaf) else 0
    else Atomic.get t.nodes.(i)

  (* Lock-free write-max: retire when the node already holds >= sum. *)
  let rec write_max cell sum =
    let cur = Atomic.get cell in
    if sum > cur && not (Atomic.compare_and_set cell cur sum) then
      write_max cell sum

  (* Top-level recursion: a nested [let rec] capturing [t] would
     allocate a closure per increment. *)
  let rec up t i =
    if i >= 1 then begin
      let sum = child_value t (2 * i) + child_value t ((2 * i) + 1) in
      write_max t.nodes.(i) sum;
      up t (i / 2)
    end

  let increment t ~pid =
    Atomic.set t.leaves.(pid) (Atomic.get t.leaves.(pid) + 1);
    up t ((t.size + pid) / 2)

  let read t = Atomic.get t.nodes.(1)
end
