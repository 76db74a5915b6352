(* MLP: memory-level parallelism of the tree max register's layout. The
   flat layout under test (the atomic backend's contiguous register
   block: stride-1 siblings, an index-arithmetic read loop and uncharged
   prefetch hints) against the layout it replaced (one padded cache
   line per switch, walked by the recursive (index, span) descent with
   no hints), over working sets from cache-resident to several times
   any plausible LLC. The cells and the op sequence are those of the
   BENCH_8/9 records' [mlp] section, so the numbers stay comparable. *)

(* (label, objects, m). Boxed footprint per cell: objects *
   2^(ceil_log2 m + 1) nodes * 144 B/node (a 136 B padded box plus its
   pointer slot) -- 72 MiB / 576 MiB / 1.1 GiB; the flat layout is 18x
   denser (8 B/node), so it still fits where the boxed heap has long
   since spilled. Many medium-depth objects picked at random per op,
   rather than one giant register, keep each object's root-to-leaf
   spine cold between visits. *)
let cells =
  [ ("cache-resident", 256, 1 lsl 10);
    ("llc-edge", 1024, 1 lsl 11);
    ("llc-exceeding", 1024, 1 lsl 12) ]

(* Random-value writes per 1000 ops; the rest are reads. Writes keep
   the registers' max paths moving so reads do not settle on one
   immutable spine. *)
let write_permille = 50
let trials = 5
let warmup_trials = 1
let ops = 100_000

module Flat_tree = Mcore.Atomic_algo.Tree_maxreg

(* The pre-flat layout, replicated here so the table carries the
   ablation instead of a before/after diff across revisions: an
   [int Atomic.t array] of per-slot boxed atomics, each inflated to its
   own cache line, walked by the old recursion with no hints. Every
   level of the walk is two dependent loads (pointer-array slot, then
   the box) and every node is 128 B apart, so a cold walk is a serial
   chain of line misses. The node sequence and split arithmetic are the
   flat walk's, so both variants probe the same switches per op. *)
module Boxed_tree = struct
  type t = { m : int; cells : int Atomic.t array }

  let create ~m =
    let len = 2 * Zmath.pow 2 (Zmath.ceil_log2 (max m 1)) in
    { m; cells = Backend.Padded.atomic_array len 0 }

  let rec write_node t i span v =
    if span > 1 then begin
      let half = (span + 1) / 2 in
      if v < half then begin
        if Atomic.get t.cells.(i) = 0 then write_node t (2 * i) half v
      end
      else begin
        write_node t ((2 * i) + 1) (span - half) (v - half);
        Atomic.set t.cells.(i) 1
      end
    end

  let write t v = write_node t 1 t.m v

  let rec read_node t i span acc =
    if span <= 1 then acc
    else
      let half = (span + 1) / 2 in
      if Atomic.get t.cells.(i) = 1 then
        read_node t ((2 * i) + 1) (span - half) (acc + half)
      else read_node t (2 * i) half acc

  let read t = read_node t 1 t.m 0
end

(* Deterministic 48-bit LCG (the drand48 multiplier): both layouts of a
   cell replay the identical op sequence from seed 42, so their last
   reads must agree. *)
let lcg_next s =
  s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  !s lsr 16

(* One layout over one cell: median ops/s and the last value read.
   Each op picks a uniformly random object; a write descends a random
   root-to-leaf path, a read re-walks the current-max path. *)
let measure ~objects ~m (write, read) =
  let rng = ref 42 and final = ref 0 in
  let worker ~pid:_ ~op_index:_ =
    let j = lcg_next rng mod objects in
    if lcg_next rng mod 1000 < write_permille then
      write j (lcg_next rng mod m)
    else final := read j
  in
  let stats =
    Mcore.Throughput.measure ~warmup_trials ~trials ~domains:1
      ~ops_per_domain:ops ~worker ()
  in
  (stats.Mcore.Throughput.s_median_ops_per_sec, !final)

let boxed ~objects ~m =
  let ts = Array.init objects (fun _ -> Boxed_tree.create ~m) in
  ((fun j v -> Boxed_tree.write ts.(j) v), fun j -> Boxed_tree.read ts.(j))

let flat ~objects ~m =
  let ctx = Backend.Atomic_backend.ctx () in
  let ts =
    Array.init objects (fun j ->
        Flat_tree.create ctx ~name:(Printf.sprintf "mlp%d" j) ~m ())
  in
  ((fun j v -> Flat_tree.write ts.(j) ~pid:0 v),
   fun j -> Flat_tree.read ts.(j) ~pid:0)

let mib nodes bytes_per_node =
  Printf.sprintf "%.0f" (float_of_int (nodes * bytes_per_node) /. 1048576.0)

let run () =
  Tables.section "MLP  tree max-register layout: boxed walk vs flat block";
  Printf.printf
    "(1 domain, %d trials x %d ops after %d warmup, %d permille writes)\n"
    trials ops warmup_trials write_permille;
  let rows =
    List.map
      (fun (label, objects, m) ->
        (* Boxed first, then flat: the boxed heap is garbage by the time
           the flat one is built, so the peak is the boxed cell's. *)
        let b, b_final = measure ~objects ~m (boxed ~objects ~m) in
        let f, f_final = measure ~objects ~m (flat ~objects ~m) in
        let nodes = objects * 2 * Zmath.pow 2 (Zmath.ceil_log2 m) in
        ( b_final = f_final,
          [ label; string_of_int objects; string_of_int m; mib nodes 144;
            mib nodes 8; Tables.fmt_float (b /. 1e6);
            Tables.fmt_float (f /. 1e6); Printf.sprintf "%.2fx" (f /. b);
            (if b_final = f_final then "yes" else "NO") ] ))
      cells
  in
  Tables.print_table ~title:"read-heavy medians (Mops/s)"
    ~header:
      [ "cell"; "objects"; "m"; "boxed MiB"; "flat MiB"; "boxed"; "flat";
        "flat/boxed"; "finals agree" ]
    (List.map snd rows);
  if not (List.for_all fst rows) then
    failwith "mlp: the two layouts disagree on a final read"
