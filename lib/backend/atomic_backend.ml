(* The hardware instantiation of Backend_intf.S: array primitives are
   contiguous Flat blocks (C11 atomics over unboxed words — see
   flat.ml) laid out for memory-level parallelism: multi-writer
   register arrays at stride 1 (sibling switches share cache lines, so
   tree walks and unrolled scans issue independent line fetches),
   single-writer slots and packed announcements at one-slot-per-line
   stride (no false sharing between owning processes, still one block
   to scan), and the switch sequence as stride-1 chunks behind a
   growable directory. Scalar cells stay padded OCaml 5 [Atomic]s;
   announcements are packed into single immediate words (Packed) so
   the announcement/helping paths stay allocation-free.

   Step accounting is opt-in: a counting context keeps one padded
   per-pid slot and every primitive bumps the caller's slot (single
   writer, so exact per owning domain and contention-free). The
   non-counting default costs one predictable branch per primitive. *)

let label = "atomic"

type ctx = {
  count : bool;
  step_counts : Padded.Int_array.t;  (* length 0 when not counting *)
}

let ctx ?count_steps () =
  match count_steps with
  | None -> { count = false; step_counts = Padded.Int_array.make 0 0 }
  | Some n ->
    if n < 1 then invalid_arg "Atomic_backend.ctx: count_steps < 1";
    { count = true; step_counts = Padded.Int_array.make n 0 }

let[@inline] bump c pid =
  if c.count then
    Padded.Int_array.set c.step_counts pid
      (Padded.Int_array.get c.step_counts pid + 1)

let steps c ~pid = if c.count then Padded.Int_array.get c.step_counts pid else 0

let pause c ~pid =
  bump c pid;
  Domain.cpu_relax ()

(* ------------------------------------------------------------------ *)
(* Registers                                                           *)
(* ------------------------------------------------------------------ *)

type reg = { r_ctx : ctx; cell : int Atomic.t }

let reg c ?name:_ v = { r_ctx = c; cell = Padded.atomic v }

let read r ~pid =
  bump r.r_ctx pid;
  Atomic.get r.cell

let write r ~pid v =
  bump r.r_ctx pid;
  Atomic.set r.cell v

(* Multi-writer register arrays pick their layout by size.

   At or above [flat_threshold] slots they are one contiguous Flat
   block, stride 1: slot [i] is word [i], so siblings in a tree layout
   share a cache line and an unrolled scan issues independent line
   fetches — the memory-level-parallelism layout. Adjacent slots can
   false-share on writes; we take that trade because reg arrays back
   the switch tree, whose switches are written at most a handful of
   times but read on every walk.

   Below the threshold the array is boxed [Padded.atomic]s — one
   padded cell per slot. A small array is cache-resident whatever its
   layout, so the flat block's density and load independence buy
   nothing there, while the padding removes even the residual write
   false-sharing between adjacent switches; the boxed walk's pointer
   chase only starts to lose once the working set outgrows a couple of
   cache lines (the BENCH mlp sweep quantifies the crossover). The
   threshold is deliberately far below the mlp cells' heap sizes so
   large trees always get the flat layout.

   [version] is the array's monotone modification watermark: bumped
   with a fetch&add *after* each write lands (the signature's ordering
   contract — a write a reader hasn't seen the bump of belongs to an
   operation that hasn't returned). Padded so validation loads by
   readers never contend with the data cells. *)
let flat_threshold = 256

type reg_cells =
  | Boxed of int Atomic.t array  (* small: padded box per slot *)
  | Flat_cells of Flat.t  (* large: one contiguous block, stride 1 *)

type reg_array = {
  ra_ctx : ctx;
  cells : reg_cells;
  ra_version : int Atomic.t;
}

let reg_array c ?name:_ ~len ~init () =
  if len < 0 then invalid_arg "Atomic_backend.reg_array: negative length";
  let cells =
    if len >= flat_threshold then Flat_cells (Flat.make len init)
    else Boxed (Padded.atomic_array len init)
  in
  { ra_ctx = c; cells; ra_version = Padded.atomic 0 }

let reg_get a ~pid i =
  bump a.ra_ctx pid;
  match a.cells with
  | Flat_cells f -> Flat.get f i
  | Boxed b -> Atomic.get b.(i)

let reg_set a ~pid i v =
  bump a.ra_ctx pid;
  (match a.cells with
  | Flat_cells f -> Flat.set f i v
  | Boxed b -> Atomic.set b.(i) v);
  ignore (Atomic.fetch_and_add a.ra_version 1)

let reg_array_version a ~pid =
  bump a.ra_ctx pid;
  Atomic.get a.ra_version

(* Prefetching a boxed slot would need the pointer load the hint is
   supposed to hide, so the hint is only real on the flat layout. *)
let reg_prefetch a i =
  match a.cells with
  | Flat_cells f -> Flat.prefetch f i
  | Boxed _ -> ()

(* Single-writer slots are written concurrently by distinct pids, so
   stride them one cache line apart inside one Flat block: no false
   sharing on writes, yet a collect still walks one contiguous block
   with index arithmetic (no per-slot pointer dereference) and its
   unrolled loads issue in parallel. No version word — the signature
   has no swmr watermark, so the old reg_array-backed implementation
   paid a pure-overhead fetch&add on every write. *)
let swmr_stride = Padded.padding_words + 1

type swmr_array = { sw_ctx : ctx; sw_cells : Flat.t }

let swmr_array c ?name:_ ~n ~init () =
  if n < 1 then invalid_arg "Atomic_backend.swmr_array: n < 1";
  let cells = Flat.make (n * swmr_stride) 0 in
  for i = 0 to n - 1 do
    Flat.set cells (i * swmr_stride) init
  done;
  { sw_ctx = c; sw_cells = cells }

let swmr_read a ~pid i =
  bump a.sw_ctx pid;
  Flat.get a.sw_cells (i * swmr_stride)

let swmr_write a ~pid v =
  bump a.sw_ctx pid;
  Flat.set a.sw_cells (pid * swmr_stride) v

let swmr_prefetch a i = Flat.prefetch a.sw_cells (i * swmr_stride)

(* ------------------------------------------------------------------ *)
(* Test&set switch sequences                                           *)
(* ------------------------------------------------------------------ *)

exception Ts_capacity_exceeded of { index : int; max_capacity : int }

(* Beyond this the packed announcement encoding runs out of value bits,
   so the switch sequence shares the ceiling. Unreachable in any
   physical execution: attempting switch j takes ~k^(j/k) increments,
   so even j = 2^20 with k = 2 needs 2^(2^19) increments. *)
let ts_max_capacity = Packed.max_value + 1

(* Switches live in fixed-size Flat chunks behind a growable chunk
   directory. Within a chunk the bits are contiguous (stride 1 — a
   switch flips 0 -> 1 once, so write false sharing is a non-issue and
   read scans get line locality); growing installs a larger directory
   whose prefix *shares the chunk blocks* with the old one, so a
   concurrent test&set racing a grow lands in a chunk both directories
   point at and is never lost — the same cell-sharing property the old
   copy-the-Atomic-pointers grow had, without copying any switch
   state.

   A chunk is 64 switches, and the default first allocation is one
   chunk: Algorithm 1 only ever sets about k·⌈log_k v⌉ switches (56
   for v = 10^8 at k = 4, 64 for v = 2^32 at k = 2), so one chunk
   covers the counts a service counter reaches, and a counter that
   does outgrow it pays one [grow] per doubling of the directory. *)
let ts_chunk_bits = 6
let ts_chunk_size = 1 lsl ts_chunk_bits

type ts_array = {
  ts_ctx : ctx;
  chunks : Flat.t array Atomic.t;  (* directory of [ts_chunk_size] blocks *)
  ts_ver : int Atomic.t;  (* flip watermark; bumped after each 0 -> 1 flip *)
}

let[@inline] ts_chunks_for capacity =
  (capacity + ts_chunk_size - 1) lsr ts_chunk_bits

(* The watermark is padded onto its own line so that readers
   validating against it do not contend with other processes' writes;
   with one process there is no other writer, and a plain 2-word
   [Atomic] (16 B instead of 136 B) will do. *)
let ts_array c ?name:_ ?(capacity_hint = ts_chunk_size) ~n () =
  if capacity_hint < 1 || capacity_hint > ts_max_capacity then
    invalid_arg "Atomic_backend.ts_array: capacity_hint out of range";
  if n < 1 then invalid_arg "Atomic_backend.ts_array: n < 1";
  { ts_ctx = c;
    chunks =
      Atomic.make
        (Array.init (ts_chunks_for capacity_hint) (fun _ ->
             Flat.make ts_chunk_size 0));
    ts_ver = (if n = 1 then Atomic.make 0 else Padded.atomic 0) }

(* Install a larger directory for switch index [j] (chunk [chunk]).
   Racing growers CAS and the losers retry against the winner's (at
   least as large) directory. *)
let rec grow t chunk j =
  let dir = Atomic.get t.chunks in
  let len = Array.length dir in
  if chunk < len then dir
  else if j >= ts_max_capacity then
    raise (Ts_capacity_exceeded { index = j; max_capacity = ts_max_capacity })
  else begin
    let len' = min (ts_chunks_for ts_max_capacity) (max (2 * len) (chunk + 1)) in
    let bigger =
      Array.init len' (fun i ->
          if i < len then dir.(i) else Flat.make ts_chunk_size 0)
    in
    ignore (Atomic.compare_and_set t.chunks dir bigger);
    grow t chunk j
  end

let test_and_set t ~pid j =
  bump t.ts_ctx pid;
  let chunk = j lsr ts_chunk_bits in
  let dir = Atomic.get t.chunks in
  let dir = if chunk < Array.length dir then dir else grow t chunk j in
  let flipped =
    Flat.compare_and_set dir.(chunk) (j land (ts_chunk_size - 1)) 0 1
  in
  if flipped then ignore (Atomic.fetch_and_add t.ts_ver 1);
  flipped

let ts_version t ~pid =
  bump t.ts_ctx pid;
  Atomic.get t.ts_ver

(* A switch beyond the materialised chunks was never set. *)
let ts_read t ~pid j =
  bump t.ts_ctx pid;
  let chunk = j lsr ts_chunk_bits in
  let dir = Atomic.get t.chunks in
  chunk < Array.length dir
  && Flat.get dir.(chunk) (j land (ts_chunk_size - 1)) <> 0

let ts_capacity t = Array.length (Atomic.get t.chunks) * ts_chunk_size

let ts_states t =
  let dir = Atomic.get t.chunks in
  List.init
    (Array.length dir * ts_chunk_size)
    (fun j ->
      (j, Flat.get dir.(j lsr ts_chunk_bits) (j land (ts_chunk_size - 1)) <> 0))

(* ------------------------------------------------------------------ *)
(* CAS cells                                                           *)
(* ------------------------------------------------------------------ *)

type cas_cell = reg

let cas_cell c ?name v = reg c ?name v
let cas_read r ~pid = read r ~pid

let compare_and_set r ~pid ~expect ~value =
  bump r.r_ctx pid;
  Atomic.compare_and_set r.cell expect value

(* ------------------------------------------------------------------ *)
(* Announcements: Packed single-word atomics                           *)
(* ------------------------------------------------------------------ *)

(* One Packed word per process, cache-line strided in a single Flat
   block (announcements are single-writer like swmr slots): the
   helping scan's unrolled loads walk one block with independent line
   fetches instead of chasing a boxed Atomic per process. With one
   process there is no other writer to keep off the line, and slot 0
   sits at offset 0 whatever the stride, so the block is one word. *)
type ann_array = { an_ctx : ctx; an_cells : Flat.t }

type ann = int

let ann_max_value = Packed.max_value

let ann_stride = Padded.padding_words + 1

let ann_array c ?name:_ ~n () =
  if n < 1 then invalid_arg "Atomic_backend.ann_array: n < 1";
  let zero = Packed.pack ~value:0 ~sn:0 in
  let cells = Flat.make (if n = 1 then 1 else n * ann_stride) zero in
  { an_ctx = c; an_cells = cells }

let announce a ~pid ~value ~sn =
  bump a.an_ctx pid;
  Flat.set a.an_cells (pid * ann_stride) (Packed.pack ~value ~sn)

let ann_load a ~pid i =
  bump a.an_ctx pid;
  Flat.get a.an_cells (i * ann_stride)

let ann_value = Packed.value
let ann_sn = Packed.sn
let sn_succ sn = (sn + 1) land Packed.sn_mask
let sn_delta = Packed.sn_delta
