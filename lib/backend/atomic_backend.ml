(* The hardware instantiation of Backend_intf.S. Every array primitive
   is a contiguous Flat block (C11 atomics over unboxed words — see
   flat.ml), and one rule lays them all out: slots are stride 1 unless
   distinct pids write distinct slots (single-writer arrays with
   [n > 1]), which get one slot per cache line. So register arrays and
   the switch sequence's chunks are stride 1 (tree siblings and
   neighbouring switches share a line, and walks and unrolled scans
   issue independent line fetches), while single-writer slots and
   announcements are strided (no false sharing between owning
   processes, still one block to scan). Scalar cells stay padded OCaml
   5 [Atomic]s; announcements are packed into single immediate words
   (Packed) so the announcement/helping paths stay allocation-free.

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

(* Multi-writer register arrays are one contiguous Flat block at
   stride 1, at every length: slot [i] is word [i], so siblings in a
   tree layout share a cache line, an unrolled scan issues independent
   line fetches, and [reg_prefetch] is a real prefetch. Adjacent slots
   can false-share on writes, which is safe even for small trees: reg
   arrays back Algorithm 2's switch heap, whose switches are rarely
   written, because the futile-write filter (Kmaxreg_algo.write_fast)
   skips the heap walk of every covered write and readers serve the
   validated cache (EXPERIMENTS.md, "One array layout", has the traced
   hit ratio). A small heap is cache resident whatever its layout, so
   padding each slot onto its own line would buy nothing but space:
   136 B per switch instead of 8.

   [ra_version] is the array's monotone modification watermark: bumped
   with a fetch&add *after* each write lands (the signature's ordering
   contract — a write a reader hasn't seen the bump of belongs to an
   operation that hasn't returned). Padded so validation loads by
   readers never contend with the data cells. *)
type reg_array = { ra_ctx : ctx; cells : Flat.t; ra_version : int Atomic.t }

let reg_array c ?name:_ ~len ~init () =
  if len < 0 then invalid_arg "Atomic_backend.reg_array: negative length";
  { ra_ctx = c; cells = Flat.make len init; ra_version = Padded.atomic 0 }

let reg_get a ~pid i =
  bump a.ra_ctx pid;
  Flat.get a.cells i

let reg_set a ~pid i v =
  bump a.ra_ctx pid;
  Flat.set a.cells i v;
  ignore (Atomic.fetch_and_add a.ra_version 1)

let reg_array_version a ~pid =
  bump a.ra_ctx pid;
  Atomic.get a.ra_version

let reg_prefetch a i = Flat.prefetch a.cells i

(* Per-pid slot arrays: single-writer registers and announcements.
   Slot [i] is written only by process [i], so distinct pids write
   distinct slots; with [n > 1] they are strided one cache line apart
   inside one Flat block: no false sharing on writes, yet a collect or
   a helping scan still walks one contiguous block with index
   arithmetic (no per-slot pointer dereference) and its unrolled loads
   issue in parallel. With one process there is no other writer to
   keep off the line, and slot 0 sits at offset 0 whatever the stride,
   so the block is one word. No version word — the signature has no
   watermark for these arrays. *)
let slot_stride = Padded.padding_words + 1

type slots = { sl_ctx : ctx; sl_cells : Flat.t }

let make_slots c ~what ~n init =
  if n < 1 then invalid_arg ("Atomic_backend." ^ what ^ ": n < 1");
  let len = if n = 1 then 1 else n * slot_stride in
  { sl_ctx = c; sl_cells = Flat.make len init }

let[@inline] slot_load a ~pid i =
  bump a.sl_ctx pid;
  Flat.get a.sl_cells (i * slot_stride)

let[@inline] slot_store a ~pid v =
  bump a.sl_ctx pid;
  Flat.set a.sl_cells (pid * slot_stride) v

type swmr_array = slots

let swmr_array c ?name:_ ~n ~init () = make_slots c ~what:"swmr_array" ~n init
let swmr_read = slot_load
let swmr_write = slot_store
let swmr_prefetch a i = Flat.prefetch a.sl_cells (i * slot_stride)

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

(* One Packed immediate word per process (so announce and load never
   allocate), in the per-pid slot layout above. *)
type ann_array = slots

type ann = int

let ann_max_value = Packed.max_value

let ann_array c ?name:_ ~n () =
  make_slots c ~what:"ann_array" ~n (Packed.pack ~value:0 ~sn:0)

let announce a ~pid ~value ~sn = slot_store a ~pid (Packed.pack ~value ~sn)
let ann_load = slot_load
let ann_value = Packed.value
let ann_sn = Packed.sn
let sn_succ sn = (sn + 1) land Packed.sn_mask
let sn_delta = Packed.sn_delta
