(* Shared pieces of the benchmark: clock, seeded generators, sample
   stores with exact percentiles, a tiny JSON writer and process/file
   helpers. Nothing here is timed itself. *)

external now_ns : unit -> int = "pb_now_ns" [@@noalloc]

let sleep_s s = try Unix.sleepf s with Unix.Unix_error (EINTR, _, _) -> ()

(* ---------------------------------------------------------------- *)
(* Seeded generators                                                 *)
(* ---------------------------------------------------------------- *)

let rng ~seed ~stream = Random.State.make [| seed; stream; 0x5eed |]

(* Zipf(s) over [0 .. n-1] by inverse CDF: rank 0 is the hottest. *)
type zipf = float array

let zipf ~n ~s : zipf =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw (cdf : zipf) st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Pick an index by integer weights. *)
let weighted weights st =
  let total = Array.fold_left ( + ) 0 weights in
  let r = Random.State.int st total in
  let rec go i acc =
    let acc = acc + weights.(i) in
    if r < acc then i else go (i + 1) acc
  in
  go 0 0

(* ---------------------------------------------------------------- *)
(* Raw samples with exact order statistics                           *)
(* ---------------------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(cap = 4096) () = { a = Array.make cap 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let clear t = t.n <- 0

  (* Every sample of [ts], ascending. *)
  let sorted ts =
    let s = Array.concat (List.map (fun t -> Array.sub t.a 0 t.n) ts) in
    Array.sort compare s;
    s
end

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Nearest-rank percentile of a sorted array. *)
let rank_index n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let pct_sorted (s : int array) q = s.(rank_index (Array.length s) q)

(* A p99 is reported only when at least 10 samples lie beyond it. *)
let p99_min_samples = 1000

(* Timed phases are cut into 0.5 s windows; an end-to-end figure is the
   median over the full windows, so a slow stretch of the host (CPU
   steal comes in bursts) moves a few windows, not the figure. *)
let window_ns = 500_000_000
let max_windows = 128

let full_windows secs = min max_windows (int_of_float (secs *. 1e9) / window_ns)

let window_of ~t0 t = min (max_windows - 1) ((t - t0) / window_ns)

(* Median per-second rate of [ops.(w)], over the first [n] windows. *)
let windowed_rate ops n =
  median_float (List.init n (fun w -> float_of_int ops.(w) *. 1e9 /. float_of_int window_ns))

(* ---------------------------------------------------------------- *)
(* Fine linear histogram of per-op batch means (1/16 ns resolution)  *)
(* ---------------------------------------------------------------- *)

module Fine = struct
  let scale = 16
  let buckets = 1 lsl 14 (* 1 us per op; slower batches are kept exactly *)

  type t = { h : int array; over : Samples.t; mutable n : int }

  let create () = { h = Array.make buckets 0; over = Samples.create (); n = 0 }

  (* One batch of [ops] same-kind ops that took [ns] in total. *)
  let add t ~ns ~ops =
    let b = ns * scale / ops in
    if b < buckets then Array.unsafe_set t.h b (Array.unsafe_get t.h b + 1)
    else Samples.add t.over b;
    t.n <- t.n + 1

  let merge a b =
    let t = create () in
    Array.iteri (fun i x -> t.h.(i) <- x + b.h.(i)) a.h;
    for i = 0 to a.over.n - 1 do Samples.add t.over a.over.a.(i) done;
    for i = 0 to b.over.n - 1 do Samples.add t.over b.over.a.(i) done;
    t.n <- a.n + b.n;
    t

  (* Percentile in ns per op. *)
  let pct t q =
    let target = rank_index t.n q + 1 in
    let acc = ref 0 and i = ref 0 in
    while !i < buckets && !acc + t.h.(!i) < target do
      acc := !acc + t.h.(!i);
      incr i
    done;
    let b =
      if !i < buckets then !i
      else begin
        let over = Samples.sorted [ t.over ] in
        over.(target - !acc - 1)
      end
    in
    (float_of_int b +. 0.5) /. float_of_int scale
end

(* ---------------------------------------------------------------- *)
(* JSON output                                                       *)
(* ---------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Raw of string  (* serialised JSON, e.g. a STATS reply *)
  | Obj of (string * json) list
  | Arr of json list

let rec write_json b = function
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Raw s ->
    (* keep the output on one line: a raw newline is only ever JSON
       whitespace *)
    String.iter (fun c -> Buffer.add_char b (if c = '\n' then ' ' else c)) s
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write_json b (Str k);
        Buffer.add_char b ':';
        write_json b v)
      kvs;
    Buffer.add_char b '}'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write_json b v)
      l;
    Buffer.add_char b ']'

let json_to_string j =
  let b = Buffer.create 4096 in
  write_json b j;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Processes and files                                               *)
(* ---------------------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let n = input ic buf 0 65536 in
        if n > 0 then begin
          output oc buf 0 n;
          go ()
        end
      in
      go ())

(* Flat directory copy (data dirs hold only wal.log and the snapshot). *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)


(* ---------------------------------------------------------------- *)
(* What one workload run reports (printed by pb.ml)                    *)
(* ---------------------------------------------------------------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;  (* failed replies, transport errors, violations *)
  mutable violations : int;  (* envelope/durability/self-check violations *)
  mutable notes : string list;
  mutable e2e : (string * float) list;
  mutable layers : (string * float) list;
  mutable extra : (string * json) list;
}

let new_result () =
  { attempted = 0;
    failed = 0;
    violations = 0;
    notes = [];
    e2e = [];
    layers = [];
    extra = [] }

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt
let violation r n = r.violations <- r.violations + n; r.failed <- r.failed + n

(* Latency percentiles in us, with their sample count, from per-window
   [(samples, percentile function in ns)]: each percentile is the median
   over the windows of that window's percentile. Only windows with at
   least 1000 samples count, so at least 10 lie beyond each window's
   p99. *)
let report_latency r ~prefix windows =
  let n = List.fold_left (fun a (c, _) -> a + c) 0 windows in
  let full = List.filter (fun (c, _) -> c >= p99_min_samples) windows in
  let pct q = median_float (List.map (fun (_, f) -> f q /. 1000.0) full) in
  if full = [] then note r "%s latency omitted: no window with %d samples" prefix p99_min_samples
  else r.e2e <- r.e2e @ [ (prefix ^ "_p50_us", pct 0.5); (prefix ^ "_p99_us", pct 0.99) ];
  r.extra <- r.extra @ [ (prefix ^ "_samples", Int n) ]

(* Spans kept in memory during a traced run and written at the end. *)
module Spans = struct
  type t = {
    name : int array;  (* caller-defined span kind *)
    key : int array;  (* request id, or the count of ops the span covers *)
    t0 : int array;
    t1 : int array;
    mutable n : int;
    mutable dropped : int;
  }

  let create cap =
    { name = Array.make cap 0;
      key = Array.make cap 0;
      t0 = Array.make cap 0;
      t1 = Array.make cap 0;
      n = 0;
      dropped = 0 }

  let empty () = create 0

  let add t ~name ~key ~t0 ~t1 =
    if t.n < Array.length t.t0 then begin
      let i = t.n in
      t.name.(i) <- name;
      t.key.(i) <- key;
      t.t0.(i) <- t0;
      t.t1.(i) <- t1;
      t.n <- i + 1
    end
    else t.dropped <- t.dropped + 1

  (* One CSV line per span: layer,span,source,key,start_ns,end_ns. *)
  let write oc ~layer ~names ~source t =
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%s,%s,%d,%d,%d,%d\n" layer names.(t.name.(i)) source
        t.key.(i) t.t0.(i) t.t1.(i)
    done;
    if t.dropped > 0 then
      Printf.fprintf oc "%s,dropped,%d,%d,0,0\n" layer source t.dropped
end
