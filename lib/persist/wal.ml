(* Append-only delta log with group-commit staging.

   File layout: an 16-byte header (8-byte magic + big-endian base
   index) followed by framed records. Each frame is a 4-byte big-endian
   payload length, a 4-byte CRC-32 of the payload, then the payload —
   one {!Codec} entry, i.e. a full mergeable export of one object. A
   record is therefore idempotent under replay: merging it into any
   later state is a no-op, merging it into an empty restart base
   restores a pointwise lower bound of the pre-crash state, which the
   k-envelope absorbs.

   Appends stage frames into an {!Obuf} under the log mutex; {!flush}
   writes the staged bytes with one [write(2)] and applies the fsync
   policy. The server calls [flush] once per drained batch, before any
   mutation acks go out, so an acknowledged op is always at least in
   the page cache — which survives [kill -9]; only the fsync policy
   decides exposure to power loss. The warm append+flush cycle
   allocates zero OCaml heap words (asserted by a [Gc.minor_words]
   test); the one caveat is [Unix.gettimeofday], which boxes a float,
   so the clock is only read under the [Interval_ms] policy. *)

type fsync_policy =
  | Never
  | Interval_ms of int
  | Every_n of int

let policy_to_string = function
  | Never -> "never"
  | Interval_ms n -> Printf.sprintf "interval-ms:%d" n
  | Every_n n -> Printf.sprintf "every-n-records:%d" n

let policy_of_string s =
  if s = "never" then Some Never
  else
    match String.index_opt s ':' with
    | None -> None
    | Some colon ->
      let key = String.sub s 0 colon in
      let v = String.sub s (colon + 1) (String.length s - colon - 1) in
      (match (key, int_of_string_opt v) with
       | "interval-ms", Some n when n >= 1 -> Some (Interval_ms n)
       | "every-n-records", Some n when n >= 1 -> Some (Every_n n)
       | _ -> None)

type stats = {
  appends : int;
  bytes : int;
  flushes : int;
  fsyncs : int;
  fsyncs_deferred : int;
  fsync_records_covered : int;
  fsync_errors : int;
  truncations : int;
}

type scan_result = {
  s_entries : (string * Delta.t) list;
  s_base : int;
  s_next : int;
  s_valid_len : int;  (** [0] means no (or unrecognizable) log file. *)
  s_torn : bool;
}

type t = {
  dir : string;
  path : string;
  fsync : fsync_policy;
  mu : Mutex.t;
  staging : Obuf.t;
  mutable fd : Unix.file_descr;
  mutable base : int;
  mutable next : int;  (* index of the next record to be appended *)
  mutable unsynced : int;  (* records staged or written since the last fsync *)
  mutable last_sync : float;  (* Interval_ms only *)
  mutable appends : int;
  mutable bytes : int;
  mutable flushes : int;
  mutable fsyncs : int;
  mutable fsyncs_deferred : int;
  mutable fsync_records_covered : int;
  mutable fsync_errors : int;
  mutable truncations : int;
  mutable closed : bool;
}

let magic = "APXWAL01"
let header_len = 16
let frame_header_len = 8
let max_frame_payload = 1 lsl 20

let wal_path dir = Filename.concat dir "wal.log"

let rec write_all fd b pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd b pos len
      with Unix.Unix_error (EINTR, _, _) -> 0
    in
    write_all fd b (pos + n) (len - n)
  end

(* Read a whole file into fresh bytes; [None] if it does not exist. *)
let read_whole path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (ENOENT, _, _) -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).st_size in
        let b = Bytes.create size in
        let rec go pos =
          if pos < size then
            match Unix.read fd b pos (size - pos) with
            | 0 -> pos  (* shrank under us; treat the rest as torn *)
            | n -> go (pos + n)
            | exception Unix.Unix_error (EINTR, _, _) -> go pos
          else pos
        in
        let got = go 0 in
        Some (if got = size then b else Bytes.sub b 0 got))

(* Walk the frames of [b] starting after the header. Returns the
   decoded entries in append order, the count of good frames, the
   offset of the first bad byte (= valid length) and whether anything
   trailing was cut. Shared by {!scan} and {!truncate_upto}. *)
let walk_frames b =
  let len = Bytes.length b in
  let rec go pos count acc =
    if pos = len then (List.rev acc, count, pos, false)
    else if pos + frame_header_len > len then (List.rev acc, count, pos, true)
    else begin
      let plen = Codec.get_u32 b pos in
      let crc = Codec.get_u32 b (pos + 4) in
      let payload = pos + frame_header_len in
      if plen < 3 || plen > max_frame_payload || payload + plen > len then
        (List.rev acc, count, pos, true)
      else if Codec.crc32 b ~pos:payload ~len:plen <> crc then
        (List.rev acc, count, pos, true)
      else
        match Codec.parse_entry b ~pos:payload ~stop:(payload + plen) with
        | Some (e, fin) when fin = payload + plen ->
          go (payload + plen) (count + 1) (e :: acc)
        | _ -> (List.rev acc, count, pos, true)
    end
  in
  go header_len 0 []

let scan ~dir =
  match read_whole (wal_path dir) with
  | None -> { s_entries = []; s_base = 0; s_next = 0; s_valid_len = 0; s_torn = false }
  | Some b ->
    if
      Bytes.length b < header_len
      || Bytes.sub_string b 0 (String.length magic) <> magic
    then
      (* Unrecognizable header: nothing replayable; restart fresh. A
         nonempty file still counts as a torn tail so the operator can
         see data was discarded. *)
      { s_entries = [];
        s_base = 0;
        s_next = 0;
        s_valid_len = 0;
        s_torn = Bytes.length b > 0 }
    else begin
      let base = Codec.get_i64 b (String.length magic) in
      let entries, count, valid_len, torn = walk_frames b in
      { s_entries = entries;
        s_base = base;
        s_next = base + count;
        s_valid_len = valid_len;
        s_torn = torn }
    end

let write_header fd ~base =
  let h = Bytes.create header_len in
  Bytes.blit_string magic 0 h 0 (String.length magic);
  for i = 0 to 7 do
    Bytes.set_uint8 h (8 + i) ((base lsr (8 * (7 - i))) land 0xff)
  done;
  write_all fd h 0 header_len

let fsync_dir dir =
  (* Persist the rename itself; best-effort (some filesystems refuse
     fsync on directories). *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd

let open_ ~dir ~fsync ~scan:s =
  (match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (EEXIST, _, _) -> ());
  let path = wal_path dir in
  let fd =
    if s.s_valid_len = 0 then begin
      let fd =
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      write_header fd ~base:s.s_base;
      fd
    end
    else begin
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      (* Cut the torn tail found by the scan so appends resume on a
         frame boundary. *)
      Unix.ftruncate fd s.s_valid_len;
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      fd
    end
  in
  { dir;
    path;
    fsync;
    mu = Mutex.create ();
    staging = Obuf.create ~size:(1 lsl 16) ();
    fd;
    base = s.s_base;
    next = s.s_next;
    unsynced = 0;
    last_sync = 0.0;
    appends = 0;
    bytes = 0;
    flushes = 0;
    fsyncs = 0;
    fsyncs_deferred = 0;
    fsync_records_covered = 0;
    fsync_errors = 0;
    truncations = 0;
    closed = false }

(* Stage one framed record. The CRC covers the payload, which is
   encoded first and checksummed in place; the 4 CRC bytes reserved
   before it are then patched. No allocation on the warm path. *)
let append t entry =
  Mutex.lock t.mu;
  (if not t.closed then begin
     let plen = Codec.entry_len entry in
     Obuf.add_i32_be t.staging plen;
     let crc_off = Obuf.length t.staging in
     Obuf.add_i32_be t.staging 0;
     let payload_off = Obuf.length t.staging in
     Codec.add_entry t.staging entry;
     let b = Obuf.bytes t.staging in
     let crc = Codec.crc32 b ~pos:payload_off ~len:plen in
     Bytes.unsafe_set b crc_off (Char.unsafe_chr ((crc lsr 24) land 0xff));
     Bytes.unsafe_set b (crc_off + 1) (Char.unsafe_chr ((crc lsr 16) land 0xff));
     Bytes.unsafe_set b (crc_off + 2) (Char.unsafe_chr ((crc lsr 8) land 0xff));
     Bytes.unsafe_set b (crc_off + 3) (Char.unsafe_chr (crc land 0xff));
     t.next <- t.next + 1;
     t.appends <- t.appends + 1;
     t.unsynced <- t.unsynced + 1;
     t.bytes <- t.bytes + frame_header_len + plen
   end);
  Mutex.unlock t.mu

(* A failed fsync is not a sync: it is counted apart, credits no
   records and leaves [unsynced] as it was, so the next flush retries.
   Whether the kernel kept the dirty pages after the error is up to the
   kernel (the fsyncgate problem), so the records stay counted as
   unsynced until an fsync succeeds. *)
let do_fsync t =
  match Unix.fsync t.fd with
  | () ->
    t.fsyncs <- t.fsyncs + 1;
    t.fsync_records_covered <- t.fsync_records_covered + t.unsynced;
    t.unsynced <- 0
  | exception Unix.Unix_error _ -> t.fsync_errors <- t.fsync_errors + 1

(* [unsynced] counts *records* since the last fsync (bumped in
   [append]), not flush calls. Under [Every_n k] this makes the policy
   a cross-shard group commit: every shard's appends of one drain
   cycle land in the same staging buffer, and the flush that tips the
   record count over [k] pays one fsync covering all of them. Flushes
   that wrote records but stayed under the threshold are counted as
   deferred so STATS can show the batching rate honestly. *)
let flush_locked t =
  let n = Obuf.length t.staging in
  let wrote = n > 0 in
  if wrote then begin
    write_all t.fd (Obuf.bytes t.staging) 0 n;
    Obuf.clear t.staging;
    t.flushes <- t.flushes + 1
  end;
  match t.fsync with
  | Never -> ()
  | Every_n k ->
    if t.unsynced >= k then do_fsync t
    else if wrote then t.fsyncs_deferred <- t.fsyncs_deferred + 1
  | Interval_ms ms ->
    if t.unsynced > 0 then begin
      let now = Unix.gettimeofday () in
      if now -. t.last_sync >= float_of_int ms /. 1000.0 then begin
        do_fsync t;
        (* a failed sync leaves [unsynced] > 0: retry at the next flush *)
        if t.unsynced = 0 then t.last_sync <- now
      end
      else if wrote then t.fsyncs_deferred <- t.fsyncs_deferred + 1
    end

let flush t =
  Mutex.lock t.mu;
  if not t.closed then flush_locked t;
  Mutex.unlock t.mu

let next_index t =
  Mutex.lock t.mu;
  let n = t.next in
  Mutex.unlock t.mu;
  n

(* Rotate the log: drop every record below [idx] (they are covered by
   the snapshot taken at index [idx]) by rewriting header + surviving
   tail into a temp file and renaming it into place. Runs under the
   mutex; appends block for the duration, which is bounded by the
   between-snapshots write volume. *)
let truncate_upto t idx =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let idx = min idx t.next in
      if (not t.closed) && idx > t.base then begin
        flush_locked t;
        match read_whole t.path with
        | None -> ()
        | Some b ->
          (* Find the byte offset of record [idx] by walking frames we
             wrote ourselves; defensively stop at any malformed frame. *)
          let len = Bytes.length b in
          let rec cut_off pos i =
            if i >= idx || pos + frame_header_len > len then pos
            else begin
              let plen = Codec.get_u32 b pos in
              if plen < 3 || pos + frame_header_len + plen > len then pos
              else cut_off (pos + frame_header_len + plen) (i + 1)
            end
          in
          let cut = cut_off header_len t.base in
          let tmp = t.path ^ ".tmp" in
          let tfd =
            Unix.openfile tmp
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
              0o644
          in
          let close_tmp () = try Unix.close tfd with Unix.Unix_error _ -> () in
          (match
             write_header tfd ~base:idx;
             write_all tfd b cut (len - cut)
           with
           | () -> ()
           | exception e ->
             close_tmp ();
             raise e);
          match Unix.fsync tfd with
          | exception Unix.Unix_error _ ->
            (* An unsynced rewrite must never replace the live log: a
               crash after the rename could lose records the old file
               held durably. Keep the old log and its base; the next
               snapshot retries the rotation. *)
            close_tmp ();
            (try Unix.unlink tmp with Unix.Unix_error _ -> ());
            t.fsync_errors <- t.fsync_errors + 1
          | () ->
            Unix.close tfd;
            Unix.rename tmp t.path;
            fsync_dir t.dir;
            Unix.close t.fd;
            let fd = Unix.openfile t.path [ Unix.O_RDWR ] 0o644 in
            ignore (Unix.lseek fd 0 Unix.SEEK_END);
            t.fd <- fd;
            t.base <- idx;
            t.truncations <- t.truncations + 1
      end)

let stats t =
  Mutex.lock t.mu;
  let s =
    { appends = t.appends;
      bytes = t.bytes;
      flushes = t.flushes;
      fsyncs = t.fsyncs;
      fsyncs_deferred = t.fsyncs_deferred;
      fsync_records_covered = t.fsync_records_covered;
      fsync_errors = t.fsync_errors;
      truncations = t.truncations }
  in
  Mutex.unlock t.mu;
  s

let close t =
  Mutex.lock t.mu;
  if not t.closed then begin
    flush_locked t;
    (* A clean close always syncs, whatever the policy: the point of a
       graceful shutdown is that restart needs no replay slack. *)
    do_fsync t;
    Unix.close t.fd;
    t.closed <- true
  end;
  Mutex.unlock t.mu
