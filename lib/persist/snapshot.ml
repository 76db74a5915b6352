(* Fuzzy snapshots: a full mergeable export of every object, written
   to a temp file and renamed into place atomically.

   "Fuzzy" because writers are never stopped: the export races with
   concurrent updates, and a torn read of a monotone vector is still a
   pointwise lower bound of the true state, so replaying the snapshot
   (an idempotent merge) can only under-report by an amount the
   k-envelope already absorbs. The header records the WAL index the
   caller captured *before* exporting; every record below that index
   is dominated by the snapshot and may be truncated away.

   The entry frames reuse the WAL frame format (length + CRC32 +
   Codec entry). A snapshot that fails any validation is treated as
   absent — recovery falls back to pure log replay rather than ever
   refusing to start. *)

let magic = "APXSNP01"
let header_len = 8 + 8 + 4  (* magic, wal index, entry count *)
let frame_header_len = 8
let max_frame_payload = 1 lsl 20

let path dir = Filename.concat dir "snapshot.dat"

let read_whole p =
  match Unix.openfile p [ Unix.O_RDONLY ] 0 with
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
            | 0 -> pos
            | n -> go (pos + n)
            | exception Unix.Unix_error (EINTR, _, _) -> go pos
          else pos
        in
        if go 0 = size then Some b else None)

let write ~dir ~wal_index entries =
  let buf = Obuf.create ~size:(1 lsl 16) () in
  Obuf.add_string buf magic;
  Obuf.add_i64_be buf wal_index;
  Obuf.add_i32_be buf (List.length entries);
  List.iter
    (fun e ->
      let plen = Codec.entry_len e in
      Obuf.add_i32_be buf plen;
      let crc_off = Obuf.length buf in
      Obuf.add_i32_be buf 0;
      let payload_off = Obuf.length buf in
      Codec.add_entry buf e;
      let b = Obuf.bytes buf in
      let crc = Codec.crc32 b ~pos:payload_off ~len:plen in
      Bytes.set_uint8 b crc_off ((crc lsr 24) land 0xff);
      Bytes.set_uint8 b (crc_off + 1) ((crc lsr 16) land 0xff);
      Bytes.set_uint8 b (crc_off + 2) ((crc lsr 8) land 0xff);
      Bytes.set_uint8 b (crc_off + 3) (crc land 0xff))
    entries;
  let final = path dir in
  let tmp = final ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (* A failed write (ENOSPC) or fsync fails the snapshot. The fd is
     closed either way: a periodic snapshot on a bad disk would
     otherwise leak one per interval. An unsynced temp file is also
     removed, so it can never be renamed over the previous snapshot,
     which stays in place. *)
  let fail e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e
  in
  (match Wal.write_all fd (Obuf.bytes buf) 0 (Obuf.length buf) with
   | () -> ()
   | exception e -> fail e);
  (match Unix.fsync fd with
   | () -> Unix.close fd
   | exception e ->
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     fail e);
  Unix.rename tmp final;
  Wal.fsync_dir dir

let load ~dir =
  match read_whole (path dir) with
  | None -> None
  | Some b ->
    let len = Bytes.length b in
    if len < header_len || Bytes.sub_string b 0 (String.length magic) <> magic
    then None
    else begin
      let wal_index = Codec.get_i64 b 8 in
      let count = Codec.get_u32 b 16 in
      let rec go pos remaining acc =
        if remaining = 0 then
          if pos = len then Some (List.rev acc) else None
        else if pos + frame_header_len > len then None
        else begin
          let plen = Codec.get_u32 b pos in
          let crc = Codec.get_u32 b (pos + 4) in
          let payload = pos + frame_header_len in
          if plen < 3 || plen > max_frame_payload || payload + plen > len then
            None
          else if Codec.crc32 b ~pos:payload ~len:plen <> crc then None
          else
            match Codec.parse_entry b ~pos:payload ~stop:(payload + plen) with
            | Some (e, fin) when fin = payload + plen ->
              go (payload + plen) (remaining - 1) (e :: acc)
            | _ -> None
        end
      in
      match go header_len count [] with
      | Some entries -> Some (entries, wal_index)
      | None -> None
    end
