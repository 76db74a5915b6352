(* Fuzzy snapshots: a full mergeable export of every object, written
   to a temp file and renamed into place atomically.

   "Fuzzy" because writers are never stopped: the export races with
   concurrent updates, and a torn read of a monotone vector is still a
   pointwise lower bound of the true state, so replaying the snapshot
   (an idempotent merge) can only under-report by an amount the
   k-envelope already absorbs. The header records the WAL index the
   caller captured *before* exporting; every record below that index
   is dominated by the snapshot and may be truncated away.

   The entry frames are the WAL's ({!Codec.add_frame}: length +
   CRC32 + entry). A snapshot that fails any validation is treated as
   absent — recovery falls back to pure log replay rather than ever
   refusing to start. *)

let magic = "APXSNP01"
let header_len = 8 + 8 + 4  (* magic, wal index, entry count *)

let path dir = Filename.concat dir "snapshot.dat"

let write ~dir ~wal_index entries =
  let buf = Obuf.create ~size:(1 lsl 16) () in
  Obuf.add_string buf magic;
  Obuf.add_i64_be buf wal_index;
  Obuf.add_i32_be buf (List.length entries);
  List.iter (fun e -> ignore (Codec.add_frame buf e)) entries;
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
  match Wal.fsync_dir dir with
  | Ok () -> ()
  | Error e -> raise (Unix.Unix_error (e, "fsync", dir))

let load ~dir =
  match Wal.read_whole ~short:`Reject (path dir) with
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
        else
          match Codec.parse_frame b ~pos ~stop:len with
          | Some (e, next) -> go next (remaining - 1) (e :: acc)
          | None -> None
      in
      match go header_len count [] with
      | Some entries -> Some (entries, wal_index)
      | None -> None
    end
