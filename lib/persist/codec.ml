(* On-disk encoding shared by the WAL and snapshots.

   An entry is a named delta export in the same layout the gossip
   plane uses on the wire (name-length byte, name, kind-tag byte, then
   either a width byte + big-endian slots or one big-endian max), so a
   durable record and a gossip frame describe state identically and
   replay is the same idempotent merge. Framing adds a length + CRC32
   header per record; the CRC is over the payload only, so a torn tail
   is detected as either a short frame or a checksum mismatch. *)

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), table-driven. The
   table is built once at module init; [update] itself allocates
   nothing, which the warm-append [Gc.minor_words] test relies on. *)
let crc_table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let crc32 b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.crc32: range outside buffer";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    c := Array.unsafe_get crc_table ((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let entry_len (name, d) =
  1 + String.length name + 1
  + (match (d : Delta.t) with
    | Delta.Counter v -> 1 + (8 * Array.length v)
    | Delta.Max _ -> 8)

let add_entry buf (name, d) =
  let nlen = String.length name in
  if nlen < 1 || nlen > 255 then
    invalid_arg "Codec.add_entry: name length outside 1..255";
  Obuf.add_u8 buf nlen;
  Obuf.add_string buf name;
  Obuf.add_u8 buf (Delta.kind_tag d);
  match (d : Delta.t) with
  | Delta.Counter v ->
    let w = Array.length v in
    if w < 1 || w > 255 then
      invalid_arg "Codec.add_entry: counter width outside 1..255";
    Obuf.add_u8 buf w;
    for i = 0 to w - 1 do
      Obuf.add_i64_be buf v.(i)
    done
  | Delta.Max v -> Obuf.add_i64_be buf v

let get_u32 b off =
  let g i = Char.code (Bytes.unsafe_get b (off + i)) in
  (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3

let get_i64 b off =
  let g i = Char.code (Bytes.unsafe_get b (off + i)) in
  (g 0 lsl 56) lor (g 1 lsl 48) lor (g 2 lsl 40) lor (g 3 lsl 32)
  lor (g 4 lsl 24) lor (g 5 lsl 16) lor (g 6 lsl 8) lor g 7

(* Parse one entry at [pos]; [None] on any malformed or short input
   (recovery treats that as a torn tail, never an exception). *)
let parse_entry b ~pos ~stop =
  if pos + 2 > stop then None
  else begin
    let nlen = Bytes.get_uint8 b pos in
    if nlen < 1 || pos + 1 + nlen + 1 > stop then None
    else begin
      let name = Bytes.sub_string b (pos + 1) nlen in
      let tag_off = pos + 1 + nlen in
      match Bytes.get_uint8 b tag_off with
      | 0 ->
        if tag_off + 2 > stop then None
        else begin
          let width = Bytes.get_uint8 b (tag_off + 1) in
          let slots = tag_off + 2 in
          if width < 1 || slots + (8 * width) > stop then None
          else
            let v = Array.init width (fun i -> get_i64 b (slots + (8 * i))) in
            Some ((name, Delta.Counter v), slots + (8 * width))
        end
      | 1 ->
        if tag_off + 9 > stop then None
        else Some ((name, Delta.Max (get_i64 b (tag_off + 1))), tag_off + 9)
      | _ -> None
    end
  end
