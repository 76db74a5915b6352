let header_len = 4
let max_request_payload = 4096
let max_peer_payload = 1 lsl 20
let max_response_payload = 1 lsl 20
let max_name_len = 255
let max_stats_json = max_response_payload - 5
let max_gossip_entries = 0xFFFF

(* The unversioned pre-handshake protocol is retroactively version 1;
   version 2 added HELLO; version 3 is the compact peer data path:
   GOSSIP2 (op 9, varint-encoded deltas with per-connection name
   interning, fire-and-forget) and DIGEST (op 10, per-object
   fingerprint summaries) with DIGEST_ACK (status 9). *)
let protocol_version = 3
let role_client = 0
let role_peer = 1

(* A compact gossip entry body: counters travel as sparse (slot,
   absolute-total) pairs — only the slots that changed — and the
   receiver rebuilds the full-width vector from its own replication
   topology; maxima travel as one value. Absolute totals (never
   diffs) keep every frame idempotent, so the unacked GOSSIP2 op is
   safe: a lost frame is re-covered by the next boundary crossing or
   by digest anti-entropy, and a duplicated one merges to the same
   state. *)
type g2_body =
  | G2_counter of (int * int) list
      (** [(slot, total)] pairs, slots strictly increasing. *)
  | G2_max of int

type g2_entry = {
  g2_oid : int;  (** sender-side dense object id *)
  g2_name : string option;
      (** object name, present only on the entry's first mention on
          this connection (teaches the receiver the oid binding) *)
  g2_body : g2_body;
}

type digest_entry = {
  d_oid : int;
  d_name : string option;  (** same first-mention interning as GOSSIP2 *)
  d_fp : int;  (** 32-bit truncated FNV fingerprint of the export *)
  d_total : int;  (** total value — collision backstop for [d_fp] *)
}

type request =
  | Inc of { id : int; name : string }
  | Read of { id : int; name : string }
  | Write of { id : int; name : string; value : int }
  | Stats of { id : int }
  | Ping of { id : int }
  | Add of { id : int; name : string; delta : int }
  | Hello of { id : int; version : int; role : int }
  | Gossip2 of { node : int; entries : g2_entry list }
      (** unacked — carries no request id and gets no response *)
  | Digest of { id : int; node : int; entries : digest_entry list }

type response =
  | Value of { id : int; value : int }
  | Busy of { id : int }
  | Unknown_object of { id : int }
  | Bad_request of { id : int }
  | Stats_json of { id : int; json : string }
  | Pong of { id : int }
  | Hello_ok of { id : int; version : int }
  | Bad_version of { id : int; version : int }
  | Digest_ack of { id : int; oids : int list }
      (** sender-side dense ids of the objects whose fingerprints
          disagreed — the sender answers with full repair exports *)

let request_id = function
  | Inc { id; _ } | Read { id; _ } | Write { id; _ } | Stats { id }
  | Ping { id } | Add { id; _ } | Hello { id; _ } | Digest { id; _ } ->
    id
  | Gossip2 _ -> 0

let response_id = function
  | Value { id; _ } | Busy { id } | Unknown_object { id } | Bad_request { id }
  | Stats_json { id; _ } | Pong { id } | Hello_ok { id; _ }
  | Bad_version { id; _ } | Digest_ack { id; _ } ->
    id

let mask_id id = id land 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int (mask_id v))
let add_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)

let add_header buf payload_len =
  Buffer.add_int32_be buf (Int32.of_int payload_len)

let check_name name =
  if String.length name > max_name_len then
    invalid_arg "Wire.encode_request: object name longer than 255 bytes"

let add_varint_buf buf v =
  let v = ref v in
  while !v lsr 7 <> 0 do
    Buffer.add_uint8 buf (0x80 lor (!v land 0x7f));
    v := !v lsr 7
  done;
  Buffer.add_uint8 buf !v

(* Compact-entry codes packed into the low bits of the tagword
   [(oid lsl 3) lor (named lsl 2) lor code]. Code 2 is the
   steady-state fast form: one changed counter slot with no pair
   count. *)
let g2_code_counter = 0
let g2_code_max = 1
let g2_code_single = 2

let check_opt_name = function
  | None -> ()
  | Some n ->
    check_name n;
    if String.length n = 0 then
      invalid_arg "Wire.encode_request: empty interned object name"

let check_oid oid =
  if oid < 0 then invalid_arg "Wire.encode_request: negative dense object id"

(* Shared compact-entry serialisation, used by the [Buffer]-based
   typed encoder below. The gossip sender's hot path uses the
   allocation-free {!g2_start}/{!g2_add_counter} builder instead. *)
let add_g2_entry_buf buf e =
  check_oid e.g2_oid;
  check_opt_name e.g2_name;
  let named = if e.g2_name = None then 0 else 1 in
  let code =
    match e.g2_body with
    | G2_counter [ _ ] -> g2_code_single
    | G2_counter _ -> g2_code_counter
    | G2_max _ -> g2_code_max
  in
  add_varint_buf buf ((e.g2_oid lsl 3) lor (named lsl 2) lor code);
  (match e.g2_name with
   | None -> ()
   | Some n ->
     Buffer.add_uint8 buf (String.length n);
     Buffer.add_string buf n);
  match e.g2_body with
  | G2_max v -> add_varint_buf buf v
  | G2_counter [ (slot, v) ] ->
    if slot < 0 || slot > 254 then
      invalid_arg "Wire.encode_request: counter slot outside 0..254";
    if v < 0 then invalid_arg "Wire.encode_request: negative counter total";
    add_varint_buf buf slot;
    add_varint_buf buf v
  | G2_counter pairs ->
    let n = List.length pairs in
    if n < 1 || n > 255 then
      invalid_arg "Wire.encode_request: counter pair count outside 1..255";
    add_varint_buf buf n;
    (* Slots travel as gaps from the previous slot (first gap is the
       slot itself), so a dense low-index prefix costs one byte per
       pair and untouched high slots cost nothing. *)
    let prev = ref (-1) in
    List.iter
      (fun (slot, v) ->
        if slot <= !prev || slot > 254 then
          invalid_arg "Wire.encode_request: counter slots not increasing in 0..254";
        if v < 0 then invalid_arg "Wire.encode_request: negative counter total";
        add_varint_buf buf (slot - !prev - 1);
        add_varint_buf buf v;
        prev := slot)
      pairs

let add_digest_entry_buf buf e =
  check_oid e.d_oid;
  check_opt_name e.d_name;
  if e.d_fp < 0 || e.d_fp > 0xFFFF_FFFF then
    invalid_arg "Wire.encode_request: digest fingerprint outside 32 bits";
  let named = if e.d_name = None then 0 else 1 in
  add_varint_buf buf ((e.d_oid lsl 1) lor named);
  (match e.d_name with
   | None -> ()
   | Some n ->
     Buffer.add_uint8 buf (String.length n);
     Buffer.add_string buf n);
  add_varint_buf buf e.d_fp;
  add_varint_buf buf e.d_total

let encode_request buf req =
  (match req with
   | Inc { name; _ } | Read { name; _ } | Write { name; _ }
   | Add { name; _ } ->
     check_name name
   | Stats _ | Ping _ | Hello _ | Gossip2 _ | Digest _ -> ());
  let named op id name extra =
    add_header buf (6 + String.length name + extra);
    Buffer.add_uint8 buf op;
    add_u32 buf id;
    Buffer.add_uint8 buf (String.length name);
    Buffer.add_string buf name
  in
  match req with
  | Inc { id; name } -> named 1 id name 0
  | Read { id; name } -> named 2 id name 0
  | Write { id; name; value } ->
    named 3 id name 8;
    add_i64 buf value
  | Add { id; name; delta } ->
    named 6 id name 8;
    add_i64 buf delta
  | Stats { id } ->
    add_header buf 5;
    Buffer.add_uint8 buf 4;
    add_u32 buf id
  | Ping { id } ->
    add_header buf 5;
    Buffer.add_uint8 buf 5;
    add_u32 buf id
  | Hello { id; version; role } ->
    if version < 0 || version > 255 then
      invalid_arg "Wire.encode_request: HELLO version outside 0..255";
    if role <> role_client && role <> role_peer then
      invalid_arg "Wire.encode_request: bad HELLO role";
    add_header buf 7;
    Buffer.add_uint8 buf 7;
    add_u32 buf id;
    Buffer.add_uint8 buf version;
    Buffer.add_uint8 buf role
  | Gossip2 { node; entries } ->
    if node < 0 || node > 255 then
      invalid_arg "Wire.encode_request: gossip node id outside 0..255";
    if List.length entries > max_gossip_entries then
      invalid_arg "Wire.encode_request: too many gossip entries";
    (* Varint entries have data-dependent sizes, so the typed encoder
       stages the payload in a scratch buffer to learn the header
       length. Fine off the hot path; the sender's builder patches
       the header in place instead. *)
    let p = Buffer.create 256 in
    Buffer.add_uint8 p 9;
    Buffer.add_uint8 p node;
    Buffer.add_uint16_be p (List.length entries);
    List.iter (fun e -> add_g2_entry_buf p e) entries;
    if Buffer.length p > max_peer_payload then
      invalid_arg "Wire.encode_request: gossip frame exceeds max_peer_payload";
    add_header buf (Buffer.length p);
    Buffer.add_buffer buf p
  | Digest { id; node; entries } ->
    if node < 0 || node > 255 then
      invalid_arg "Wire.encode_request: digest node id outside 0..255";
    if List.length entries > max_gossip_entries then
      invalid_arg "Wire.encode_request: too many digest entries";
    let p = Buffer.create 256 in
    Buffer.add_uint8 p 10;
    add_u32 p id;
    Buffer.add_uint8 p node;
    Buffer.add_uint16_be p (List.length entries);
    List.iter (fun e -> add_digest_entry_buf p e) entries;
    if Buffer.length p > max_peer_payload then
      invalid_arg "Wire.encode_request: digest frame exceeds max_peer_payload";
    add_header buf (Buffer.length p);
    Buffer.add_buffer buf p

let encode_response buf resp =
  let bare status id =
    add_header buf 5;
    Buffer.add_uint8 buf status;
    add_u32 buf id
  in
  match resp with
  | Value { id; value } ->
    add_header buf 13;
    Buffer.add_uint8 buf 0;
    add_u32 buf id;
    add_i64 buf value
  | Busy { id } -> bare 1 id
  | Unknown_object { id } -> bare 2 id
  | Bad_request { id } -> bare 3 id
  | Stats_json { id; json } ->
    if String.length json > max_stats_json then
      invalid_arg "Wire.encode_response: STATS payload too large";
    add_header buf (5 + String.length json);
    Buffer.add_uint8 buf 4;
    add_u32 buf id;
    Buffer.add_string buf json
  | Pong { id } -> bare 5 id
  | Hello_ok { id; version } ->
    add_header buf 6;
    Buffer.add_uint8 buf 6;
    add_u32 buf id;
    Buffer.add_uint8 buf (version land 0xFF)
  | Bad_version { id; version } ->
    add_header buf 6;
    Buffer.add_uint8 buf 7;
    add_u32 buf id;
    Buffer.add_uint8 buf (version land 0xFF)
  | Digest_ack { id; oids } ->
    if List.length oids > max_gossip_entries then
      invalid_arg "Wire.encode_response: too many digest-ack oids";
    let plen =
      List.fold_left
        (fun acc oid ->
          if oid < 0 then
            invalid_arg "Wire.encode_response: negative digest-ack oid";
          acc + Obuf.varint_len oid)
        7 oids
    in
    if plen > max_response_payload then
      invalid_arg "Wire.encode_response: DIGEST_ACK payload too large";
    add_header buf plen;
    Buffer.add_uint8 buf 9;
    add_u32 buf id;
    Buffer.add_uint16_be buf (List.length oids);
    List.iter (fun oid -> add_varint_buf buf oid) oids

(* The same response encoding into an [Obuf.t] — the server's flush
   path, which writes the buffer's storage directly (a [Buffer.t]
   would force a [to_bytes] copy per flush). Kept byte-for-byte
   identical to [encode_response] (asserted by a qcheck parity
   test). *)
(* No local [header]/[bare] helpers here: closing over [ob] would
   allocate a closure per response — measurable heat on the flush
   path, which must stay allocation-free once warm. *)
let obuf_bare ob status id =
  Obuf.add_i32_be ob 5;
  Obuf.add_u8 ob status;
  Obuf.add_i32_be ob (mask_id id)

(* Patch a big-endian u32 at [off] of the Obuf's storage: the length
   header a frame opener reserved with a placeholder. *)
let patch_u32 ob off v =
  let b = Obuf.bytes ob in
  Bytes.unsafe_set b off (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (v land 0xff))

(* A STATS_JSON reply is streamed: the opener reserves the length
   header, the caller appends the JSON text in place, and the closer
   patches the header — so the server never materialises the text
   apart from the connection's output buffer. *)
let stats_open ob ~id =
  let frame = Obuf.length ob in
  Obuf.add_i32_be ob 0;
  Obuf.add_u8 ob 4;
  Obuf.add_i32_be ob (mask_id id);
  frame

let stats_close ob frame =
  let plen = Obuf.length ob - frame - header_len in
  if plen > max_response_payload then begin
    Obuf.truncate ob frame;
    invalid_arg "Wire.stats_close: STATS payload too large"
  end;
  patch_u32 ob frame plen

let encode_response_obuf ob resp =
  match resp with
  | Value { id; value } ->
    Obuf.add_i32_be ob 13;
    Obuf.add_u8 ob 0;
    Obuf.add_i32_be ob (mask_id id);
    Obuf.add_i64_be ob value
  | Busy { id } -> obuf_bare ob 1 id
  | Unknown_object { id } -> obuf_bare ob 2 id
  | Bad_request { id } -> obuf_bare ob 3 id
  | Stats_json { id; json } ->
    if String.length json > max_stats_json then
      invalid_arg "Wire.encode_response_obuf: STATS payload too large";
    let frame = stats_open ob ~id in
    Obuf.add_string ob json;
    stats_close ob frame
  | Pong { id } -> obuf_bare ob 5 id
  | Hello_ok { id; version } ->
    Obuf.add_i32_be ob 6;
    Obuf.add_u8 ob 6;
    Obuf.add_i32_be ob (mask_id id);
    Obuf.add_u8 ob (version land 0xFF)
  | Bad_version { id; version } ->
    Obuf.add_i32_be ob 6;
    Obuf.add_u8 ob 7;
    Obuf.add_i32_be ob (mask_id id);
    Obuf.add_u8 ob (version land 0xFF)
  | Digest_ack { id; oids } ->
    if List.length oids > max_gossip_entries then
      invalid_arg "Wire.encode_response_obuf: too many digest-ack oids";
    let plen =
      List.fold_left
        (fun acc oid ->
          if oid < 0 then
            invalid_arg "Wire.encode_response_obuf: negative digest-ack oid";
          acc + Obuf.varint_len oid)
        7 oids
    in
    if plen > max_response_payload then
      invalid_arg "Wire.encode_response_obuf: DIGEST_ACK payload too large";
    Obuf.add_i32_be ob plen;
    Obuf.add_u8 ob 9;
    Obuf.add_i32_be ob (mask_id id);
    Obuf.add_u8 ob ((List.length oids lsr 8) land 0xff);
    Obuf.add_u8 ob (List.length oids land 0xff);
    List.iter (fun oid -> Obuf.add_varint ob oid) oids

(* ------------------------------------------------------------------ *)
(* Streaming peer-frame builder                                        *)
(* ------------------------------------------------------------------ *)

(* The gossip sender's encoder: appends GOSSIP2 / DIGEST frames
   directly into the per-peer coalescing [Obuf], patching the 4-byte
   length header and 2-byte entry count in place at [finish]. No
   closures, no lists, no intermediate buffers — once the Obuf has
   grown to steady-state frame volume the whole encode round
   allocates nothing (asserted by a [Gc.minor_words] test). *)
type builder = {
  mutable b_ob : Obuf.t;
  mutable b_frame_off : int;  (* offset of the 4-byte length header *)
  mutable b_count_off : int;  (* offset of the 2-byte entry count *)
  mutable b_count : int;
  mutable b_open : bool;
}

let builder () =
  { b_ob = Obuf.create ~size:16 ();
    b_frame_off = 0;
    b_count_off = 0;
    b_count = 0;
    b_open = false }

let frame_start bl ob ~op =
  if bl.b_open then invalid_arg "Wire.frame_start: frame already open";
  bl.b_ob <- ob;
  bl.b_frame_off <- Obuf.length ob;
  Obuf.add_i32_be ob 0;
  Obuf.add_u8 ob op;
  bl.b_count <- 0;
  bl.b_open <- true

let g2_start bl ob ~node =
  frame_start bl ob ~op:9;
  Obuf.add_u8 ob node;
  bl.b_count_off <- Obuf.length ob;
  Obuf.add_u8 ob 0;
  Obuf.add_u8 ob 0

let digest_start bl ob ~id ~node =
  frame_start bl ob ~op:10;
  Obuf.add_i32_be ob (mask_id id);
  Obuf.add_u8 ob node;
  bl.b_count_off <- Obuf.length ob;
  Obuf.add_u8 ob 0;
  Obuf.add_u8 ob 0

let payload_len bl = Obuf.length bl.b_ob - bl.b_frame_off - header_len
let entry_count bl = bl.b_count

let bump_count bl =
  if not bl.b_open then invalid_arg "Wire.builder: no open frame";
  if bl.b_count >= max_gossip_entries then
    invalid_arg "Wire.builder: frame entry count overflow";
  bl.b_count <- bl.b_count + 1

(* [name = ""] means "already interned on this connection": the tag's
   named bit stays clear and no name bytes travel. *)
let add_entry_name ob name =
  if name <> "" then begin
    let n = String.length name in
    if n > max_name_len then
      invalid_arg "Wire.builder: object name longer than 255 bytes";
    Obuf.add_u8 ob n;
    Obuf.add_string ob name
  end

let g2_add_counter bl ~oid ~name ~slots ~vals ~n =
  bump_count bl;
  if n < 1 || n > 255 then invalid_arg "Wire.g2_add_counter: n outside 1..255";
  let ob = bl.b_ob in
  let named = if name = "" then 0 else 1 in
  let code = if n = 1 then g2_code_single else g2_code_counter in
  Obuf.add_varint ob ((oid lsl 3) lor (named lsl 2) lor code);
  add_entry_name ob name;
  if n = 1 then begin
    Obuf.add_varint ob (Array.unsafe_get slots 0);
    Obuf.add_varint ob (Array.unsafe_get vals 0)
  end
  else begin
    Obuf.add_varint ob n;
    let prev = ref (-1) in
    for i = 0 to n - 1 do
      let slot = Array.unsafe_get slots i in
      Obuf.add_varint ob (slot - !prev - 1);
      Obuf.add_varint ob (Array.unsafe_get vals i);
      prev := slot
    done
  end

let g2_add_max bl ~oid ~name v =
  bump_count bl;
  let ob = bl.b_ob in
  let named = if name = "" then 0 else 1 in
  Obuf.add_varint ob ((oid lsl 3) lor (named lsl 2) lor g2_code_max);
  add_entry_name ob name;
  Obuf.add_varint ob v

let digest_add bl ~oid ~name ~fp ~total =
  bump_count bl;
  let ob = bl.b_ob in
  let named = if name = "" then 0 else 1 in
  Obuf.add_varint ob ((oid lsl 1) lor named);
  add_entry_name ob name;
  Obuf.add_varint ob fp;
  Obuf.add_varint ob total

let frame_finish bl =
  if not bl.b_open then invalid_arg "Wire.frame_finish: no open frame";
  let ob = bl.b_ob in
  let plen = Obuf.length ob - bl.b_frame_off - header_len in
  if plen > max_peer_payload then
    invalid_arg "Wire.frame_finish: frame exceeds max_peer_payload";
  patch_u32 ob bl.b_frame_off plen;
  let b = Obuf.bytes ob in
  let co = bl.b_count_off in
  Bytes.unsafe_set b co (Char.unsafe_chr ((bl.b_count lsr 8) land 0xff));
  Bytes.unsafe_set b (co + 1) (Char.unsafe_chr (bl.b_count land 0xff));
  bl.b_open <- false

(* Rewind an open frame out of the buffer — the sender's exit when
   every candidate entry diffed empty and only the header was
   written. Entries already appended are discarded with it, so only
   abort frames known to be empty. *)
let frame_abort bl =
  if not bl.b_open then invalid_arg "Wire.frame_abort: no open frame";
  Obuf.truncate bl.b_ob bl.b_frame_off;
  bl.b_count <- 0;
  bl.b_open <- false

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type 'a decoded =
  | Decoded of 'a * int
  | Need_more
  | Oversized of int
  | Malformed of string

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF
let get_i64 b off = Int64.to_int (Bytes.get_int64_be b off)

(* Shared framing: validate the header against [max_payload], then hand
   a complete payload to [parse]. *)
let decode ~max_payload ~parse b ~off ~len =
  if len < header_len then Need_more
  else begin
    let plen = Int32.to_int (Bytes.get_int32_be b off) in
    if plen < 1 || plen > max_payload then Oversized plen
    else if len < header_len + plen then Need_more
    else
      match parse b (off + header_len) plen with
      | Some msg -> Decoded (msg, header_len + plen)
      | None -> Malformed "unparseable payload"
  end

(* LEB128 decode with a hard 9-byte ceiling (the encoder's maximum for
   a 63-bit int); [None] on truncation or an over-long run. Returns
   the value and the cursor after it. *)
let get_varint b ~pos ~stop =
  let v = ref 0 and shift = ref 0 and cur = ref pos in
  let result = ref None and looping = ref true in
  while !looping do
    if !cur >= stop || !shift > 56 then looping := false
    else begin
      let byte = Bytes.get_uint8 b !cur in
      incr cur;
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then begin
        result := Some (!v, !cur);
        looping := false
      end
    end
  done;
  !result

(* Optional interned name: consumed only when the tag's named bit was
   set. Shared by the GOSSIP2 and DIGEST entry parsers. *)
let get_opt_name b ~named ~cursor ~stop =
  if not named then Some (None, cursor)
  else if cursor >= stop then None
  else begin
    let nlen = Bytes.get_uint8 b cursor in
    if nlen < 1 || cursor + 1 + nlen > stop then None
    else Some (Some (Bytes.sub_string b (cursor + 1) nlen), cursor + 1 + nlen)
  end

let parse_g2_entries b ~cursor ~stop ~count =
  let ( let* ) o f = match o with None -> None | Some x -> f x in
  let rec go cur remaining acc =
    if remaining = 0 then if cur = stop then Some (List.rev acc) else None
    else
      let* tag, cur = get_varint b ~pos:cur ~stop in
      let oid = tag lsr 3 in
      if oid < 0 then None
      else
        let* name, cur = get_opt_name b ~named:(tag land 4 <> 0) ~cursor:cur ~stop in
        let* body, cur =
          match tag land 3 with
          | c when c = g2_code_max ->
            let* v, cur = get_varint b ~pos:cur ~stop in
            Some (G2_max v, cur)
          | c when c = g2_code_single ->
            let* slot, cur = get_varint b ~pos:cur ~stop in
            if slot > 254 then None
            else
              let* v, cur = get_varint b ~pos:cur ~stop in
              if v < 0 then None else Some (G2_counter [ (slot, v) ], cur)
          | c when c = g2_code_counter ->
            let* n, cur = get_varint b ~pos:cur ~stop in
            if n < 1 || n > 255 then None
            else begin
              let rec pairs cur remaining prev acc =
                if remaining = 0 then Some (List.rev acc, cur)
                else
                  let* gap, cur = get_varint b ~pos:cur ~stop in
                  let slot = prev + gap + 1 in
                  if gap < 0 || slot > 254 then None
                  else
                    let* v, cur = get_varint b ~pos:cur ~stop in
                    if v < 0 then None
                    else pairs cur (remaining - 1) slot ((slot, v) :: acc)
              in
              let* ps, cur = pairs cur n (-1) [] in
              Some (G2_counter ps, cur)
            end
          | _ -> None
        in
        go cur (remaining - 1) ({ g2_oid = oid; g2_name = name; g2_body = body } :: acc)
  in
  go cursor count []

let parse_digest_entries b ~cursor ~stop ~count =
  let ( let* ) o f = match o with None -> None | Some x -> f x in
  let rec go cur remaining acc =
    if remaining = 0 then if cur = stop then Some (List.rev acc) else None
    else
      let* tag, cur = get_varint b ~pos:cur ~stop in
      let oid = tag lsr 1 in
      if oid < 0 then None
      else
        let* name, cur = get_opt_name b ~named:(tag land 1 <> 0) ~cursor:cur ~stop in
        let* fp, cur = get_varint b ~pos:cur ~stop in
        if fp < 0 || fp > 0xFFFF_FFFF then None
        else
          let* total, cur = get_varint b ~pos:cur ~stop in
          go cur (remaining - 1)
            ({ d_oid = oid; d_name = name; d_fp = fp; d_total = total } :: acc)
  in
  go cursor count []

let parse_request b off plen =
  if plen < 4 then None
  else if Bytes.get_uint8 b off = 9 then begin
    (* GOSSIP2 carries no request id: op, node, count, entries. *)
    let node = Bytes.get_uint8 b (off + 1) in
    let count = Bytes.get_uint16_be b (off + 2) in
    match parse_g2_entries b ~cursor:(off + 4) ~stop:(off + plen) ~count with
    | Some entries -> Some (Gossip2 { node; entries })
    | None -> None
  end
  else if plen < 5 then None
  else
    let op = Bytes.get_uint8 b off in
    let id = get_u32 b (off + 1) in
    match op with
    | 4 -> if plen = 5 then Some (Stats { id }) else None
    | 5 -> if plen = 5 then Some (Ping { id }) else None
    | 7 ->
      if plen = 7 then
        Some
          (Hello
             { id;
               version = Bytes.get_uint8 b (off + 5);
               role = Bytes.get_uint8 b (off + 6) })
      else None
    | 10 ->
      if plen < 8 then None
      else begin
        let node = Bytes.get_uint8 b (off + 5) in
        let count = Bytes.get_uint16_be b (off + 6) in
        match
          parse_digest_entries b ~cursor:(off + 8) ~stop:(off + plen) ~count
        with
        | Some entries -> Some (Digest { id; node; entries })
        | None -> None
      end
    | 1 | 2 | 3 | 6 ->
      if plen < 6 then None
      else begin
        let nlen = Bytes.get_uint8 b (off + 5) in
        let extra = if op = 3 || op = 6 then 8 else 0 in
        if plen <> 6 + nlen + extra then None
        else
          let name = Bytes.sub_string b (off + 6) nlen in
          match op with
          | 1 -> Some (Inc { id; name })
          | 2 -> Some (Read { id; name })
          | 3 -> Some (Write { id; name; value = get_i64 b (off + 6 + nlen) })
          | _ -> Some (Add { id; name; delta = get_i64 b (off + 6 + nlen) })
      end
    | _ -> None

let parse_response b off plen =
  if plen < 5 then None
  else
    let status = Bytes.get_uint8 b off in
    let id = get_u32 b (off + 1) in
    match status with
    | 0 -> if plen = 13 then Some (Value { id; value = get_i64 b (off + 5) }) else None
    | 1 -> if plen = 5 then Some (Busy { id }) else None
    | 2 -> if plen = 5 then Some (Unknown_object { id }) else None
    | 3 -> if plen = 5 then Some (Bad_request { id }) else None
    | 4 -> Some (Stats_json { id; json = Bytes.sub_string b (off + 5) (plen - 5) })
    | 5 -> if plen = 5 then Some (Pong { id }) else None
    | 6 ->
      if plen = 6 then
        Some (Hello_ok { id; version = Bytes.get_uint8 b (off + 5) })
      else None
    | 7 ->
      if plen = 6 then
        Some (Bad_version { id; version = Bytes.get_uint8 b (off + 5) })
      else None
    | 9 ->
      if plen < 7 then None
      else begin
        let count = Bytes.get_uint16_be b (off + 5) in
        let stop = off + plen in
        let rec go cur remaining acc =
          if remaining = 0 then
            if cur = stop then Some (List.rev acc) else None
          else
            match get_varint b ~pos:cur ~stop with
            | Some (oid, cur) when oid >= 0 -> go cur (remaining - 1) (oid :: acc)
            | _ -> None
        in
        match go (off + 7) count [] with
        | Some oids -> Some (Digest_ack { id; oids })
        | None -> None
      end
    | _ -> None

let decode_request b ~off ~len =
  decode ~max_payload:max_request_payload ~parse:parse_request b ~off ~len

let decode_request_peer b ~off ~len =
  decode ~max_payload:max_peer_payload ~parse:parse_request b ~off ~len

let decode_response b ~off ~len =
  decode ~max_payload:max_response_payload ~parse:parse_response b ~off ~len
