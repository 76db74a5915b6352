(** The length-prefixed binary wire protocol of the approximate-object
    service.

    Every message is a {e frame}: a 4-byte big-endian payload length
    followed by the payload. Request payloads are

    {v
    byte  0        op      (1=INC 2=READ 3=WRITE 4=STATS 5=PING 6=ADD
                            7=HELLO 9=GOSSIP2 10=DIGEST)
    bytes 1-4      request id, unsigned 32-bit big-endian
                                               (all ops except GOSSIP2)
    byte  5        object-name length L        (INC/READ/WRITE/ADD only)
    bytes 6..6+L-1 object name                 (INC/READ/WRITE/ADD only)
    bytes +0..+7   value/delta, signed 64-bit BE  (WRITE/ADD only)
    v}

    HELLO carries two extra bytes (protocol version, connection role).
    Op 8 and response status 8 are unassigned (they carried the
    protocol-2 fixed-width GOSSIP frame and its ack) and decode as
    [Malformed] like any other unknown byte.

    {2 Compact peer frames (protocol 3)}

    GOSSIP2 is the compact delta push: [op(1) node(1) count(u16 BE)]
    then [count] varint entries. It carries {e no request id} and the
    server sends {e no response} — merges are idempotent joins, so
    redelivery (by the next boundary crossing, or by digest
    anti-entropy) replaces acknowledgement. All multi-byte values are
    unsigned LEB128 varints ({!Obuf.add_varint}). Each entry opens
    with a tagword [(oid lsl 3) lor (named lsl 2) lor code]: [oid] is
    the {e sender's} dense object id, acting as a per-connection
    interning dictionary — when [named] is set, a name-length byte
    and the name follow (the entry's first mention on this
    connection). Codes: 0 = counter pairs ([npairs], then per pair a
    slot {e gap} from the previous slot and the absolute slot total),
    1 = max register (one value), 2 = single changed counter slot
    ([slot], [total]) — the steady-state fast form, ~5 bytes.

    DIGEST is the anti-entropy summary: [op(1) id(u32) node(1)
    count(u16)] then per entry a tagword [(oid lsl 1) lor named],
    the optional first-mention name, a varint 32-bit fingerprint and
    a varint total. The receiver compares each entry against its own
    export fingerprint and answers DIGEST_ACK listing the sender oids
    that disagree; the sender repairs those with full-vector GOSSIP2
    entries. One round trip heals a reconnect with bytes proportional
    to the divergence, not to the hosted share.

    Response payloads are

    {v
    byte  0        status  (0=VALUE 1=BUSY 2=UNKNOWN_OBJECT
                            3=BAD_REQUEST 4=STATS_JSON 5=PONG
                            6=HELLO_OK 7=BAD_VERSION 9=DIGEST_ACK)
    bytes 1-4      echoed request id
    bytes +0..+7   value, signed 64-bit BE     (VALUE only)
    bytes 5..      UTF-8 JSON text             (STATS_JSON only)
    byte  5        protocol version            (HELLO_OK/BAD_VERSION)
    bytes 5-6      mismatch count, u16 BE      (DIGEST_ACK only)
    bytes 7..      mismatched oids, varints    (DIGEST_ACK only)
    v}

    Request ids are echoed verbatim, so a client may pipeline requests
    and match responses out of order (the server preserves per-object
    order but interleaves backpressure replies immediately).

    The first frame on any connection must be a HELLO naming
    {!protocol_version} and a role; a version mismatch is answered
    with BAD_VERSION and a clean close. The negotiated role selects
    the inbound frame cap: client connections stay under the tiny
    {!max_request_payload}, peer (gossip) connections may send frames
    up to {!max_peer_payload}.

    Decoders are incremental: they inspect a byte range that may hold
    any prefix of a frame stream and either decode one complete
    message, ask for more bytes, or reject the stream. A frame whose
    header announces more than the direction's maximum payload
    ({!max_request_payload} / {!max_peer_payload} /
    {!max_response_payload}) is rejected as [Oversized] {e before} any
    of the payload arrives, so a malicious length header cannot make a
    peer buffer unboundedly. *)

val header_len : int
(** Frame-header bytes (4). *)

val max_request_payload : int
(** Client requests are tiny; anything above this (4096) is
    [Oversized]. *)

val max_peer_payload : int
(** Peer (gossip) frames may carry whole replica states; the cap is
    2^20 bytes — split from the client request cap so a gossip burst
    cannot be weaponised through the client path. *)

val max_response_payload : int
(** Responses carry STATS JSON; the cap is 2^20 bytes. *)

val max_name_len : int
(** Object names fit the 1-byte length field: 255. *)

val max_stats_json : int
(** Longest JSON text a STATS_JSON response can carry: the response
    cap less the status byte and request id. *)

val max_gossip_entries : int
(** Entry-count field width: 65535. *)

val protocol_version : int
(** The version byte HELLO must carry (3; version 2 lacked the
    compact peer frames, the pre-handshake protocol is retroactively
    1). *)

val role_client : int
(** HELLO role byte: an ordinary client connection (0). *)

val role_peer : int
(** HELLO role byte: a replication peer (1) — unlocks GOSSIP2/DIGEST
    frames and the {!max_peer_payload} inbound cap. *)

type g2_body =
  | G2_counter of (int * int) list
      (** [(slot, absolute total)] pairs, slots strictly increasing in
          [0..254]. Absolute totals (never diffs) keep merges
          idempotent under loss, duplication and reorder. *)
  | G2_max of int

type g2_entry = {
  g2_oid : int;  (** sender-side dense object id (the wire dictionary
                     key for this connection) *)
  g2_name : string option;
      (** present only on the entry's first mention per connection *)
  g2_body : g2_body;
}

type digest_entry = {
  d_oid : int;
  d_name : string option;
  d_fp : int;  (** 32-bit truncated export fingerprint *)
  d_total : int;  (** exported total — the collision backstop: a
                      mismatch in either field marks divergence *)
}

type request =
  | Inc of { id : int; name : string }
  | Read of { id : int; name : string }
  | Write of { id : int; name : string; value : int }
  | Stats of { id : int }
  | Ping of { id : int }
  | Add of { id : int; name : string; delta : int }
      (** Bulk increment: [delta] logical increments in one request.
          Counters only; the server rejects [delta < 0] as
          [Bad_request]. Encoded like [Write] under op 6. *)
  | Hello of { id : int; version : int; role : int }
      (** Mandatory first frame: protocol version and connection role
          ({!role_client} or {!role_peer}). *)
  | Gossip2 of { node : int; entries : g2_entry list }
      (** Compact delta push from [node]. Unacked: {!request_id}
          returns 0 and the server sends no response. Peer
          connections only. *)
  | Digest of { id : int; node : int; entries : digest_entry list }
      (** Anti-entropy summary from [node]; answered with
          {!response.Digest_ack}. Peer connections only. *)

type response =
  | Value of { id : int; value : int }
  | Busy of { id : int }
  | Unknown_object of { id : int }
  | Bad_request of { id : int }
  | Stats_json of { id : int; json : string }
  | Pong of { id : int }
  | Hello_ok of { id : int; version : int }
      (** Handshake accepted; echoes the server's version. *)
  | Bad_version of { id : int; version : int }
      (** Version mismatch: carries the server's version; the server
          closes the connection after flushing this. *)
  | Digest_ack of { id : int; oids : int list }
      (** Digest compared; [oids] are the {e sender's} dense ids of
          the objects whose fingerprint or total disagreed and need a
          full repair export. *)

val request_id : request -> int
(** The request's id; 0 for the unacked [Gossip2]. *)

val response_id : response -> int

val mask_id : int -> int
(** Reduce an arbitrary int into the unsigned 32-bit id domain (ids
    wrap; a pipelining client never has 2^32 requests in flight). *)

val encode_request : Buffer.t -> request -> unit
(** Append one full frame (header + payload).
    @raise Invalid_argument if a name exceeds {!max_name_len} (or is
    empty in a gossip entry), a HELLO field or gossip node id is out
    of byte range, a counter entry's slots are not increasing in
    0..254, or a peer frame would exceed {!max_peer_payload}. *)

val encode_response : Buffer.t -> response -> unit
(** @raise Invalid_argument if the STATS payload would exceed
    {!max_response_payload}. *)

val encode_response_obuf : Obuf.t -> response -> unit
(** [encode_response] into an {!Obuf.t} — byte-identical frames, but
    appending straight into the connection's output buffer, so the
    server's flush path never copies. *)

val stats_open : Obuf.t -> id:int -> int
(** Open a STATS_JSON reply at the Obuf's end: a placeholder length
    header, the status byte and the id. The caller appends the JSON
    text in place, then passes the returned frame offset to
    {!stats_close}. [encode_response_obuf] of [Stats_json] is this
    open, one [add_string] and the close. *)

val stats_close : Obuf.t -> int -> unit
(** Patch the length header of the reply opened at the given offset.
    @raise Invalid_argument (after truncating the frame back out) if
    the payload outgrew {!max_response_payload}. *)

(** {1 Streaming peer-frame builder}

    The gossip sender's encoder: appends GOSSIP2 / DIGEST frames
    directly into a caller-owned coalescing {!Obuf.t} (one per peer
    per round), patching the length header and entry count in place
    at {!frame_finish}. Allocation-free once the Obuf has grown to
    steady-state volume — no closures, lists or staging buffers,
    which is what lets one round encode every dirty object and flush
    with a single write. Frames produced this way decode to exactly
    the [Gossip2]/[Digest] values the typed {!encode_request} would
    produce (asserted by a qcheck parity test). *)

type builder

val builder : unit -> builder
(** A builder with no open frame. One per gossip sender; reusable
    across frames and peers. *)

val g2_start : builder -> Obuf.t -> node:int -> unit
(** Open a GOSSIP2 frame at the Obuf's current end. *)

val digest_start : builder -> Obuf.t -> id:int -> node:int -> unit
(** Open a DIGEST frame at the Obuf's current end. *)

val g2_add_counter :
  builder -> oid:int -> name:string -> slots:int array -> vals:int array ->
  n:int -> unit
(** Append a counter entry: the first [n] elements of [slots]/[vals]
    are the changed (slot, absolute total) pairs, slots strictly
    increasing. [name = ""] means already interned on this
    connection; otherwise the name travels with the entry. [n = 1]
    uses the single-slot fast form.
    @raise Invalid_argument on [n] outside 1..255 or an over-long
    name. *)

val g2_add_max : builder -> oid:int -> name:string -> int -> unit
(** Append a max-register entry carrying the merged maximum. *)

val digest_add : builder -> oid:int -> name:string -> fp:int -> total:int -> unit
(** Append a digest entry ([name = ""] as above). *)

val payload_len : builder -> int
(** Payload bytes of the open frame so far — the caller's budget
    check against {!max_peer_payload} before appending. *)

val entry_count : builder -> int
(** Entries appended to the open frame so far (capped at
    {!max_gossip_entries}; appends beyond that raise). *)

val frame_finish : builder -> unit
(** Patch the frame's length header and entry count; the frame is now
    complete in the Obuf and a new one may be started (same or other
    Obuf).
    @raise Invalid_argument if no frame is open or the payload
    outgrew {!max_peer_payload}. *)

val frame_abort : builder -> unit
(** Rewind the open frame (header and any entries) back out of the
    Obuf — the sender's exit when every candidate entry diffed empty.
    @raise Invalid_argument if no frame is open. *)

type 'a decoded =
  | Decoded of 'a * int
      (** One complete message and the bytes consumed (header
          included); the caller advances its offset and retries. *)
  | Need_more
      (** The range holds only a frame prefix — read more bytes. A
          truncated frame is indistinguishable from a pending one, so
          truncation surfaces as [Need_more] followed by the
          connection's EOF. *)
  | Oversized of int
      (** The header announces the given payload length, beyond the
          direction's cap. Unrecoverable: the stream cannot be
          resynchronised. *)
  | Malformed of string
      (** The frame is complete but its payload does not parse (bad
          op/status byte, name overruns the payload, trailing bytes).
          Unrecoverable. *)

val decode_request : Bytes.t -> off:int -> len:int -> request decoded
(** Decode the first request frame of [bytes off .. off+len-1] under
    the client cap ({!max_request_payload}). *)

val decode_request_peer : Bytes.t -> off:int -> len:int -> request decoded
(** [decode_request] under the peer cap ({!max_peer_payload}) — used
    for connections whose HELLO negotiated {!role_peer}. *)

val decode_response : Bytes.t -> off:int -> len:int -> response decoded
