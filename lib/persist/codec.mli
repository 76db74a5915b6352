(** On-disk entry encoding and record framing shared by the WAL and
    snapshots.

    An entry is a [(name, Delta.t)] pair in the gossip wire layout:
    name-length byte, name, kind-tag byte, then a width byte plus
    big-endian slots (counters) or one big-endian value (max). A
    record frame wraps one entry in a big-endian u32 payload length
    and the payload's CRC-32. *)

val crc32 : Bytes.t -> pos:int -> len:int -> int
(** IEEE CRC-32 of [len] bytes at [pos]. Allocation-free after module
    init. @raise Invalid_argument if the range is outside the buffer. *)

val entry_len : string * Delta.t -> int
(** Encoded size of one entry, in bytes. *)

val add_entry : Obuf.t -> string * Delta.t -> unit
(** Append one encoded entry.
    @raise Invalid_argument on an empty/oversized name or a counter
    width outside 1..255. *)

val get_u32 : Bytes.t -> int -> int
(** The big-endian unsigned 32-bit integer at the given offset. No
    bounds check: the caller has validated the range. *)

val get_i64 : Bytes.t -> int -> int
(** The big-endian 64-bit integer at the given offset, truncated to
    OCaml's 63-bit [int]. No bounds check. *)

val parse_entry :
  Bytes.t -> pos:int -> stop:int -> ((string * Delta.t) * int) option
(** Parse one entry at [pos], bounded by [stop]. Returns the entry and
    the offset one past it, or [None] on malformed or short input —
    recovery treats that as a torn tail, never an exception. *)

(** {1 Record frames} *)

val frame_header_len : int
(** Bytes before a frame's payload: length and CRC (8). *)

val max_frame_payload : int
(** Largest payload a frame may announce (2^20); a larger length is
    read as corruption. *)

val add_frame : Obuf.t -> string * Delta.t -> int
(** Append one record frame holding the entry and return its size in
    bytes (header included). Allocation-free once the buffer has grown.
    @raise Invalid_argument as {!add_entry}. *)

val parse_frame :
  Bytes.t -> pos:int -> stop:int -> ((string * Delta.t) * int) option
(** Parse the frame at [pos], bounded by [stop]: the entry and the
    offset one past the frame, or [None] if the frame is short, its
    length is out of range, its CRC does not match or its payload is
    not exactly one entry. *)
