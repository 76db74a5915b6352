(** On-disk entry encoding shared by the WAL and snapshots.

    An entry is a [(name, Delta.t)] pair in the gossip wire layout:
    name-length byte, name, kind-tag byte, then a width byte plus
    big-endian slots (counters) or one big-endian value (max). *)

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
