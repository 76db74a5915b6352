(** Append-only delta log with group-commit staging and CRC framing.

    Records are full mergeable exports ({!Codec} entries), so replay is
    an idempotent join: duplicates and reordering are harmless, and a
    record is a pointwise lower bound of every later state of its
    object. {!append} stages a frame; {!flush} writes all staged frames
    with one [write(2)] and applies the fsync policy. Data written but
    not fsynced lives in the page cache, which survives [kill -9] of
    the process — fsync only narrows the power-loss window. *)

type fsync_policy =
  | Never  (** Group-commit to the page cache only. *)
  | Interval_ms of int  (** fsync at most once per interval. *)
  | Every_n of int
      (** fsync once at least [n] records have accumulated since the
          last sync — a cross-shard group commit: the log is one
          shared file, so the flush that tips the count pays a single
          fsync covering every shard's appends of that drain cycle. *)

val policy_to_string : fsync_policy -> string
(** [never], [interval-ms:N] or [every-n-records:N]. *)

val policy_of_string : string -> fsync_policy option
(** Inverse of {!policy_to_string}; [None] on any other text,
    including a non-positive [N]. *)

type stats = {
  appends : int;  (** Records staged. *)
  bytes : int;  (** Frame bytes staged (headers + payloads). *)
  flushes : int;  (** Flush calls that wrote data. *)
  fsyncs : int;  (** fsync calls that succeeded. *)
  fsyncs_deferred : int;
      (** Flushes that wrote records but deferred the sync under the
          [Every_n]/[Interval_ms] batching rule. *)
  fsync_records_covered : int;
      (** Records made durable by the fsyncs that did run; divided by
          [fsyncs] this is the achieved per-fsync batch size. *)
  fsync_errors : int;
      (** fsync calls that failed. A failed fsync counts in neither
          [fsyncs] nor [fsync_records_covered], and its records stay
          unsynced, so the next flush retries them. *)
  truncations : int;  (** Snapshot-driven log rotations. *)
}

type scan_result = {
  s_entries : (string * Delta.t) list;  (** Good records, append order. *)
  s_base : int;  (** Index of the file's first record. *)
  s_next : int;  (** Index one past the last good record. *)
  s_valid_len : int;  (** Byte offset of the first bad frame; [0] = no file. *)
  s_torn : bool;  (** A torn/corrupt tail was cut. *)
}

val scan : dir:string -> scan_result
(** Read and validate [dir/wal.log]. Tolerates any truncation or
    corruption by stopping at the first bad frame — never raises on
    file contents; a missing file is an empty result. *)

type t

val open_ : dir:string -> fsync:fsync_policy -> scan:scan_result -> t
(** Open the log for appending, creating [dir] and the file as needed.
    The scan result (from {!scan} on the same directory) tells it where
    the valid prefix ends; any torn tail is truncated so appends resume
    on a frame boundary. *)

val append : t -> string * Delta.t -> unit
(** Stage one framed record. Thread-safe; no I/O; allocation-free once
    the staging buffer has grown to steady state. *)

val flush : t -> unit
(** Write staged frames and apply the fsync policy. Thread-safe. *)

val next_index : t -> int
(** Index the next {!append} will get — the truncation watermark a
    fuzzy snapshot must capture {e before} exporting state. *)

val truncate_upto : t -> int -> unit
(** Drop records below the given index (covered by a snapshot) by
    atomically rewriting the file with a new base. If the rewrite
    fails to fsync, it is discarded: the live log, its base and
    [truncations] stay as they were, and [fsync_errors] counts the
    failure. *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_all fd b pos len] writes all [len] bytes of [b] from [pos],
    retrying short writes and [EINTR]; other write errors propagate.
    The WAL's own write path, shared with the snapshot writer. *)

val fsync_dir : string -> unit
(** Persist a rename inside directory [dir] (the WAL's rotation, a
    snapshot's install) by fsyncing the directory. Best-effort: a
    filesystem that refuses to open or fsync a directory is ignored. *)

val stats : t -> stats

val close : t -> unit
(** Flush, fsync (whatever the policy) and close. Idempotent. *)
