(** Fuzzy snapshots: a full mergeable export of every object, written
    atomically (temp file + rename). Valid as a recovery point without
    stopping writers because a racy export of monotone state is a
    pointwise lower bound the k-envelope absorbs. *)

val path : string -> string
(** [path dir] is the snapshot file inside [dir]. *)

val write : dir:string -> wal_index:int -> (string * Delta.t) list -> unit
(** Write a snapshot covering every WAL record below [wal_index] (the
    caller must capture that index {e before} exporting the entries).
    Atomic: a crash mid-write leaves the previous snapshot intact.
    @raise Unix.Unix_error if writing or fsyncing the temp file fails;
    the temp file is removed and the previous snapshot stays. Also
    raised if the directory fsync after the rename fails: the new
    snapshot is in place then, but its install may not survive a
    power loss, so the caller must not yet drop the log it covers. *)

val load : dir:string -> ((string * Delta.t) list * int) option
(** The snapshot entries and their WAL index, or [None] if there is no
    snapshot or it fails validation — recovery then falls back to pure
    log replay rather than refusing to start. *)
