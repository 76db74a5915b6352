(** The service observability registry: per-object op counters,
    per-shard latency histograms, per-I/O-loop event-loop counters and
    the k-multiplicative accuracy self-check results, streamed as one
    line of JSON into the STATS reply ({!add_json}).

    Ownership discipline instead of extra locks: every mutable field
    has a single writer at a time — an {!obj} or {!shard} record is
    written only under the lock of the shard that owns it (by
    whichever I/O loop holds it), an {!io_loop} record only by its
    event-loop domain. Readers (the STATS handler, tests) may look at
    any field from any domain and observe a momentarily stale but
    memory-safe snapshot; OCaml immediate ints never tear. Shard,
    object and io-loop records are cache-line padded so two domains
    bumping their own counters never share a line. *)

type obj = {
  o_name : string;
  o_kind : string;  (** ["kcounter"], ["faa"], ["kmaxreg"], ["cas-maxreg"] *)
  o_shard : int;
  o_k : int;  (** Approximation factor of the kind ([1] for exact kinds). *)
  mutable incs : int;
  mutable adds : int;  (** Bulk ADD requests (each worth its delta). *)
  mutable reads : int;
  mutable writes : int;
  mutable rejects : int;  (** WRITEs refused as [Bad_request] (value out of range) *)
  mutable acc_checks : int;
      (** Reads compared against the debug exact object (approximate
          kinds only). *)
  mutable acc_violations : int;
      (** Comparisons outside the k-multiplicative envelope — any
          non-zero value is a bug in the served algorithm. *)
  mutable last_served : int;
  mutable last_exact : int;
  mutable batch_read_hits : int;
      (** READs answered from the per-drain memo instead of a fresh
          object read (drain-batch read fusion). *)
  mutable cache_hits : int;
      (** The algorithm-level validated-cache hit counter (snapshot of
          the owning pid's [fast_hits]); approximate kinds only. *)
  mutable cache_misses : int;
  mutable repl_own_total : int;
      (** This node's own contribution to the object — recovered base
          plus locally applied increments (counters) or the largest
          locally written value (max registers). Summed (or maxed)
          across nodes this is the cluster-level exact shadow. *)
  mutable repl_known : int;
      (** The node's full merged view: own contribution joined with
          every gossiped remote delta — what the widened-envelope
          accuracy self-check compares served reads against. *)
  mutable repl_recovering : bool;
      (** Restart-base recovery window still open: the object's own
          slot is withheld from gossip exports until a peer echoes its
          pre-crash contribution back ({!Objects.begin_recovery}). *)
}

type shard = {
  s_shard : int;
  mutable tasks : int;  (** Requests executed by this shard. *)
  mutable batches : int;
      (** Drains: one loop's batch of this shard's ops run under the
          shard lock (>= 1 op each). *)
  mutable max_batch : int;
  mutable fused_applies : int;
      (** Bulk applies performed — dirty objects per drain, summed. *)
  mutable deferred_ops : int;
      (** INC/ADD requests that were coalesced into those applies. *)
  mutable merge_tasks : int;
      (** Gossip entries merged into objects this shard owns. *)
  mutable boundary_kicks : int;
      (** Drains whose growth crossed the k_staleness boundary and
          eagerly woke the gossip sender. *)
  s_fused : Histogram.t;
      (** Per drain: INC/ADD requests coalesced (the fused-ops-per-
          drain distribution; 0 for drains with no increments). *)
  s_latency : Histogram.t;
      (** Nanoseconds from request decoded (one stamp per read
          syscall) to response encoded. *)
}

(** Per-event-loop counters; written only by the owning I/O domain.
    Connection-lifecycle counters are per-loop because a connection is
    accepted by loop 0 but closed by whichever loop owns it. *)
type io_loop = {
  l_loop : int;
  mutable l_poller : string;
      (** Active poller backend (["epoll"] or ["select"]); set by the
          loop as it starts, [""] until then. *)
  mutable l_accepted : int;
      (** Connections accepted (all on the accepting loop 0; rejected
          over-[max_conns] accepts count here and in [l_closed]). *)
  mutable l_closed : int;
  mutable l_protocol_errors : int;
  mutable l_oversized_frames : int;
  mutable l_stats_requests : int;
  mutable l_wakeups : int;
      (** Wake-pipe bytes drained: accept handoffs from loop 0 and
          [stop]. Replies never wake a loop — the loop that reads an
          op also writes its reply. *)
  mutable l_cycles : int;
      (** Event-loop cycles that had at least one ready fd (idle
          timeout cycles are not counted). *)
  mutable l_owned_conns : int;
      (** Gauge: connections currently registered with this loop. *)
  mutable l_max_ready_batch : int;
      (** Peak ready slots (reads + writes) reported by one poller
          wait — how bursty dispatch gets under load. *)
  mutable l_spin_polls : int;
      (** Zero-timeout poller waits issued while the loop's spin
          window was open (the 50 µs after a cycle that did work).
          Flat while the server is idle: an expired window falls back
          to a blocking wait. *)
  mutable l_spin_hits : int;
      (** Spin polls that returned ready events — requests caught
          without a sleep/wake in the kernel. [l_spin_hits /
          l_spin_polls] is the share of polls that paid. *)
  mutable l_poller_rejects : int;
      (** Connections this loop had to close because the poller
          backend refused the fd ([Poller.Backend_limit]; select
          beyond [FD_SETSIZE]). *)
  mutable l_hellos : int;  (** Handshakes accepted on this loop. *)
  mutable l_hello_rejects : int;
      (** Connections closed for a version mismatch or a non-HELLO
          first frame. *)
  mutable l_gossip_frames : int;  (** Inbound GOSSIP2 frames. *)
  mutable l_gossip_entries : int;  (** Entries parked for merging. *)
  mutable l_digest_frames : int;  (** Inbound DIGEST frames. *)
  mutable l_digest_mismatches : int;
      (** Digest entries whose fingerprint or total disagreed with the
          local export — each one becomes a repair request in the
          DIGEST_ACK. *)
  mutable l_intern_hits : int;
      (** Object ops whose name resolved from the connection's intern
          cache — no hashtable walk on the request path. *)
  mutable l_intern_misses : int;
      (** Object ops that fell back to the name table (first use of a
          name on a connection, or a cache-slot collision). *)
  l_cycle_ns : Histogram.t;
      (** Duration of active cycles: readiness dispatch + parsing +
          flushing, select wait excluded. *)
  l_flush_bytes : Histogram.t;  (** Bytes pushed per flush [write]. *)
  l_read_batch : Histogram.t;
      (** Requests decoded per read syscall on this loop. *)
}

(** Per-peer sender-side bandwidth accounting; written only by the
    single gossip domain. *)
type peer_link = {
  pl_node : int;
  mutable pl_bytes_sent : int;
      (** Frame bytes (headers included) actually written to this
          peer: GOSSIP2 pushes, digests and repairs. *)
  mutable pl_digest_rounds : int;  (** DIGEST frames sent to this peer. *)
  mutable pl_repair_objects : int;
      (** Objects re-shipped in full because a digest flagged them. *)
}

(** Gossip-sender counters and the static cluster topology; mutable
    fields are written only by the single gossip domain. *)
type cluster = {
  c_node_id : int;
  c_nodes : int;
  c_replicas : int;
  c_gossip_interval_ms : int;
  c_k_staleness : int;
  mutable g_frames_sent : int;
  mutable g_entries_sent : int;
  mutable g_send_failures : int;  (** Frames lost to peer connect/send errors. *)
  mutable g_peer_reconnects : int;
  mutable g_rounds : int;  (** Gossip ticks executed (kicked or periodic). *)
  mutable c_peers : peer_link list;
      (** One {!peer_link} per configured peer, in {!add_peer} order. *)
}

(** The durability plane's STATS mirror. Recovery facts are written
    once at startup (before any domain shares the registry); the live
    WAL counters are refreshed from [Wal.stats] by the STATS handler
    and the snapshot domain. *)
type durability = {
  mutable d_enabled : bool;  (** A [--data-dir] was configured. *)
  mutable d_fsync_policy : string;
  mutable d_wal_appends : int;  (** Records staged to the delta log. *)
  mutable d_wal_bytes : int;
  mutable d_wal_flushes : int;
  mutable d_fsyncs : int;
  mutable d_fsyncs_deferred : int;
      (** Flushes that wrote records but deferred the fsync under the
          [every-n-records] batching rule. *)
  mutable d_fsync_records_covered : int;
      (** Records made durable by the fsyncs that did run — divided by
          [d_fsyncs] this is the per-fsync batch size the cross-shard
          group commit achieves. *)
  mutable d_fsync_errors : int;
      (** fsync calls on the WAL that failed. Their records stay
          unsynced and the next flush retries, so a non-zero value
          means the disk is refusing to make writes durable. *)
  mutable d_snapshots : int;  (** Fuzzy snapshots written this run. *)
  mutable d_snapshot_errors : int;
      (** Snapshot ticks that failed (disk full, permissions): the
          service keeps serving and the WAL keeps growing, so a
          non-zero value means durability is degraded. *)
  mutable d_wal_truncations : int;
  mutable d_recovery_replayed_records : int;
      (** Good WAL records replayed at startup. *)
  mutable d_recovery_snapshot_loaded : bool;
  mutable d_torn_tail_truncated : int;
      (** 1 if startup cut a torn/corrupt WAL tail. *)
}

type t

val create :
  ?node_id:int ->
  ?nodes:int ->
  ?replicas:int ->
  ?gossip_interval_ms:int ->
  ?k_staleness:int ->
  shards:int ->
  io_domains:int ->
  unit ->
  t
(** The cluster parameters default to the standalone topology:
    node 0 of 1, 1 replica, gossip disabled, [k_staleness = 1]. *)

val add_obj : t -> name:string -> kind:string -> k:int -> shard:int -> obj
(** Register an object at server construction time (before any domain
    shares [t]). [k] is the kind's approximation factor (1 = exact). *)

val add_peer : t -> node:int -> peer_link
(** Register a gossip peer link at sender start (before the gossip
    domain spawns, or from the gossip domain itself — the list is
    only ever appended by that one writer). Padded like every other
    single-writer record. *)

val shard : t -> int -> shard
val cluster : t -> cluster
val durability : t -> durability
val objects : t -> obj list

val io_loop : t -> int -> io_loop
val io_domains : t -> int

(** {2 Aggregates over the I/O loops (racy snapshots)} *)

val accepted : t -> int
val closed : t -> int
val protocol_errors : t -> int
val oversized_frames : t -> int
val stats_requests : t -> int

val owned_conns : t -> int
(** Sum of the per-loop owned-connection gauges — currently
    registered connections across the I/O plane. *)

val poller_rejects : t -> int
(** Sum of the per-loop [Backend_limit] rejections. *)

val hellos : t -> int
val hello_rejects : t -> int

val gossip_frames_received : t -> int
val gossip_entries_merged : t -> int
(** Inbound gossip aggregates over the I/O loops. *)

val digest_frames_received : t -> int
val digest_mismatches : t -> int
(** Inbound anti-entropy aggregates over the I/O loops. *)

val gossip_bytes_sent : t -> int
val gossip_digest_rounds : t -> int
val gossip_repair_objects : t -> int
(** Sender-side bandwidth aggregates over the peer links — the
    top-level counters the comms bench and the loadgen [--json]
    summary scrape. *)

val intern_hits : t -> int
val intern_misses : t -> int
(** Name-intern cache aggregates over the I/O loops. *)

val spin_polls : t -> int
val spin_hits : t -> int
(** Spin-then-block aggregates over the I/O loops. *)

val merge_tasks : t -> int
val boundary_kicks : t -> int
(** Replication aggregates over the shards. *)

val max_ready_batch : t -> int
(** Max of the per-loop peak ready-batch sizes. *)

val total_ops : t -> int
(** Sum of all per-object op counters (racy snapshot). *)

val acc_violations_total : t -> int

val add_json : t -> Obuf.t -> max_len:int -> unit
(** Append the registry as one line of JSON, newline-terminated, at
    the Obuf's end — the STATS reply body, written in place with no
    intermediate tree or string. Top-level keys, in order: [server],
    [cluster], [durability], [read_batch], [io_loops], [shards],
    [objects], [objects_omitted]; members are ["key": value] separated
    by [,]. Strings escape quote, backslash and newline with their
    short forms and every other control byte as [\u00XX]; a float is
    [null] when not finite, [%.1f] when integral below [1e15] and
    [%.6g] otherwise.

    The text stays within [max_len] bytes by listing objects in table
    order only while the next stanza fits; the rest are counted in
    [objects_omitted] (0 when every object is listed). Aggregates such
    as [total_ops] and [acc_violations_total] cover every object
    either way. The stanzas before [objects] grow with the I/O loops,
    shards and peers, not with the table; a configuration whose
    stanzas alone pass [max_len] overruns it.

    Reserves capacity once, sized from the object count. Allocation
    does not depend on the object count: a few words per histogram
    and per call, and nothing per object. *)
