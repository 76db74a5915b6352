(** Client library for the approximate-object service.

    A client owns one blocking socket. {!connect} performs the
    mandatory HELLO handshake (protocol version + role) before
    returning, so user code never sees handshake traffic. Requests can
    then be issued two ways:

    - {e convenience}: {!inc} / {!read_value} / {!write} / {!ping} /
      {!stats_json} send one request, flush, and block for its
      response.
    - {e pipelined}: {!send} buffers encoded requests locally,
      {!flush} pushes the whole buffer in one write (which is what
      makes the server's read batching kick in), {!recv} blocks for
      the next response. Responses carry the echoed request id; the
      server answers PING/STATS/UNKNOWN_OBJECT as it parses them,
      ahead of earlier object ops still batched, so match on ids, not
      arrival order.

    Clients are not domain-safe: one client per domain.

    {!Cluster} wraps several per-node clients behind consistent-hash
    routing: ops on a name go to its primary replica and fail over
    down the owner list on transport errors. *)

type t

type role = [ `Client | `Peer ]

exception Version_mismatch of { server : int; client : int }
(** The server answered HELLO with BAD_VERSION. *)

val connect : ?role:role -> Unix.sockaddr -> t
(** Connect and complete the HELLO handshake. [`Peer] negotiates the
    replication role (unlocks GOSSIP2/DIGEST and the large peer frame
    cap);
    the default [`Client] is an ordinary client connection.

    The library never alters process-global signal state: unless the
    host process ignores SIGPIPE (as the [approx_cli] binary does at
    entry), a write to a connection the server has closed kills the
    process instead of raising [EPIPE].
    @raise Unix.Unix_error if the server is unreachable;
    @raise Version_mismatch on a protocol-version mismatch. *)

val close : t -> unit

val fresh_id : t -> int
(** Next request id (increments per call, wraps at 2^32). *)

(** {2 Interface for pipelined requests} *)

val send : t -> Wire.request -> unit
(** Encode into the local buffer; nothing hits the socket yet. *)

val flush : t -> unit
(** Write the buffered requests in one coalesced write. *)

val recv : t -> Wire.response
(** Block until one full response frame arrives.
    @raise End_of_file if the server closes the connection.
    @raise Failure on an undecodable or oversized response. *)

(** {2 Synchronous convenience ops} *)

val inc : t -> string -> Wire.response

val add : t -> string -> int -> Wire.response
(** Bulk increment: one ADD request of the given delta. *)

val read_op : t -> string -> Wire.response
val write : t -> string -> int -> Wire.response

val read_value : t -> string -> int
(** @raise Failure unless the reply is [Value]. *)

val ping : t -> bool
val stats_json : t -> string
(** The server's metrics registry as JSON text.
    @raise Failure unless the reply is [Stats_json]. *)

val digest : t -> node:int -> Wire.digest_entry list -> int list
(** Send one DIGEST frame and block for its DIGEST_ACK; returns the
    sender-side dense ids the receiver flagged as diverged. Requires
    a [`Peer] connection.
    @raise Failure unless the reply is [Digest_ack]. *)

val write_raw : t -> Bytes.t -> len:int -> unit
(** Write the first [len] bytes — pre-encoded complete frames — to
    the socket in one coalesced write loop, bypassing the client's
    staging buffer. The caller is responsible for frame integrity
    (use the {!Wire} builder) and for {!recv}-ing the responses of
    any acked frames included.
    @raise Unix.Unix_error on transport failure. *)

(** {2 Cluster-aware façade} *)

module Cluster : sig
  type t

  val connect : ?replicas:int -> Unix.sockaddr list -> t
  (** Remember the static node list (index = node id) and derive the
      same placement ring the servers use. Connections are opened
      lazily per node; nothing is dialled here.
      @raise Invalid_argument on an empty list. *)

  val close : t -> unit

  val inc : t -> string -> Wire.response
  val add : t -> string -> int -> Wire.response
  val read_op : t -> string -> Wire.response
  val write : t -> string -> int -> Wire.response
  val read_value : t -> string -> int

  (** Each op routes to the named object's primary replica and walks
      the owner list on transport errors (connect refusal, reset,
      EOF); any replica can answer a read locally thanks to the
      widened envelope. Protocol-level failures propagate.
      @raise Failure when no replica is reachable. *)

  val failovers : t -> int
  (** Ops that had to leave their first-choice replica (racy count). *)

  val placement : t -> Placement.t
end
