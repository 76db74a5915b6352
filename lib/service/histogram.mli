(** Fixed log-spaced latency histograms for the service layer.

    Buckets are powers of two: bucket [0] holds values in [[0, 1]],
    bucket [i >= 1] holds values in [[2^i, 2^(i+1) - 1]] — a value that
    is an exact power of two is the {e lower} boundary of its bucket,
    never the upper one (tested as a property). With 62 buckets the
    last bucket is [[2^61, max_int]], so the range covers every
    non-negative OCaml [int] and nanosecond latencies never overflow
    the table.

    {!record} touches one array slot and two mutable [int] fields and
    performs zero heap allocations, so shards can call it on every
    request. A histogram is single-writer: only its owning domain may
    {!record}; any domain may read ({!count}, {!percentile},
    {!bucket_count}) concurrently and observes a momentarily stale but
    memory-safe snapshot. *)

type t

val buckets : int
(** Number of buckets (62). *)

val create : unit -> t

val bucket_index : int -> int
(** [bucket_index v] is the bucket holding [v]; negative values clamp
    to bucket 0. Allocation-free. *)

val bucket_lo : int -> int
(** Inclusive lower bound of bucket [i] ([0] for bucket 0, else
    [2^i]). *)

val bucket_hi : int -> int
(** Inclusive upper bound of bucket [i] ([2^(i+1) - 1], [max_int] for
    the last bucket). *)

val record : t -> int -> unit
(** Count one sample. Allocation-free. *)

val count : t -> int
(** Total samples recorded. *)

val sum : t -> int
(** Sum of all recorded samples (for means; wraps only beyond
    [max_int] total). *)

val max_value : t -> int
(** Largest sample recorded since creation or {!reset} ([0] when
    empty; negative samples never lower it). Exact, unlike
    {!percentile}'s bucket upper bound. *)

val bucket_count : t -> int -> int
(** Samples recorded in bucket [i]. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [[0, 1]] is an inclusive upper bound
    on the value at rank [ceil (p * count)]: the {!bucket_hi} of the
    first bucket whose cumulative count reaches that rank. An empty
    histogram yields [0] (never an exception); [p] outside [[0, 1]] is
    clamped. *)

val merge : into:t -> t -> unit
(** Add [t]'s buckets into [into] (neither may be concurrently
    written). *)

val reset : t -> unit
