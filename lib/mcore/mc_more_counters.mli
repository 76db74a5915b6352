(** Additional multicore counters for the E8/E10 comparisons. (The
    k-additive counter is {!Atomic_algo.Collect_counter} with [~k].)

    {!Tree_counter} is the AACH exact counter on atomics: single-writer
    leaf cells and per-node maximum registers maintained by compare-and-set
    retry loops. Writes to a node's maximum are lock-free (a stale CAS
    means another process installed a larger-or-equal sum). Reads return
    the root. Exact at quiescence; linearizable by the monotone-circuit
    argument of [8]. *)

module Tree_counter : sig
  type t

  val create : n:int -> unit -> t
  (** @raise Invalid_argument if [n < 1]. *)

  val increment : t -> pid:int -> unit
  val read : t -> int
end
