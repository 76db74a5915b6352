(** Multicore baseline objects for the throughput comparison (experiment
    E8): what the k-multiplicative objects are traded off against on real
    hardware. The collect counter and the CAS max register are the
    shared [lib/algo] baselines, {!Atomic_algo.Collect_counter} and
    {!Atomic_algo.Cas_maxreg}; the objects here have no simulator
    counterpart. *)

module Faa_counter : sig
  (** Single fetch&add cell: the hardware-primitive ideal; every increment
      contends on one cache line. *)

  type t

  val create : unit -> t
  val increment : t -> unit

  val add : t -> int -> unit
  (** One fetch&add of [n] — the exact baseline for batched
      increments. *)

  val read : t -> int
end

module Lock_counter : sig
  (** Mutex-protected integer: the blocking strawman. *)

  type t

  val create : unit -> t
  val increment : t -> unit
  val read : t -> int
end
