(** The Aspnes–Attiya–Censor-Hillel m-bounded exact max register
    ("Polylogarithmic concurrent data structures from monotone
    circuits", JACM 2012) — reference [8] of the paper — as a functor
    over the primitive backend ({!Sim_algo.Tree_maxreg},
    {!Mcore.Atomic_algo.Tree_maxreg}).

    A balanced binary tree over the value range [0 .. m-1], laid out as
    a flat 1-based heap of switch bits: 0 routes to the low half, 1 to
    the high half. [Write(v)] descends towards [v]'s leaf, writing the
    switches on the high-going edges bottom-up; [Read] follows switches
    downward. Both take [O(log2 m)] primitive steps — the exponential
    improvement over the [Omega(n)] bound of Jayanti, Tan and Toueg that
    Algorithm 2 builds on — and are allocation-free. Over the simulator
    the heap is a lazy region, so huge bounds (e.g. [m = 2^48] in
    experiment E4) only allocate the cells an execution touches. *)

module Make (B : Backend.Backend_intf.S) : sig
  type t

  val create : B.ctx -> ?name:string -> m:int -> unit -> t
  (** An exact max register over values [0 .. m-1].
      @raise Invalid_argument if [m < 1]. *)

  val write : t -> pid:int -> int -> unit
  (** @raise Invalid_argument if the value is outside [0 .. m-1]. *)

  val read : t -> pid:int -> int

  val version : t -> pid:int -> int
  (** The switch heap's monotone modification watermark (one primitive
      step): unchanged between two loads iff no heap write landed in
      between, which is what validated read caching revalidates on. *)

  val bound : t -> int
  val handle : t -> Obj_intf.max_register
end
