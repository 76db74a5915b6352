(** The exact CAS-retry max register baseline as a functor over the
    primitive backend ({!Sim_algo.Cas_maxreg},
    {!Mcore.Atomic_algo.Cas_maxreg}).

    Writers re-read and compare-and-swap until the cell holds at least
    their value: exact, constant-step reads, but writes are only
    lock-free — a faster writer can starve a slower one, which is
    precisely the behaviour the wait-free k-multiplicative register of
    Algorithm 2 avoids. Exercises the conditional-primitive side of the
    base-object model (Definition III.1). *)

module Make (B : Backend.Backend_intf.S) : sig
  type t

  val create : B.ctx -> ?name:string -> unit -> t

  val write : t -> pid:int -> int -> unit
  (** Lock-free: 1 read + 1 CAS per attempt.
      @raise Invalid_argument on a negative value. *)

  val read : t -> pid:int -> int
  (** 1 primitive step. *)

  val handle : t -> Obj_intf.max_register
end
