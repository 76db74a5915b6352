(** The collect counter as a functor over the primitive backend:
    single-writer per-process slots, reads collect all [n].
    Linearizable because per-slot sums are monotone.

    With [k = 0] (the default) it is the classic wait-free exact
    counter whose worst-case optimality follows from Jayanti, Tan and
    Toueg — the baseline Algorithm 1 is measured against in E1:
    increments cost 1 step, reads [n].

    With [k > 0] it is the deterministic k-additive-accurate counter,
    the additive relaxation the paper contrasts with in Section I-A
    (Aspnes et al. [8] prove an [Omega(min(n-1, log m - log k))]
    worst-case lower bound for it and give no matching upper bound;
    this is the natural flush-batching upper construction). A read may
    return any [x] with [|x - v| <= k], where [v] is the number of
    increments linearized before it. Each process publishes its total
    once [floor(k/(n+1)) + 1] unpublished increments accumulate, so it
    hides at most [floor(k/(n+1))] of them and the total error is at
    most [(n+1) * floor(k/(n+1)) <= k]. Increments cost 1 step every
    [floor(k/(n+1)) + 1] calls — amortized [~(n+1)/k]; reads still
    cost [n]. *)

module Make (B : Backend.Backend_intf.S) : sig
  type t

  val create : B.ctx -> ?name:string -> ?k:int -> n:int -> unit -> t
  (** [k] (default 0) is the additive accuracy bound.
      @raise Invalid_argument if [n < 1] or [k < 0]. *)

  val increment : t -> pid:int -> unit
  (** 0 or 1 primitive steps; always 1 when [k = 0]. *)

  val read : t -> pid:int -> int
  (** [n] primitive steps. *)

  val n : t -> int

  val flush_threshold : t -> int
  (** Increments per published write, [floor(k/(n+1)) + 1]. *)

  val handle : t -> Obj_intf.counter
  (** Labelled ["collect-counter"] when [k = 0], otherwise
      ["kadditive(t=T)"] with [T] the flush threshold. *)
end
