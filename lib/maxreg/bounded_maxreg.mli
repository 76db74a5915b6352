(** m-bounded exact max register with worst-case step complexity
    [O(min(log2 m, n))] — the substrate required by Algorithm 2
    (Theorem IV.2 relies on [8]'s [O(min(log m, n))] object).

    Dispatches between the two exact constructions: the
    {!Sim_algo.Tree_maxreg} ([O(log2 m)] steps) when
    [ceil(log2 m) <= n], and the {!Linear_maxreg} collect ([O(n)]
    steps) otherwise. *)

type t

val create : Sim.Exec.t -> ?name:string -> n:int -> m:int -> unit -> t
(** Build phase only. @raise Invalid_argument if [m < 1] or [n < 1]. *)

val write : t -> pid:int -> int -> unit
(** In-fiber. @raise Invalid_argument if the value is outside
    [0 .. m-1]. *)

val read : t -> pid:int -> int
(** In-fiber. *)

val bound : t -> int

val uses_tree : t -> bool
(** Which branch the dispatch picked (exposed for tests). *)

val handle : t -> Obj_intf.max_register
