(** Unbounded exact max register with [O(log2 v)] step complexity, where [v]
    is the value written (or the current maximum, for reads).

    Two-level construction in the spirit of [8]'s unbounded extension (and
    of the object the paper borrows from Baig et al. [9]): values are split
    as [v = 2^l + offset] with [l = floor(log2 v)]. A small exact
    {!Sim_algo.Tree_maxreg} [T] (bound 63) holds the highest level
    written so far (shifted by one so 0 means "nothing written"), and
    each level [l] has its own lazily materialised [2^l]-bounded
    {!Sim_algo.Tree_maxreg} holding the maximum offset written at that
    level.

    [Write(v)] writes the offset into level [l]'s register and then [l+1]
    into [T]; [Read] reads [T] and then the top level's offset register.
    Because every component is a linearizable max register written
    bottom-up and read top-down, the composition is linearizable (monotone
    composition argument of [8]).

    We do not reproduce the helping machinery of [9] (cited but not
    specified by the paper); see DESIGN.md, substitution table. *)

type t

val create : Sim.Exec.t -> ?name:string -> unit -> t
(** Build phase only. Initial value 0. Values up to [2^61 - 1] are
    supported. *)

val write : t -> pid:int -> int -> unit
(** In-fiber; [O(log2 v)] steps.
    @raise Invalid_argument if the value is negative or exceeds
    [2^61 - 1]. *)

val read : t -> pid:int -> int
(** In-fiber; [O(log2 v)] steps where [v] is the current maximum. *)

val handle : t -> Obj_intf.max_register
