(** Single-writer multi-reader register arrays with a collect operation.

    The simplest substrate for wait-free exact objects: process [p] owns
    cell [p] and is its only writer; a {e collect} reads all [n] cells one by
    one ([n] steps). Collects are not atomic snapshots, but for objects whose
    per-cell contents are monotone (counters of increments, maxima) a single
    collect linearizes, which is how the classic [O(n)] exact counter works
    (see {!Sim_algo.Collect_counter}). *)

type t

val create : Sim.Exec.t -> ?name:string -> n:int -> unit -> t
(** Allocate [n] integer cells initialised to 0. Build phase only. *)

val update : t -> pid:int -> int -> unit
(** [update t ~pid v] writes [v] to [pid]'s own cell. One step. In-fiber. *)

val read_own : t -> pid:int -> int
(** Read [pid]'s own cell. One step. In-fiber. *)

val collect : t -> int array
(** Read all cells in index order. [n] steps. In-fiber. *)

val collect_fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over all cells in index order without materialising the array.
    [n] steps. In-fiber. *)

val n : t -> int
