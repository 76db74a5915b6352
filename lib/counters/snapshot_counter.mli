(** Exact counter over the atomic snapshot, exactly as sketched in the
    paper's related-work discussion: "to increment the counter, a process
    simply increments its component of the snapshot, and to read the
    counter's value, it invokes Scan and returns the sum of all components".

    Built on {!Prims.Snapshot}; both operations are [O(n^2)] steps with this
    textbook snapshot (the paper quotes [O(n)] for the best known snapshot;
    we keep the classic one and use {!Sim_algo.Collect_counter} as the
    tight [O(n)] baseline). *)

type t

val create : Sim.Exec.t -> ?name:string -> n:int -> unit -> t

val increment : t -> pid:int -> unit
(** In-fiber; [O(n^2)] steps. *)

val read : t -> pid:int -> int
(** In-fiber; [O(n^2)] steps. *)

val handle : t -> Obj_intf.counter
