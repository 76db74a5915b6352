(** Wait-free single-writer atomic snapshot (Afek, Attiya, Dolev, Gafni,
    Merritt, Shavit, JACM 1993).

    Each process owns one component. [update] embeds a fresh scan (the
    "view") alongside the new value; [scan] double-collects until either two
    consecutive collects agree (direct scan) or some component is seen to
    move twice, in which case that component's embedded view — obtained
    entirely within the scanner's interval — is borrowed.

    Step complexity: [scan] is [O(n^2)]; [update] is [O(n^2)] (it embeds a
    scan). This is the textbook substrate the paper alludes to for the
    trivial [O(n)]-per-operation exact counter; the cheaper collect-based
    counter lives in {!Sim_algo.Collect_counter}. *)

type t

val create : Sim.Exec.t -> ?name:string -> n:int -> unit -> t
(** Build phase only. All components start at 0. *)

val update : t -> pid:int -> int -> unit
(** Set [pid]'s component to the given value. In-fiber, [O(n^2)] steps. *)

val scan : t -> pid:int -> int array
(** An atomic view of all [n] components. In-fiber, [O(n^2)] steps. *)

val n : t -> int
