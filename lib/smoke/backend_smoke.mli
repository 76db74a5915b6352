(** Functor-instantiation smoke matrix.

    Drives the shared Algorithm 1 and Algorithm 2 functor bodies
    through all four backend instantiations — Sim, Chaos(Sim), Atomic,
    Chaos(Atomic) — on one small deterministic workload and checks the
    k-multiplicative envelopes, for Algorithm 2 on both the paper's
    [write]/[read] and the [write_fast]/[read_fast] paths. CI fails the build if any instantiation
    stops satisfying its accuracy guarantee. *)

type row = {
  backend : string;  (** the backend's [label] *)
  counter_read : int;  (** quiescent counter read after the increments *)
  counter_ok : bool;  (** read within [[incs/k, incs*k]] *)
  maxreg_read : int;  (** quiescent max-register read *)
  maxreg_ok : bool;  (** read within [[max, max*k]] *)
  fast_maxreg_read : int;
      (** quiescent [read_fast] of a second max register given the same
          writes through [write_fast] *)
  fast_maxreg_ok : bool;
      (** that read within [[max, max*k]] and equal to [maxreg_read] *)
  steps : int;
      (** primitives issued by pid 0 up to the plain max-register read,
          incl. injected pauses *)
}

val n : int
val k : int
val incs : int

val rows : ?seed:int -> unit -> row list
(** One row per backend, in matrix order: sim, chaos(sim), atomic,
    chaos(atomic). [seed] (default 7) seeds the chaos streams. *)

val all_ok : row list -> bool
