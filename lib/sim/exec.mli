(** Simulated executions.

    An execution couples a {!Memory.t}, [n] process fibers and a scheduling
    policy. Shared objects are allocated against {!memory} during a build
    phase (object constructors like [Sim_algo.Kcounter.create] do this);
    then {!run} drives the processes step by step under the policy,
    recording a {!Trace.t}.

    Executions are single-shot: fibers are one-shot continuations, so a [t]
    can only be run once. Deterministic replay — the backbone of the
    lower-bound adversaries — is achieved by rebuilding the execution from
    scratch and driving it with the [schedule_taken] of a previous run
    (see {!outcome}). *)

type t

val create : ?track_awareness:bool -> ?trace_steps:bool -> n:int -> unit -> t
(** [create ~n ()] makes a fresh execution context for processes
    [0 .. n-1]. [track_awareness] (default [false]) enables the
    {!Awareness} instrumentation, at a per-step cost. [trace_steps]
    (default [true]) controls whether individual [Step] events are
    recorded in the trace; disable it for executions with tens of millions
    of steps (experiments) and read aggregate statistics from
    {!op_stats} / {!amortized} instead — operation invocations and
    responses are always recorded. *)

val memory : t -> Memory.t
val n : t -> int
val trace : t -> Trace.t

val awareness : t -> Awareness.t option
(** The awareness tracker, if enabled at creation. *)

val steps_total : t -> int
(** Total steps taken so far (live; also available in {!outcome}). *)

val ops_invoked : t -> int
(** Number of operations invoked so far ([|Ops(E)|]). *)

val op_steps_total : t -> int
(** Steps charged to operations so far. *)

val amortized : t -> float
(** Live amortized step complexity [op_steps_total / ops_invoked]
    (Section II); [nan] before the first operation. Unlike
    {!Metrics.amortized} this does not require step events in the trace. *)

val op_stats : t -> (string * int * int * float) list
(** Live per-operation-name statistics [(name, count, max_steps,
    mean_steps)], sorted by name. [max_steps] only accounts for completed
    operations. Available even with [trace_steps:false]. *)

type stop_reason =
  | All_finished  (** every process ran to completion *)
  | Policy_abstained  (** the schedule yielded no next process *)
  | Max_steps  (** the step budget was exhausted *)
  | Stop_condition  (** the user [stop] predicate fired *)

type outcome = {
  schedule_taken : int array;
      (** every scheduling choice made, in order; replaying it as a
          {!Schedule.Script} on a freshly rebuilt execution reproduces the
          run exactly *)
  completed : bool array;  (** per process: did its program finish? *)
  steps_total : int;
  steps_by_pid : int array;
  reason : stop_reason;
}

val run :
  t ->
  programs:(int -> unit) array ->
  policy:Schedule.t ->
  ?max_steps:int ->
  ?stop:(unit -> bool) ->
  unit ->
  outcome
(** [run t ~programs ~policy ()] drives the execution to completion (or
    until the policy abstains, [stop ()] holds, or [max_steps] — default
    [50_000_000] — is reached). [programs.(i)] is the code of process [i]
    and receives its pid; it must perform all shared accesses through
    {!Api}. Each scheduling turn applies exactly one primitive step of the
    chosen process (a process's final turn may apply none if its program
    ends with local computation only).

    @raise Invalid_argument if called twice or if [Array.length programs
    <> n t]. *)
