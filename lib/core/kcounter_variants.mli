(** Ablation variants of Algorithm 1, for quantifying its design choices
    (experiment E9 in bench/exp_ablation.ml).

    Three single-ingredient removals:

    - {!No_helping}: [CounterRead] scans switches but never consults the
      helping array [H]. Reads lose wait-freedom: with concurrent
      incrementers that keep the switch frontier ahead of the scan, a read
      can take unboundedly many steps (Lemma III.1 fails). The variant
      demonstrates {e why} lines 44-55 exist.

    - {!No_probe_resume}: the persistent probe cursor [l0] is always reset
      to 1, so a process re-probes its interval from the beginning after
      every successful announce. Increments stay wait-free and accuracy is
      unaffected, but an increment can pay up to [k] extra failed
      test&sets per interval, inflating the amortized constant
      (the [l_0] bookkeeping of lines 22-24 is what Lemma III.8's
      [2(i_p+1)k] accounting relies on).

    - {!Full_scan_read}: [CounterRead] visits {e every} switch instead of
      only the first and last of each interval. Accuracy is unchanged
      (it sees at least as much), but a read costs [Theta(k)] per interval
      instead of [O(1)], breaking the [4(i+2)] read accounting in
      Lemma III.8.

    All variants share {!Sim_algo.Kcounter}'s shared-memory layout and are
    linearizable k-multiplicative counters whenever the original is (the
    removals only affect liveness or step complexity, except where noted).
*)

module No_helping : sig
  type t

  val create : Sim.Exec.t -> ?name:string -> n:int -> k:int -> unit -> t

  val increment : t -> pid:int -> unit
  (** Identical to Algorithm 1's. *)

  val read : t -> pid:int -> int
  (** Switch scan only; {b not wait-free} under concurrent increments. *)

  val handle : t -> Obj_intf.counter
end

module No_probe_resume : sig
  type t

  val create : Sim.Exec.t -> ?name:string -> n:int -> k:int -> unit -> t
  val increment : t -> pid:int -> unit
  val read : t -> pid:int -> int
  val handle : t -> Obj_intf.counter
end

module Full_scan_read : sig
  type t

  val create : Sim.Exec.t -> ?name:string -> n:int -> k:int -> unit -> t
  val increment : t -> pid:int -> unit
  val read : t -> pid:int -> int
  val handle : t -> Obj_intf.counter
end

(** {2 Erratum repair}

    This reproduction found a startup-corner gap in the paper's
    Lemma III.5 / Theorem III.9 (see EXPERIMENTS.md, "Erratum"): while only
    [switch_0] is set, up to [1 + n(k-1)] increments can be parked in local
    counters, yet a read that saw [switch_0 = 1, switch_1 = 0] must return
    [ReturnValue(0,0) = k]. Since any single return value [x] needs
    [(1 + n(k-1))/k <= x <= k] — an empty interval for [n > k + 1] — no
    reader-side constant can repair it: the reader needs more information.

    {!Startup_corrected} supplies that information: each process announces
    its {e first} increment in a dedicated single-writer bit (one extra
    step, once per process), and a read that would land in the corner
    collects the [n] bits and returns [k * c] where [c] is the number of
    set bits. Accuracy: each of the [c] started processes contributed at
    least 1 increment ([v >= c], counting pending first increments as
    linearized before the read), and every started process hides at most
    [k - 1] increments beyond its announced first ([v <= c_end * k]),
    so [v/k <= k*c <= v*k] holds for {e every} [n] and [k >= 1].

    Cost: corner reads pay an extra [n] steps; once [switch_1] is set the
    algorithm is byte-for-byte the paper's, so the constant-amortized bound
    of Theorem III.9 holds for executions that leave the startup regime
    (equivalently, amortized complexity degrades to the exact counter's
    [O(n)] only while the count is below [k^2] — which is also exactly
    where approximate reads provably cannot be cheaper). *)

module Startup_corrected : sig
  type t

  val create : Sim.Exec.t -> ?name:string -> n:int -> k:int -> unit -> t
  val increment : t -> pid:int -> unit
  val read : t -> pid:int -> int
  val handle : t -> Obj_intf.counter
end
