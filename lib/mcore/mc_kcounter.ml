(* Algorithm 1 on real hardware: Atomic_algo.Kcounter, the shared
   functor body over the Atomic backend. This module only keeps the
   Mc_kcounter surface (the switch-capacity bound, diagnostics, the
   capacity exception); the functor checks [n] and [k]. *)

module A = Atomic_algo.Kcounter

exception Capacity_exceeded = Backend.Atomic_backend.Ts_capacity_exceeded

let max_capacity = A.max_capacity

type t = A.t

let create ?(switch_capacity = 64) ~n ~k () =
  if switch_capacity < 1 || switch_capacity > max_capacity then
    invalid_arg "Mc_kcounter.create: switch_capacity out of range";
  A.create (Backend.Atomic_backend.ctx ()) ~capacity_hint:switch_capacity ~n ~k
    ()

let increment = A.increment
let add = A.add
let read = A.read
let read_fast = A.read_fast
let fast_hits = A.fast_hits
let fast_misses = A.fast_misses
let k = A.k
let n = A.n
let capacity = A.capacity
let switches_set = A.switches_set
