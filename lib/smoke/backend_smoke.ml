(* The functor-instantiation smoke matrix: drive the shared Algorithm 1
   and Algorithm 2 bodies (Algorithm 2 both through the paper's
   write/read and through write_fast/read_fast) through every backend
   instantiation — Sim,
   Chaos(Sim), Atomic, Chaos(Atomic) — on one deterministic workload and
   check the k-multiplicative envelopes. Used by the `backends` CLI
   subcommand, the bench harness, and tools/ci.sh: a type error or an
   accuracy regression in any instantiation fails the matrix. *)

type row = {
  backend : string;
  counter_read : int;
  counter_ok : bool;
  maxreg_read : int;
  maxreg_ok : bool;
  fast_maxreg_read : int;
  fast_maxreg_ok : bool;
  steps : int;
}

module Chaos_sim = Backend.Chaos_backend.Make (Sim_backend)
module Chaos_atomic = Backend.Chaos_backend.Make (Backend.Atomic_backend)

let n = 3
let k = 2
let incs = 2_000
let m = 1 lsl 16
let final_write = 60_000

module Drive (B : Backend.Backend_intf.S) = struct
  module K = Algo.Kcounter_algo.Make (B)
  module M = Algo.Kmaxreg_algo.Make (B)

  let run ctx =
    let c = K.create ctx ~n ~k () in
    for i = 1 to incs do
      K.increment c ~pid:(i mod n)
    done;
    let x = K.read c ~pid:0 in
    let writes = [ 5; 1_000; 123; final_write; 42 ] in
    let mr = M.create ctx ~m ~k () in
    List.iter (fun v -> M.write mr ~pid:0 v) writes;
    let y = M.read mr ~pid:0 in
    let steps = B.steps ctx ~pid:0 in
    (* The same writes through the futile-write filter, read through
       the validated cache (a miss, then a hit). *)
    let fast = M.create ctx ~m ~k () in
    List.iter (fun v -> M.write_fast fast ~pid:0 v) writes;
    ignore (M.read_fast fast ~pid:0);
    let z = M.read_fast fast ~pid:0 in
    { backend = B.label;
      counter_read = x;
      counter_ok = Zmath.within_k ~k ~exact:incs x;
      maxreg_read = y;
      maxreg_ok = y >= final_write && y <= final_write * k;
      fast_maxreg_read = z;
      fast_maxreg_ok = z = y && z >= final_write && z <= final_write * k;
      steps }
end

module Drive_sim = Drive (Sim_backend)
module Drive_chaos_sim = Drive (Chaos_sim)
module Drive_atomic = Drive (Backend.Atomic_backend)
module Drive_chaos_atomic = Drive (Chaos_atomic)

(* Simulator instantiations must issue their primitives from inside a
   fiber; the whole sequential drive runs in fiber 0. *)
let in_sim make_ctx drive =
  let exec = Sim.Exec.create ~n () in
  let out = ref None in
  let programs =
    Array.init n (fun i _fiber -> if i = 0 then out := Some (drive (make_ctx exec)))
  in
  ignore (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
  Option.get !out

let rows ?(seed = 7) () =
  [ in_sim (fun exec -> Sim_backend.ctx exec) Drive_sim.run;
    in_sim
      (fun exec -> Chaos_sim.ctx ~seed ~n (Sim_backend.ctx exec))
      Drive_chaos_sim.run;
    Drive_atomic.run (Backend.Atomic_backend.ctx ~count_steps:n ());
    Drive_chaos_atomic.run
      (Chaos_atomic.ctx ~seed ~n (Backend.Atomic_backend.ctx ~count_steps:n ()))
  ]

let all_ok rows =
  List.for_all (fun r -> r.counter_ok && r.maxreg_ok && r.fast_maxreg_ok) rows
