(* Every lib/algo functor instantiated once over the simulator backend,
   so each primitive is exactly one charged step of the simulated
   execution. Callers pass [(Sim_backend.ctx exec)] and a [~pid];
   argument checks live in the functor bodies. Mcore.Atomic_algo is the
   same list over hardware atomics. *)

module Kcounter = Algo.Kcounter_algo.Make (Sim_backend)
module Kmaxreg = Algo.Kmaxreg_algo.Make (Sim_backend)
module Tree_maxreg = Algo.Tree_maxreg_algo.Make (Sim_backend)
module Cas_maxreg = Algo.Cas_maxreg_algo.Make (Sim_backend)
module Collect_counter = Algo.Collect_counter_algo.Make (Sim_backend)
