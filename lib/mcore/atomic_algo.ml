(* Every lib/algo functor instantiated once over hardware atomics
   (Backend.Atomic_backend). Callers pass
   [(Backend.Atomic_backend.ctx ())] and a [~pid]; argument checks live
   in the functor bodies. Sim_algo is the same list over the simulator. *)

module Kcounter = Algo.Kcounter_algo.Make (Backend.Atomic_backend)
module Kmaxreg = Algo.Kmaxreg_algo.Make (Backend.Atomic_backend)
module Tree_maxreg = Algo.Tree_maxreg_algo.Make (Backend.Atomic_backend)
module Cas_maxreg = Algo.Cas_maxreg_algo.Make (Backend.Atomic_backend)
module Collect_counter = Algo.Collect_counter_algo.Make (Backend.Atomic_backend)
