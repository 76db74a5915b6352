(* Algorithm 2 on real hardware: Atomic_algo.Kmaxreg, the shared
   functor body with its default Tree_maxreg_algo switch-heap inner
   register, over the Atomic backend. This module only keeps the
   pid-free Mc_kmaxreg surface (one cache, pid 0); the functor checks
   [k], [m] and the written value. [write] is the functor's
   [write_fast]: a write already covered by a completed one costs one
   load and leaves the heap (and its read cache) alone. *)

module A = Atomic_algo.Kmaxreg

type t = A.t

let create ~m ~k () = A.create (Backend.Atomic_backend.ctx ()) ~m ~k ()
let write t v = A.write_fast t ~pid:0 v

let read t = A.read t ~pid:0
let read_fast t = A.read_fast t ~pid:0
let fast_hits t = A.fast_hits t ~pid:0
let fast_misses t = A.fast_misses t ~pid:0
let bound = A.bound
let k = A.k
