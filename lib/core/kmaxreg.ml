(* Algorithm 2 in the simulator: the shared functor body
   (Algo.Kmaxreg_algo) over the Sim backend. The inner exact register
   stays Maxreg.Bounded_maxreg so the simulator keeps its tree-vs-
   linear(snapshot) selection — that choice is what realises the
   O(min(log2 log_k m, n)) bound of Theorem IV.2. The create checks run
   here because [inner_bound] needs a valid [k] and [m] before the
   functor sees them. *)

module A = Sim_algo.Kmaxreg

type t = A.t

let create exec ?(name = "kmax") ~n ~m ~k () =
  if k < 2 then invalid_arg "Kmaxreg.create: k < 2";
  if m < 2 then invalid_arg "Kmaxreg.create: m < 2";
  if n < 1 then invalid_arg "Kmaxreg.create: n < 1";
  let inner =
    Maxreg.Bounded_maxreg.create exec ~name ~n ~m:(A.inner_bound ~m ~k) ()
  in
  A.create (Sim_backend.ctx exec) ~name
    ~inner:(Maxreg.Bounded_maxreg.handle inner)
    ~m ~k ()

let write = A.write
let read = A.read
let bound = A.bound
let k = A.k
let handle = A.handle
