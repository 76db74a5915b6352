module Faa_counter = struct
  type t = int Atomic.t

  let create () = Backend.Padded.atomic 0
  let increment t = ignore (Atomic.fetch_and_add t 1)
  let add t n = ignore (Atomic.fetch_and_add t n)
  let read t = Atomic.get t
end

(* Collect counter and CAS max register are instantiations of the
   shared lib/algo baselines (the same bodies the simulator's
   Counters.Collect_counter / Maxreg.Cas_maxreg instantiate); these
   wrappers keep the historical pid-free surfaces. *)

module Collect_counter = struct
  module A = Algo.Collect_counter_algo.Make (Backend.Atomic_backend)

  type t = A.t

  let create ~n = A.create (Backend.Atomic_backend.ctx ()) ~n ()
  let increment t ~pid = A.increment t ~pid
  let read t = A.read t ~pid:0
end

module Lock_counter = struct
  type t = { mutex : Mutex.t; mutable count : int }

  let create () = Backend.Padded.copy { mutex = Mutex.create (); count = 0 }

  let increment t =
    Mutex.lock t.mutex;
    t.count <- t.count + 1;
    Mutex.unlock t.mutex

  let read t =
    Mutex.lock t.mutex;
    let v = t.count in
    Mutex.unlock t.mutex;
    v
end

module Cas_maxreg = struct
  module A = Algo.Cas_maxreg_algo.Make (Backend.Atomic_backend)

  type t = A.t

  let create () = A.create (Backend.Atomic_backend.ctx ()) ()
  let write t v = A.write t ~pid:0 v
  let read t = A.read t ~pid:0
end
