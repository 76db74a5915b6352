module Faa_counter = struct
  type t = int Atomic.t

  let create () = Backend.Padded.atomic 0
  let increment t = ignore (Atomic.fetch_and_add t 1)
  let add t n = ignore (Atomic.fetch_and_add t n)
  let read t = Atomic.get t
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
