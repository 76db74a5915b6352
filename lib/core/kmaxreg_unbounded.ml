type t = { k : int; inner : Maxreg.Unbounded_maxreg.t }

let create exec ?(name = "ukmax") ~k () =
  if k < 2 then invalid_arg "Kmaxreg_unbounded.create: k < 2";
  { k; inner = Maxreg.Unbounded_maxreg.create exec ~name () }

let write t ~pid v =
  if v < 0 then invalid_arg "Kmaxreg_unbounded.write: negative value";
  if v > 0 then
    Maxreg.Unbounded_maxreg.write t.inner ~pid (Zmath.floor_log ~base:t.k v + 1)

(* Saturates at max_int like Kmaxreg_algo.read. *)
let read t ~pid =
  match Maxreg.Unbounded_maxreg.read t.inner ~pid with
  | 0 -> 0
  | p -> Zmath.pow_sat t.k p

let k t = t.k

let handle t =
  { Obj_intf.mr_label = Printf.sprintf "ukmaxreg(k=%d)" t.k;
    mr_write = (fun ~pid v -> write t ~pid v);
    mr_read = (fun ~pid -> read t ~pid) }
