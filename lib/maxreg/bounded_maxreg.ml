module Tree_maxreg = Sim_algo.Tree_maxreg

type impl =
  | Tree of Tree_maxreg.t
  | Linear of Linear_maxreg.t

type t = { m : int; impl : impl }

let create exec ?(name = "bmax") ~n ~m () =
  if m < 1 then invalid_arg "Bounded_maxreg.create: m < 1";
  if n < 1 then invalid_arg "Bounded_maxreg.create: n < 1";
  let impl =
    if Zmath.ceil_log2 m <= n then
      Tree (Tree_maxreg.create (Sim_backend.ctx exec) ~name ~m ())
    else Linear (Linear_maxreg.create exec ~name ~n ())
  in
  { m; impl }

let write t ~pid v =
  if v < 0 || v >= t.m then
    invalid_arg "Bounded_maxreg.write: value out of range";
  match t.impl with
  | Tree tr -> Tree_maxreg.write tr ~pid v
  | Linear li -> Linear_maxreg.write li ~pid v

let read t ~pid =
  match t.impl with
  | Tree tr -> Tree_maxreg.read tr ~pid
  | Linear li -> Linear_maxreg.read li ~pid

let bound t = t.m

let uses_tree t = match t.impl with Tree _ -> true | Linear _ -> false

let handle t =
  { Obj_intf.mr_label = "bounded-maxreg";
    mr_write = (fun ~pid v -> write t ~pid v);
    mr_read = (fun ~pid -> read t ~pid) }
