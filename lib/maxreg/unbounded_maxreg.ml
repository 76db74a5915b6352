module Tree_maxreg = Sim_algo.Tree_maxreg

let max_levels = 61

type t = {
  top : Tree_maxreg.t;  (* holds [level + 1]; 0 means "nothing written" *)
  levels : Tree_maxreg.t array;  (* levels.(l) holds offsets in [0, 2^l) *)
}

let create exec ?(name = "umax") () =
  { top =
      Tree_maxreg.create (Sim_backend.ctx exec) ~name:(name ^ ".top")
        ~m:(max_levels + 1) ();
    levels =
      Array.init max_levels (fun l ->
          Tree_maxreg.create (Sim_backend.ctx exec)
            ~name:(Printf.sprintf "%s.lvl%d" name l)
            ~m:(Zmath.pow 2 l) ()) }

let write t ~pid v =
  if v < 0 then invalid_arg "Unbounded_maxreg.write: negative value";
  if v > 0 then begin
    let l = Zmath.floor_log ~base:2 v in
    if l >= max_levels then
      invalid_arg "Unbounded_maxreg.write: value too large";
    let offset = v - Zmath.pow 2 l in
    Tree_maxreg.write t.levels.(l) ~pid offset;
    Tree_maxreg.write t.top ~pid (l + 1)
  end

let read t ~pid =
  match Tree_maxreg.read t.top ~pid with
  | 0 -> 0
  | top -> Zmath.pow 2 (top - 1) + Tree_maxreg.read t.levels.(top - 1) ~pid

let handle t =
  { Obj_intf.mr_label = "unbounded-maxreg";
    mr_write = (fun ~pid v -> write t ~pid v);
    mr_read = (fun ~pid -> read t ~pid) }
