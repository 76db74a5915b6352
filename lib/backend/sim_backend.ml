(* The simulator instantiation of Backend.Backend_intf.S.

   Every primitive performs exactly one Sim.Api access, i.e. one
   charged step of the simulated execution, so functorized algorithm
   code driven through this backend has exactly the step counts the
   paper's complexity statements talk about — and the same counts the
   hand-written simulator objects had before the functorization.

   Unbounded structures (the switch sequence, large register arrays)
   are Sim.Memory regions: cells materialise on first touch, so a tree
   laid out over a huge index range only allocates what an execution
   reaches. *)

let label = "sim"

type ctx = {
  exec : Sim.Exec.t;
  step_counts : int array;  (* per-pid primitives issued via this ctx *)
  scratch : Sim.Memory.obj_id;  (* target of [pause] delay steps *)
}

let ctx exec =
  { exec;
    step_counts = Array.make (Sim.Exec.n exec) 0;
    scratch =
      Sim.Memory.alloc (Sim.Exec.memory exec) ~name:"backend.pause"
        (Sim.Memory.V_int 0) }

let mem c = Sim.Exec.memory c.exec

let[@inline] bump c pid = c.step_counts.(pid) <- c.step_counts.(pid) + 1

let steps c ~pid = c.step_counts.(pid)

let pause c ~pid =
  bump c pid;
  ignore (Sim.Api.read c.scratch)

(* ------------------------------------------------------------------ *)
(* Registers                                                           *)
(* ------------------------------------------------------------------ *)

type reg = { r_ctx : ctx; id : Sim.Memory.obj_id }

let reg c ?(name = "reg") v =
  { r_ctx = c; id = Sim.Memory.alloc (mem c) ~name (Sim.Memory.V_int v) }

let read r ~pid =
  bump r.r_ctx pid;
  Sim.Api.read r.id

let write r ~pid v =
  bump r.r_ctx pid;
  Sim.Api.write r.id v

(* [version] is uncharged metadata, not a simulated cell: bumping it
   after the write costs no step (the paper's algorithms don't maintain
   it — the backend does), while *reading* it via [reg_array_version]
   is one charged step like any other primitive. The bump happens after
   the [Sim.Api.write] effect resolves, which is the ordering the
   signature contract requires: a flip/write whose bump a reader has
   not seen belongs to an operation that has not returned yet. *)
type reg_array = {
  ra_ctx : ctx;
  region : Sim.Memory.region;
  len : int;
  mutable ra_version : int;
}

let reg_array c ?(name = "regs") ~len ~init () =
  if len < 0 then invalid_arg "Sim_backend.reg_array: negative length";
  { ra_ctx = c;
    region = Sim.Memory.region (mem c) ~name ~default:(Sim.Memory.V_int init) ();
    len;
    ra_version = 0 }

let reg_get a ~pid i =
  bump a.ra_ctx pid;
  Sim.Api.read (Sim.Memory.region_cell (mem a.ra_ctx) a.region i)

let reg_set a ~pid i v =
  bump a.ra_ctx pid;
  Sim.Api.write (Sim.Memory.region_cell (mem a.ra_ctx) a.region i) v;
  a.ra_version <- a.ra_version + 1

(* One charged step (the scratch read is the simulated access; the
   metadata load piggybacks on it, mirroring how a hardware backend
   pays one atomic load). *)
let reg_array_version a ~pid =
  bump a.ra_ctx pid;
  ignore (Sim.Api.read a.ra_ctx.scratch);
  a.ra_version

(* Prefetch hints are pure no-ops here: they are uncharged (no [bump],
   no simulated access), which is exactly what keeps the flattened hot
   paths step-exact — hints change nothing about the charged-step
   sequence the paper's complexity statements count. *)
let reg_prefetch _ _ = ()

type swmr_array = { sw_ctx : ctx; cells : Sim.Memory.obj_id array }

let swmr_array c ?(name = "swmr") ~n ~init () =
  if n < 1 then invalid_arg "Sim_backend.swmr_array: n < 1";
  { sw_ctx = c;
    cells = Sim.Memory.alloc_many (mem c) ~name n (Sim.Memory.V_int init) }

let swmr_read a ~pid i =
  bump a.sw_ctx pid;
  Sim.Api.read a.cells.(i)

let swmr_write a ~pid v =
  bump a.sw_ctx pid;
  Sim.Api.write a.cells.(pid) v

let swmr_prefetch _ _ = ()

(* ------------------------------------------------------------------ *)
(* Test&set switch sequences: an unbounded region                      *)
(* ------------------------------------------------------------------ *)

exception Ts_capacity_exceeded of { index : int; max_capacity : int }

let ts_max_capacity = max_int

type ts_array = {
  ts_ctx : ctx;
  region : Sim.Memory.region;
  mutable ts_ver : int;  (* flip watermark; uncharged metadata, see reg_array *)
}

let ts_array c ?(name = "switch") ?capacity_hint:_ ~n:_ () =
  { ts_ctx = c;
    region = Sim.Memory.region (mem c) ~name ~default:(Sim.Memory.V_int 0) ();
    ts_ver = 0 }

let test_and_set t ~pid j =
  bump t.ts_ctx pid;
  let flipped =
    Sim.Api.test_and_set (Sim.Memory.region_cell (mem t.ts_ctx) t.region j) = 0
  in
  if flipped then t.ts_ver <- t.ts_ver + 1;
  flipped

let ts_version t ~pid =
  bump t.ts_ctx pid;
  ignore (Sim.Api.read t.ts_ctx.scratch);
  t.ts_ver

let ts_read t ~pid j =
  bump t.ts_ctx pid;
  Sim.Api.read (Sim.Memory.region_cell (mem t.ts_ctx) t.region j) <> 0

let ts_capacity _ = max_int

let ts_states t =
  let m = mem t.ts_ctx in
  Sim.Memory.region_cells_allocated m t.region
  |> List.map (fun (i, id) -> (i, Sim.Memory.int_exn (Sim.Memory.peek m id) <> 0))

(* ------------------------------------------------------------------ *)
(* CAS cells                                                           *)
(* ------------------------------------------------------------------ *)

type cas_cell = reg

let cas_cell c ?(name = "cas") v = reg c ~name v
let cas_read r ~pid = read r ~pid

let compare_and_set r ~pid ~expect ~value =
  bump r.r_ctx pid;
  Sim.Api.cas_int r.id ~expect ~value

(* ------------------------------------------------------------------ *)
(* Announcements: atomic V_pair cells                                  *)
(* ------------------------------------------------------------------ *)

type ann_array = { an_ctx : ctx; cells : Sim.Memory.obj_id array }

type ann = int * int

let ann_max_value = max_int

let ann_array c ?(name = "H") ~n () =
  if n < 1 then invalid_arg "Sim_backend.ann_array: n < 1";
  { an_ctx = c;
    cells = Sim.Memory.alloc_many (mem c) ~name n (Sim.Memory.V_pair (0, 0)) }

let announce a ~pid ~value ~sn =
  bump a.an_ctx pid;
  Sim.Api.write_pair a.cells.(pid) (value, sn)

let ann_load a ~pid i =
  bump a.an_ctx pid;
  Sim.Api.read_pair a.cells.(i)

let ann_value (v, _) = v
let ann_sn (_, sn) = sn
let sn_succ sn = sn + 1
let sn_delta a b = a - b
