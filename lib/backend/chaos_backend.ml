(* Deterministic fault injection as a backend decorator.

   Chaos_backend.Make (B) is itself a Backend_intf.S: every primitive
   first consults a seeded per-process LCG stream and, at the
   configured rate, injects a bounded burst of B.pause delay units
   before delegating to B. Over Sim_backend a pause is a charged no-op
   step (so injected delays perturb schedules and step counts exactly
   and reproducibly); over Atomic_backend it is a Domain.cpu_relax
   (real jitter between domains).

   Determinism: each pid draws from its own stream, advanced once per
   primitive that pid issues, so the injection pattern is a pure
   function of (seed, pid, #primitives issued by pid) — independent of
   scheduling. That is exactly what exhaustive schedule exploration
   needs: rebuilding the execution reproduces the same perturbed
   algorithm, and only the schedule varies. *)

module Make (B : Backend_intf.S) = struct
  let label = "chaos(" ^ B.label ^ ")"

  type ctx = {
    inner : B.ctx;
    rngs : Padded.Int_array.t;  (* per-pid LCG state, cache-line striped *)
    rate : int;  (* inject before ~1 in [rate] primitives *)
    max_pause : int;  (* burst length in [1 .. max_pause] pauses *)
  }

  let ctx ?(rate = 4) ?(max_pause = 3) ~seed ~n inner =
    if rate < 1 then invalid_arg "Chaos_backend.ctx: rate < 1";
    if max_pause < 1 then invalid_arg "Chaos_backend.ctx: max_pause < 1";
    if n < 1 then invalid_arg "Chaos_backend.ctx: n < 1";
    let rngs = Padded.Int_array.make n 0 in
    for pid = 0 to n - 1 do
      (* Distinct non-zero stream heads per pid, splitmix-style
         (constants truncated to OCaml's 63-bit int range). *)
      Padded.Int_array.set rngs pid
        (((seed + 1) * 0x1E3779B97F4A7C15) lxor (pid * 0x3F58476D1CE4E5B9))
    done;
    { inner; rngs; rate; max_pause }

  (* One LCG draw per primitive; no allocation. *)
  let[@inline] draw c pid =
    let st =
      (Padded.Int_array.get c.rngs pid * 0x2545F4914F6CDD1D)
      + 1442695040888963407
    in
    Padded.Int_array.set c.rngs pid st;
    (st lsr 17) land 0x3FFFFFFF

  let maybe_pause c pid =
    let r = draw c pid in
    if r mod c.rate = 0 then
      for _ = 1 to 1 + ((r / c.rate) mod c.max_pause) do
        B.pause c.inner ~pid
      done

  let steps c ~pid = B.steps c.inner ~pid
  let pause c ~pid = B.pause c.inner ~pid

  type reg = { r_ctx : ctx; r : B.reg }

  let reg c ?name v = { r_ctx = c; r = B.reg c.inner ?name v }

  let read r ~pid =
    maybe_pause r.r_ctx pid;
    B.read r.r ~pid

  let write r ~pid v =
    maybe_pause r.r_ctx pid;
    B.write r.r ~pid v

  type reg_array = { ra_ctx : ctx; ra : B.reg_array }

  let reg_array c ?name ~len ~init () =
    { ra_ctx = c; ra = B.reg_array c.inner ?name ~len ~init () }

  let reg_get a ~pid i =
    maybe_pause a.ra_ctx pid;
    B.reg_get a.ra ~pid i

  let reg_set a ~pid i v =
    maybe_pause a.ra_ctx pid;
    B.reg_set a.ra ~pid i v

  let reg_array_version a ~pid =
    maybe_pause a.ra_ctx pid;
    B.reg_array_version a.ra ~pid

  (* Hints are uncharged non-primitives, so no [maybe_pause]: injecting
     around them would advance the per-pid RNG stream and change which
     *real* primitives get paused, breaking the pure-function-of-
     (seed, pid, #primitives) determinism contract. *)
  let reg_prefetch a i = B.reg_prefetch a.ra i

  type swmr_array = { sw_ctx : ctx; sw : B.swmr_array }

  let swmr_array c ?name ~n ~init () =
    { sw_ctx = c; sw = B.swmr_array c.inner ?name ~n ~init () }

  let swmr_read a ~pid i =
    maybe_pause a.sw_ctx pid;
    B.swmr_read a.sw ~pid i

  let swmr_write a ~pid v =
    maybe_pause a.sw_ctx pid;
    B.swmr_write a.sw ~pid v

  let swmr_prefetch a i = B.swmr_prefetch a.sw i

  exception Ts_capacity_exceeded = B.Ts_capacity_exceeded

  let ts_max_capacity = B.ts_max_capacity

  type ts_array = { ts_ctx : ctx; ts : B.ts_array }

  let ts_array c ?name ?capacity_hint ~n () =
    { ts_ctx = c; ts = B.ts_array c.inner ?name ?capacity_hint ~n () }

  let test_and_set t ~pid j =
    maybe_pause t.ts_ctx pid;
    B.test_and_set t.ts ~pid j

  let ts_read t ~pid j =
    maybe_pause t.ts_ctx pid;
    B.ts_read t.ts ~pid j

  let ts_version t ~pid =
    maybe_pause t.ts_ctx pid;
    B.ts_version t.ts ~pid

  let ts_capacity t = B.ts_capacity t.ts
  let ts_states t = B.ts_states t.ts

  type cas_cell = { cc_ctx : ctx; cc : B.cas_cell }

  let cas_cell c ?name v = { cc_ctx = c; cc = B.cas_cell c.inner ?name v }

  let cas_read r ~pid =
    maybe_pause r.cc_ctx pid;
    B.cas_read r.cc ~pid

  let compare_and_set r ~pid ~expect ~value =
    maybe_pause r.cc_ctx pid;
    B.compare_and_set r.cc ~pid ~expect ~value

  type ann_array = { an_ctx : ctx; an : B.ann_array }

  type ann = B.ann

  let ann_max_value = B.ann_max_value

  let ann_array c ?name ~n () =
    { an_ctx = c; an = B.ann_array c.inner ?name ~n () }

  let announce a ~pid ~value ~sn =
    maybe_pause a.an_ctx pid;
    B.announce a.an ~pid ~value ~sn

  let ann_load a ~pid i =
    maybe_pause a.an_ctx pid;
    B.ann_load a.an ~pid i

  let ann_value = B.ann_value
  let ann_sn = B.ann_sn
  let sn_succ = B.sn_succ
  let sn_delta = B.sn_delta
end
