(* Tests for the primitive-backend layer itself: Atomic switch growth
   and its capacity ceiling, per-pid step accounting on both backends,
   and determinism of the Chaos decorator's fault injection. *)

let check = Alcotest.check
let vi = Alcotest.int

module AB = Backend.Atomic_backend
module Chaos_atomic = Backend.Chaos_backend.Make (Backend.Atomic_backend)
module Chaos_sim = Backend.Chaos_backend.Make (Sim_backend)

(* ------------------------------------------------------------------ *)
(* Atomic test&set arrays: growth and the capacity ceiling             *)
(* ------------------------------------------------------------------ *)

let test_atomic_ts_growth () =
  let c = AB.ctx () in
  let ts = AB.ts_array c ~capacity_hint:1 ~n:1 () in
  (* Capacity is the hint rounded up to whole flat chunks. *)
  let cap0 = AB.ts_capacity ts in
  Alcotest.(check bool) "initial capacity covers the hint" true (cap0 >= 1);
  Alcotest.(check bool) "set 0" true (AB.test_and_set ts ~pid:0 0);
  Alcotest.(check bool) "re-set 0 fails" false (AB.test_and_set ts ~pid:0 0);
  (* Touching an index past the initial chunks installs a larger
     directory without disturbing set bits (the chunks are shared). *)
  Alcotest.(check bool) "set past capacity" true
    (AB.test_and_set ts ~pid:0 (cap0 + 40));
  Alcotest.(check bool) "grown" true (AB.ts_capacity ts >= cap0 + 41);
  Alcotest.(check bool) "bit 0 survives growth" true (AB.ts_read ts ~pid:0 0);
  Alcotest.(check bool) "grown bit set" true (AB.ts_read ts ~pid:0 (cap0 + 40));
  Alcotest.(check bool) "bit 7 clear" false (AB.ts_read ts ~pid:0 7);
  (* Reading beyond the physical chunks is false, never an error. *)
  Alcotest.(check bool) "read past capacity" false
    (AB.ts_read ts ~pid:0 (AB.ts_max_capacity - 1))

let test_atomic_ts_ceiling () =
  let c = AB.ctx () in
  let ts = AB.ts_array c ~capacity_hint:1 ~n:1 () in
  check vi "ceiling is 2^20" (1 lsl 20) AB.ts_max_capacity;
  (* The exception carries the offending index and the ceiling. *)
  (try
     ignore (AB.test_and_set ts ~pid:0 AB.ts_max_capacity);
     Alcotest.fail "expected Ts_capacity_exceeded"
   with AB.Ts_capacity_exceeded { index; max_capacity } ->
     check vi "index" AB.ts_max_capacity index;
     check vi "max_capacity" AB.ts_max_capacity max_capacity);
  (* The rejected probe must not have corrupted the array. *)
  Alcotest.(check bool) "still usable" true (AB.test_and_set ts ~pid:0 3)

let test_atomic_ts_states () =
  let c = AB.ctx () in
  let ts = AB.ts_array c ~capacity_hint:4 ~n:1 () in
  ignore (AB.test_and_set ts ~pid:0 1);
  ignore (AB.test_and_set ts ~pid:0 3);
  let states = AB.ts_states ts in
  check vi "dump covers the materialised capacity" (AB.ts_capacity ts)
    (List.length states);
  Alcotest.(check (list int))
    "set switches" [ 1; 3 ]
    (List.filter_map (fun (i, b) -> if b then Some i else None) states);
  Alcotest.(check (list (pair int bool)))
    "indices in order, prefix as expected"
    [ (0, false); (1, true); (2, false); (3, true) ]
    (List.filteri (fun i _ -> i < 4) states)

(* ------------------------------------------------------------------ *)
(* Step accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_atomic_step_counting () =
  let c = AB.ctx ~count_steps:2 () in
  let r = AB.reg c 0 in
  for _ = 1 to 3 do
    ignore (AB.read r ~pid:0)
  done;
  AB.write r ~pid:1 7;
  AB.write r ~pid:1 9;
  check vi "pid 0 steps" 3 (AB.steps c ~pid:0);
  check vi "pid 1 steps" 2 (AB.steps c ~pid:1);
  (* A non-counting context reports 0 at zero bookkeeping cost. *)
  let c0 = AB.ctx () in
  let r0 = AB.reg c0 0 in
  ignore (AB.read r0 ~pid:0);
  check vi "uncounted" 0 (AB.steps c0 ~pid:0)

let test_sim_step_counting () =
  let exec = Sim.Exec.create ~n:2 () in
  let c = Sim_backend.ctx exec in
  let r = Sim_backend.reg c ~name:"r" 0 in
  let programs =
    [| (fun _ ->
         ignore (Sim_backend.read r ~pid:0);
         ignore (Sim_backend.read r ~pid:0);
         ignore (Sim_backend.read r ~pid:0));
       (fun _ ->
         Sim_backend.write r ~pid:1 5;
         Sim_backend.write r ~pid:1 6) |]
  in
  let outcome = Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin () in
  (* Backend counters coincide with the simulator's charged steps. *)
  check vi "pid 0 steps" 3 (Sim_backend.steps c ~pid:0);
  check vi "pid 1 steps" 2 (Sim_backend.steps c ~pid:1);
  check vi "total charged" 5 outcome.steps_total

let test_sim_pause_is_charged () =
  let exec = Sim.Exec.create ~n:1 () in
  let c = Sim_backend.ctx exec in
  let programs = [| (fun _ -> Sim_backend.pause c ~pid:0) |] in
  let outcome = Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin () in
  check vi "pause charges one step" 1 outcome.steps_total

(* ------------------------------------------------------------------ *)
(* Chaos decorator                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed primitive sequence against a chaos-wrapped counting Atomic
   backend; the per-pid step counts include injected pauses, so equal
   counts mean an identical injection pattern. *)
let chaos_trial ~seed ~rate =
  let inner = AB.ctx ~count_steps:2 () in
  let c = Chaos_atomic.ctx ~rate ~seed ~n:2 inner in
  let r = Chaos_atomic.reg c 0 in
  for i = 1 to 50 do
    Chaos_atomic.write r ~pid:0 i;
    ignore (Chaos_atomic.read r ~pid:1)
  done;
  (AB.steps inner ~pid:0, AB.steps inner ~pid:1)

let test_chaos_deterministic () =
  Alcotest.(check (pair int int))
    "same seed, same injections" (chaos_trial ~seed:11 ~rate:4)
    (chaos_trial ~seed:11 ~rate:4);
  let s0, s1 = chaos_trial ~seed:11 ~rate:1 in
  (* rate = 1 injects before every primitive: strictly more than the 50
     primitives each pid issues. *)
  Alcotest.(check bool) "pid 0 pauses injected" true (s0 > 50);
  Alcotest.(check bool) "pid 1 pauses injected" true (s1 > 50)

let test_chaos_sim_pauses_charged () =
  (* Over the simulator, injected pauses are charged no-op steps: with
     rate = 1 the execution takes strictly more steps than the 10
     primitives the program issues. *)
  let exec = Sim.Exec.create ~n:1 () in
  let c = Chaos_sim.ctx ~rate:1 ~seed:3 ~n:1 (Sim_backend.ctx exec) in
  let r = Chaos_sim.reg c 0 in
  let programs =
    [| (fun _ ->
         for i = 1 to 10 do
           Chaos_sim.write r ~pid:0 i
         done) |]
  in
  let outcome = Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin () in
  Alcotest.(check bool)
    (Printf.sprintf "%d steps for 10 primitives" outcome.steps_total)
    true
    (outcome.steps_total > 10)

let test_chaos_preserves_values () =
  (* Injection must never change what the primitives compute. *)
  let inner = AB.ctx () in
  let c = Chaos_atomic.ctx ~rate:1 ~seed:7 ~n:1 inner in
  let ts = Chaos_atomic.ts_array c ~capacity_hint:1 ~n:1 () in
  Alcotest.(check bool) "ts first" true (Chaos_atomic.test_and_set ts ~pid:0 2);
  Alcotest.(check bool) "ts second" false (Chaos_atomic.test_and_set ts ~pid:0 2);
  let cell = Chaos_atomic.cas_cell c 0 in
  Alcotest.(check bool) "cas" true
    (Chaos_atomic.compare_and_set cell ~pid:0 ~expect:0 ~value:42);
  check vi "cas value" 42 (Chaos_atomic.cas_read cell ~pid:0)

let suite =
  [ ("atomic ts growth", `Quick, test_atomic_ts_growth);
    ("atomic ts ceiling", `Quick, test_atomic_ts_ceiling);
    ("atomic ts states", `Quick, test_atomic_ts_states);
    ("atomic step counting", `Quick, test_atomic_step_counting);
    ("sim step counting", `Quick, test_sim_step_counting);
    ("sim pause charged", `Quick, test_sim_pause_is_charged);
    ("chaos deterministic", `Quick, test_chaos_deterministic);
    ("chaos sim pauses charged", `Quick, test_chaos_sim_pauses_charged);
    ("chaos preserves values", `Quick, test_chaos_preserves_values) ]

let () = Alcotest.run "backend" [ ("backend", suite) ]
