(* The startup-corner erratum found by this reproduction, and its repair.

   Lemma III.5 / Theorem III.9 claim that Algorithm 1 is a linearizable
   k-multiplicative-accurate counter for k >= sqrt(n). The proof's final
   algebra ("u_max / k <= v_op") silently assumes q >= 1 or p >= 1; at
   q = p = 0 (a read that saw switch_0 = 1 and switch_1 = 0) we have
   ReturnValue(0,0) = k while Claim III.6's own u_max = 1 + n(k-1), and
   k * k < 1 + n(k-1) whenever n > k + 1. The adversary below realises
   u_max: every process parks just below its announce threshold.

   These tests pin down the erratum (the violation exists, is rejected by
   the checker, and appears exactly when n > k + 1) and validate the
   Startup_corrected repair, on the simulator and on hardware atomics. *)

let check = Alcotest.check
let vi = Alcotest.int

(* The parked adversary: the first incrementer performs k increments (one
   announcing switch_0, k-1 hidden); each other incrementer performs k-1
   increments (its first failing the switch_0 test&set, all hidden). All
   run to completion, then the reader reads. *)
let parked_adversary ~n ~k ~read =
  let exec = Sim.Exec.create ~n () in
  let inc, do_read = read exec ~n ~k in
  let result = ref 0 in
  let programs =
    Array.init n (fun i ->
        if i = n - 1 then fun pid ->
          result := Sim.Api.op_int ~name:"read" (fun () -> do_read ~pid)
        else fun pid ->
          let incs = if pid = 0 then k else k - 1 in
          for _ = 1 to incs do
            Sim.Api.op_unit ~name:"inc" (fun () -> inc ~pid)
          done)
  in
  let policy =
    Sim.Schedule.Seq (List.init n (fun p -> Sim.Schedule.Solo p))
  in
  ignore (Sim.Exec.run exec ~programs ~policy ());
  let v = k + ((n - 2) * (k - 1)) in
  (v, !result, Sim.Exec.trace exec)

let original exec ~n ~k =
  let c = Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~n ~k () in
  ((fun ~pid -> Sim_algo.Kcounter.increment c ~pid),
   fun ~pid -> Sim_algo.Kcounter.read c ~pid)

let corrected exec ~n ~k =
  let c =
    Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~variant:Startup_corrected
      ~n ~k ()
  in
  ((fun ~pid -> Sim_algo.Kcounter.increment c ~pid),
   fun ~pid -> Sim_algo.Kcounter.read c ~pid)

(* One Algorithm 1 body on one backend: [run variant ~n ~k f] builds a
   fresh counter and applies [f] to its operations. On the simulator [f]
   runs inside fiber 0, so a sequential script issues every pid's
   operations in order, exactly as on hardware. *)
type ops = {
  inc : pid:int -> unit;
  read : pid:int -> int;
  read_fast : pid:int -> int;
}

type backend = {
  name : string;
  run : 'a. Algo.Kcounter_algo.variant -> n:int -> k:int -> (ops -> 'a) -> 'a;
}

let sim =
  { name = "sim";
    run =
      (fun variant ~n ~k f ->
        let exec = Sim.Exec.create ~trace_steps:false ~n () in
        let c =
          Sim_algo.Kcounter.create (Sim_backend.ctx exec) ~variant ~n ~k ()
        in
        let ops =
          { inc = Sim_algo.Kcounter.increment c;
            read = Sim_algo.Kcounter.read c;
            read_fast = Sim_algo.Kcounter.read_fast c }
        in
        let result = ref None in
        let programs =
          Array.init n (fun i _ -> if i = 0 then result := Some (f ops))
        in
        ignore
          (Sim.Exec.run exec ~programs ~policy:Sim.Schedule.Round_robin ());
        Option.get !result) }

let atomic =
  { name = "atomic";
    run =
      (fun variant ~n ~k f ->
        let module K = Mcore.Atomic_algo.Kcounter in
        let c = K.create (Backend.Atomic_backend.ctx ()) ~variant ~n ~k () in
        f { inc = K.increment c; read = K.read c; read_fast = K.read_fast c })
  }

let backends = [ sim; atomic ]

(* The parked adversary as one sequential script over [ops]: the same
   increments as [parked_adversary], then pid n-1 reads with [read].
   Returns the true count and the read. *)
let parked_script ~n ~k read ops =
  for pid = 0 to n - 2 do
    for _ = 1 to if pid = 0 then k else k - 1 do
      ops.inc ~pid
    done
  done;
  (k + ((n - 2) * (k - 1)), read ops ~pid:(n - 1))

let test_violation_exists () =
  (* n = 9, k = 3 = sqrt(n): the theorem's precondition holds, yet the
     read lands outside [v/k, v*k]. *)
  let n = 9 and k = 3 in
  let v, x, trace = parked_adversary ~n ~k ~read:original in
  check vi "true count" 17 v;
  check vi "read returned k" k x;
  Alcotest.(check bool) "outside the envelope" false
    (Zmath.within_k ~k ~exact:v x);
  (match Lincheck.Checker.check_trace (Lincheck.Spec.k_counter ~k) trace with
   | Lincheck.Checker.Not_linearizable -> ()
   | Lincheck.Checker.Linearizable _ ->
     Alcotest.fail "checker accepted a history violating the k-spec")

let test_violation_boundary () =
  (* The violation appears exactly when n > k + 1: at n = k + 1 the
     parked adversary stays within the envelope. *)
  let k = 3 in
  (* n - 1 = k incrementers, v = k + (k-1)(k-1): for n = k + 1 = 4:
     v = 3 + 2*2... recompute via the adversary itself. *)
  let v_ok, x_ok, _ = parked_adversary ~n:(k + 1) ~k ~read:original in
  Alcotest.(check bool)
    (Printf.sprintf "n = k+1: %d within envelope of %d" x_ok v_ok)
    true
    (Zmath.within_k ~k ~exact:v_ok x_ok);
  let v_bad, x_bad, _ = parked_adversary ~n:(k + 3) ~k ~read:original in
  Alcotest.(check bool)
    (Printf.sprintf "n = k+3: %d outside envelope of %d" x_bad v_bad)
    false
    (Zmath.within_k ~k ~exact:v_bad x_bad)

let test_corrected_fixes_adversary () =
  let n = 9 and k = 3 in
  let v, x, trace = parked_adversary ~n ~k ~read:corrected in
  check vi "true count" 17 v;
  (* 8 started processes, so the corrected read returns k * 8 = 24. *)
  check vi "corrected read" (k * (n - 1)) x;
  Alcotest.(check bool) "within the envelope" true
    (Zmath.within_k ~k ~exact:v x);
  (match Lincheck.Checker.check_trace (Lincheck.Spec.k_counter ~k) trace with
   | Lincheck.Checker.Linearizable _ -> ()
   | Lincheck.Checker.Not_linearizable -> Alcotest.fail "not linearizable");
  List.iter
    (fun b ->
      let v, x =
        b.run Startup_corrected ~n ~k (parked_script ~n ~k (fun o -> o.read))
      in
      check vi (b.name ^ ": true count") 17 v;
      check vi (b.name ^ ": corrected read") (k * (n - 1)) x)
    backends

(* A corner value must never be served from read_fast's cache: processes
   that start after it only write their first-increment bits and fail
   the switch_0 probe, so the flip watermark never moves. The reader
   takes a corner read while one process has started, the other
   incrementers then park (the adversary above), and the reader's next
   read_fast must see them. A cached corner value would return k for a
   true count of 17. *)
let test_corner_read_not_cached () =
  let n = 9 and k = 3 in
  let reader = n - 1 in
  List.iter
    (fun b ->
      b.run Startup_corrected ~n ~k (fun o ->
          for _ = 1 to k do
            o.inc ~pid:0
          done;
          check vi (b.name ^ ": first corner read") k (o.read_fast ~pid:reader);
          for pid = 1 to n - 2 do
            for _ = 1 to k - 1 do
              o.inc ~pid
            done
          done;
          let v = k + ((n - 2) * (k - 1)) in
          let x = o.read_fast ~pid:reader in
          Alcotest.(check bool)
            (Printf.sprintf "%s: second read %d within the envelope of %d"
               b.name x v)
            true
            (Zmath.within_k ~k ~exact:v x)))
    backends

let prop_corrected_parked_family =
  (* The corrected variant survives the parked adversary on both backends
     for every (n, k), including deep below sqrt(n) -- in the startup
     corner its collect makes it accurate regardless of k. *)
  QCheck.Test.make ~name:"corrected variant vs parked adversary" ~count:100
    QCheck.(pair (int_range 3 24) (int_range 2 8))
    (fun (n, k) ->
      List.for_all
        (fun b ->
          let v, x =
            b.run Startup_corrected ~n ~k
              (parked_script ~n ~k (fun o -> o.read))
          in
          Zmath.within_k ~k ~exact:v x)
        backends)

let prop_original_violation_boundary =
  (* For the original algorithm the parked adversary violates the envelope
     iff v > k^2 (equivalently n > k + 1 + epsilon from the adversary's
     arithmetic). *)
  QCheck.Test.make ~name:"original violation iff v > k^2" ~count:100
    QCheck.(pair (int_range 3 24) (int_range 2 8))
    (fun (n, k) ->
      let v, x, _ = parked_adversary ~n ~k ~read:original in
      if x <> k then true (* a switch beyond 0 got set; corner not reached *)
      else Zmath.within_k ~k ~exact:v x = (v <= k * k))

let test_corrected_linearizable_random () =
  let k = 2 in
  for seed = 0 to 29 do
    let n = 3 in
    let exec = Sim.Exec.create ~n () in
    let counter =
      Sim_algo.Kcounter.create (Sim_backend.ctx exec)
        ~variant:Startup_corrected ~n ~k ()
    in
    let script =
      Workload.Script.counter_mix ~seed ~n ~ops_per_process:5
        ~read_fraction:0.4
    in
    let programs =
      Workload.Script.counter_programs (Sim_algo.Kcounter.handle counter)
        script
    in
    ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
    match
      Lincheck.Checker.check_trace (Lincheck.Spec.k_counter ~k)
        (Sim.Exec.trace exec)
    with
    | Lincheck.Checker.Linearizable _ -> ()
    | Lincheck.Checker.Not_linearizable ->
      Alcotest.failf "seed %d: not linearizable" seed
  done

let test_corrected_matches_original_past_startup () =
  (* Once the count passes k^2 (switch_1 set), the corrected variant's
     reads coincide with the original's, on either backend. *)
  let k = 3 in
  let reads b variant =
    b.run variant ~n:1 ~k (fun o ->
        let reads = ref [] in
        for i = 1 to 2_000 do
          o.inc ~pid:0;
          if i > k * k && i mod 100 = 0 then reads := o.read ~pid:0 :: !reads
        done;
        List.rev !reads)
  in
  List.iter
    (fun b ->
      check (Alcotest.list vi)
        (b.name ^ ": same reads past startup")
        (reads b Paper) (reads b Startup_corrected))
    backends

let test_corrected_increment_cost () =
  (* The fix adds exactly one step to each process's first increment. *)
  let n = 4 and k = 2 in
  let cost read =
    let exec = Sim.Exec.create ~trace_steps:false ~n () in
    let inc, _ = read exec ~n ~k in
    let program pid =
      for _ = 1 to 1_000 do
        Sim.Api.op_unit ~name:"inc" (fun () -> inc ~pid)
      done
    in
    (* Sequential solos: identical contention pattern in both variants, so
       the step counts differ by exactly the n first-inc announcements. *)
    ignore
      (Sim.Exec.run exec ~programs:(Array.make n program)
         ~policy:(Sim.Schedule.Seq
                    (List.init n (fun p -> Sim.Schedule.Solo p)))
         ());
    Sim.Exec.op_steps_total exec
  in
  check vi "one extra step per process" (cost original + n) (cost corrected)

let suite =
  [ ("violation exists at k = sqrt n", `Quick, test_violation_exists);
    ("violation boundary n = k+1", `Quick, test_violation_boundary);
    ("corrected fixes the adversary", `Quick, test_corrected_fixes_adversary);
    ("corner read never cached", `Quick, test_corner_read_not_cached);
    ("corrected linearizable random", `Quick,
     test_corrected_linearizable_random);
    ("corrected matches original past startup", `Quick,
     test_corrected_matches_original_past_startup);
    ("corrected increment cost", `Quick, test_corrected_increment_cost);
    QCheck_alcotest.to_alcotest prop_corrected_parked_family;
    QCheck_alcotest.to_alcotest prop_original_violation_boundary ]

let () = Alcotest.run "erratum" [ ("erratum", suite) ]
