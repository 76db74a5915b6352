(* Unit and property tests for the exact integer arithmetic helpers. *)

let check = Alcotest.check
let vi = Alcotest.int

let test_pow () =
  check vi "2^10" 1024 (Zmath.pow 2 10);
  check vi "k^0" 1 (Zmath.pow 17 0);
  check vi "0^0" 1 (Zmath.pow 0 0);
  check vi "0^5" 0 (Zmath.pow 0 5);
  check vi "1^big" 1 (Zmath.pow 1 1_000_000);
  check vi "3^4" 81 (Zmath.pow 3 4)

let test_pow_overflow () =
  (* OCaml ints are 63-bit: max_int = 2^62 - 1. *)
  Alcotest.check_raises "2^62 overflows" Zmath.Overflow (fun () ->
      ignore (Zmath.pow 2 62));
  check (Alcotest.option vi) "pow_opt overflow" None (Zmath.pow_opt 10 19);
  check (Alcotest.option vi) "2^61 fits" (Some (1 lsl 61)) (Zmath.pow_opt 2 61);
  check vi "pow_sat overflow saturates" max_int (Zmath.pow_sat 10 19);
  check vi "pow_sat exact below overflow" (1 lsl 61) (Zmath.pow_sat 2 61)

let test_mul_opt () =
  check (Alcotest.option vi) "small" (Some 42) (Zmath.mul_opt 6 7);
  check (Alcotest.option vi) "zero" (Some 0) (Zmath.mul_opt 0 max_int);
  check (Alcotest.option vi) "overflow" None (Zmath.mul_opt max_int 2);
  check (Alcotest.option vi) "max ok" (Some max_int) (Zmath.mul_opt max_int 1)

let test_floor_log () =
  check vi "log2 1" 0 (Zmath.floor_log ~base:2 1);
  check vi "log2 2" 1 (Zmath.floor_log ~base:2 2);
  check vi "log2 3" 1 (Zmath.floor_log ~base:2 3);
  check vi "log2 1024" 10 (Zmath.floor_log ~base:2 1024);
  check vi "log2 1025" 10 (Zmath.floor_log ~base:2 1025);
  check vi "log3 26" 2 (Zmath.floor_log ~base:3 26);
  check vi "log3 27" 3 (Zmath.floor_log ~base:3 27);
  check vi "log of max_int" 61 (Zmath.floor_log ~base:2 max_int)

let test_ceil_log () =
  check vi "ceil log2 1" 0 (Zmath.ceil_log ~base:2 1);
  check vi "ceil log2 2" 1 (Zmath.ceil_log ~base:2 2);
  check vi "ceil log2 3" 2 (Zmath.ceil_log ~base:2 3);
  check vi "ceil log2 1024" 10 (Zmath.ceil_log2 1024);
  check vi "ceil log2 1025" 11 (Zmath.ceil_log2 1025)

let test_ceil_sqrt () =
  check vi "sqrt 0" 0 (Zmath.ceil_sqrt 0);
  check vi "sqrt 1" 1 (Zmath.ceil_sqrt 1);
  check vi "sqrt 2" 2 (Zmath.ceil_sqrt 2);
  check vi "sqrt 4" 2 (Zmath.ceil_sqrt 4);
  check vi "sqrt 5" 3 (Zmath.ceil_sqrt 5);
  check vi "sqrt 16" 4 (Zmath.ceil_sqrt 16);
  check vi "sqrt 17" 5 (Zmath.ceil_sqrt 17)

let test_is_power () =
  Alcotest.(check bool) "8 is 2^3" true (Zmath.is_power ~base:2 8);
  Alcotest.(check bool) "6 not power of 2" false (Zmath.is_power ~base:2 6);
  Alcotest.(check bool) "1 is k^0" true (Zmath.is_power ~base:7 1);
  Alcotest.(check bool) "0 not a power" false (Zmath.is_power ~base:2 0)

let test_within_k () =
  Alcotest.(check bool) "exact" true (Zmath.within_k ~k:2 ~exact:10 10);
  Alcotest.(check bool) "upper edge" true (Zmath.within_k ~k:2 ~exact:10 20);
  Alcotest.(check bool) "above upper" false (Zmath.within_k ~k:2 ~exact:10 21);
  Alcotest.(check bool) "lower edge" true (Zmath.within_k ~k:2 ~exact:10 5);
  Alcotest.(check bool) "below lower" false (Zmath.within_k ~k:2 ~exact:10 4);
  (* v/k with rational semantics: v=9, k=2: x=4 => 4*2=8 < 9 rejected *)
  Alcotest.(check bool) "rational lower" false (Zmath.within_k ~k:2 ~exact:9 4);
  Alcotest.(check bool) "rational lower ok" true (Zmath.within_k ~k:2 ~exact:9 5);
  Alcotest.(check bool) "zero exact zero x" true (Zmath.within_k ~k:3 ~exact:0 0);
  Alcotest.(check bool) "zero exact nonzero x" false
    (Zmath.within_k ~k:3 ~exact:0 1);
  (* no overflow on huge values *)
  Alcotest.(check bool) "huge" true
    (Zmath.within_k ~k:1000 ~exact:max_int max_int)

let test_geometric_sum () =
  check vi "empty" 0 (Zmath.geometric_sum ~base:2 ~lo:3 ~hi:2);
  check vi "2^1+2^2+2^3" 14 (Zmath.geometric_sum ~base:2 ~lo:1 ~hi:3);
  check vi "k^2..k^3 for k=3" 36 (Zmath.geometric_sum ~base:3 ~lo:2 ~hi:3)

(* Properties *)

let prop_pow_log =
  QCheck.Test.make ~name:"floor_log inverts pow" ~count:500
    QCheck.(pair (int_range 2 10) (int_range 0 15))
    (fun (base, e) ->
      let v = Zmath.pow base e in
      Zmath.floor_log ~base v = e)

let prop_floor_log_bounds =
  QCheck.Test.make ~name:"base^floor_log <= v < base^(floor_log+1)" ~count:500
    QCheck.(pair (int_range 2 16) (int_range 1 1_000_000))
    (fun (base, v) ->
      let e = Zmath.floor_log ~base v in
      Zmath.pow base e <= v
      && (match Zmath.pow_opt base (e + 1) with
          | Some p -> v < p
          | None -> true))

let prop_within_k_matches_float =
  QCheck.Test.make ~name:"within_k agrees with rational definition" ~count:1000
    QCheck.(triple (int_range 1 100) (int_range 0 10_000) (int_range 0 10_000))
    (fun (k, exact, x) ->
      let expected =
        float_of_int exact /. float_of_int k <= float_of_int x
        && float_of_int x <= float_of_int exact *. float_of_int k
      in
      Zmath.within_k ~k ~exact x = expected)

let prop_ceil_sqrt =
  QCheck.Test.make ~name:"ceil_sqrt is minimal" ~count:500
    QCheck.(int_range 0 10_000_000)
    (fun v ->
      let s = Zmath.ceil_sqrt v in
      s * s >= v && (s = 0 || (s - 1) * (s - 1) < v))

let suite =
  [ ("pow", `Quick, test_pow);
    ("pow overflow", `Quick, test_pow_overflow);
    ("mul_opt", `Quick, test_mul_opt);
    ("floor_log", `Quick, test_floor_log);
    ("ceil_log", `Quick, test_ceil_log);
    ("ceil_sqrt", `Quick, test_ceil_sqrt);
    ("is_power", `Quick, test_is_power);
    ("within_k", `Quick, test_within_k);
    ("geometric_sum", `Quick, test_geometric_sum);
    QCheck_alcotest.to_alcotest prop_pow_log;
    QCheck_alcotest.to_alcotest prop_floor_log_bounds;
    QCheck_alcotest.to_alcotest prop_within_k_matches_float;
    QCheck_alcotest.to_alcotest prop_ceil_sqrt ]

let () = Alcotest.run "zmath" [ ("zmath", suite) ]
