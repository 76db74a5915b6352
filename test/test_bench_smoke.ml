(* The JSON writer behind [approx_cli loadgen --json] and the committed
   BENCH_*.json records: layout, escaping and non-finite floats. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Bench_json                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_basic () =
  let open Mcore.Bench_json in
  check Alcotest.string "scalars" "[\n  null,\n  true,\n  3,\n  1.5\n]\n"
    (to_string (List [ Null; Bool true; Int 3; Float 1.5 ]));
  check Alcotest.string "empty containers" "{\n  \"a\": [],\n  \"b\": {}\n}\n"
    (to_string (Obj [ ("a", List []); ("b", Obj []) ]))

let test_json_escaping () =
  let open Mcore.Bench_json in
  check Alcotest.string "escapes"
    "\"a\\\"b\\\\c\\nd\\u0007\"\n"
    (to_string (Str "a\"b\\c\nd\007"))

let test_json_floats () =
  let open Mcore.Bench_json in
  check Alcotest.string "nan is null" "null\n" (to_string (Float Float.nan));
  check Alcotest.string "inf is null" "null\n"
    (to_string (Float Float.infinity));
  check Alcotest.string "integral keeps point" "2.0\n" (to_string (Float 2.0));
  check Alcotest.string "fractional" "0.25\n" (to_string (Float 0.25))

let suite =
  [ ("json basic", `Quick, test_json_basic);
    ("json escaping", `Quick, test_json_escaping);
    ("json floats", `Quick, test_json_floats) ]

let () = Alcotest.run "bench_smoke" [ ("bench_smoke", suite) ]
