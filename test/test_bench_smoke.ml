(* Fast-path smoke test for the perf pipeline: tiny trial counts, but
   the full code path — mlp sweep, simulator metrics, JSON assembly,
   atomic file write — plus a small-sized run of the CI floor probe.
   Keeps the BENCH_*.json machinery from silently bitrotting. *)

let check = Alcotest.check

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

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

let test_json_atomic_write () =
  let path = Filename.temp_file "bench_json" ".json" in
  Mcore.Bench_json.write_file ~path (Mcore.Bench_json.Obj [ ("x", Int 1) ]);
  Alcotest.(check bool) "no tmp left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "contents" "{\n  \"x\": 1\n}\n" s

(* ------------------------------------------------------------------ *)
(* Pipeline smoke                                                      *)
(* ------------------------------------------------------------------ *)

let test_pipeline_smoke () =
  let path = Filename.temp_file "bench_smoke" ".json" in
  let cfg = { Perf.Pipeline.smoke_config with out_path = path } in
  ignore (Perf.Pipeline.run ~quiet:true cfg);
  Alcotest.(check bool) "floor probe median positive" true
    (Perf.Pipeline.read_heavy_floor_probe ~trials:1 ~ops_per_domain:2_000 ()
     > 0.0);
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty" true (String.length s > 0);
  Alcotest.(check bool) "json object" true (s.[0] = '{');
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "record mentions %S" needle)
        true (contains ~needle s))
    [ "\"schema_version\": 12"; "amortized_steps_per_op"; "ops_per_sec_median";
      "ops_per_sec_min"; "ops_per_sec_max"; "kcounter"; "\"domains\": 1";
      "effective_cores"; "cores_source"; "\"mlp\"";
      "\"variant\": \"boxed-walk\""; "\"variant\": \"flat\"";
      "flat_over_boxed_speedup"; "\"finals_agree\": true"; "boxed_heap_bytes";
      "largest_cell_flat_over_boxed_speedup"; "\"all_finals_agree\": true" ];
  (* The served path (service, durability, cluster) is perfbench's to
     measure; its sections are not run here. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "record omits %S" needle)
        false (contains ~needle s))
    [ "counter_throughput"; "maxreg_throughput"; "\"fastpath\"";
      "\"service\""; "\"service_io\""; "never-every-op";
      "\"service_io_scale\""; "\"service_cluster\"";
      "\"service_cluster_comms\""; "\"service_durability\"" ]

let suite =
  [ ("json basic", `Quick, test_json_basic);
    ("json escaping", `Quick, test_json_escaping);
    ("json floats", `Quick, test_json_floats);
    ("json atomic write", `Quick, test_json_atomic_write);
    ("pipeline smoke", `Quick, test_pipeline_smoke) ]

let () = Alcotest.run "bench_smoke" [ ("bench_smoke", suite) ]
