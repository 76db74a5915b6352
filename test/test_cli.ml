(* Subprocess tests of the approx_cli driver: an unknown (or missing)
   subcommand must print usage to stderr and exit 2, while valid
   invocations keep working. *)

let binary = "../bin/approx_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the CLI with [args]; return (exit status, stdout, stderr). *)
let run args =
  let out_path = Filename.temp_file "approx_cli_out" ".txt" in
  let err_path = Filename.temp_file "approx_cli_err" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out_path with Sys_error _ -> ());
      (try Sys.remove err_path with Sys_error _ -> ()))
    (fun () ->
      let fd_out =
        Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let fd_err =
        Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let pid =
        Unix.create_process binary
          (Array.of_list (binary :: args))
          Unix.stdin fd_out fd_err
      in
      Unix.close fd_out;
      Unix.close fd_err;
      let _, status = Unix.waitpid [] pid in
      (status, read_file out_path, read_file err_path))

let exit_code = function
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n -> Alcotest.fail (Printf.sprintf "killed by signal %d" n)
  | Unix.WSTOPPED n -> Alcotest.fail (Printf.sprintf "stopped by signal %d" n)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_unknown_subcommand () =
  let status, out, err = run [ "frobnicate" ] in
  Alcotest.(check int) "exit code 2" 2 (exit_code status);
  Alcotest.(check string) "nothing on stdout" "" out;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "stderr mentions %S" needle)
        true
        (contains ~needle err))
    [ "unknown command 'frobnicate'"; "usage: approx_cli COMMAND";
      "serve"; "loadgen"; "stats"; "bench" ]

let test_missing_subcommand () =
  let status, _, err = run [] in
  Alcotest.(check int) "exit code 2" 2 (exit_code status);
  Alcotest.(check bool) "stderr shows usage" true
    (contains ~needle:"usage: approx_cli COMMAND" err);
  Alcotest.(check bool) "stderr names the problem" true
    (contains ~needle:"missing command" err)

let test_unknown_with_options () =
  (* Options after the bogus command must not rescue it. *)
  let status, _, err = run [ "definitely-not-a-command"; "--ops"; "5" ] in
  Alcotest.(check int) "exit code 2" 2 (exit_code status);
  Alcotest.(check bool) "stderr shows usage" true
    (contains ~needle:"usage: approx_cli COMMAND" err)

let test_known_subcommand_still_works () =
  let status, out, err =
    run [ "counter"; "-n"; "2"; "-k"; "2"; "--ops"; "16"; "--seed"; "3" ]
  in
  Alcotest.(check int) "exit code 0" 0 (exit_code status);
  Alcotest.(check bool) "produced output" true (String.length out > 0);
  Alcotest.(check string) "stderr clean" "" err

let test_help_still_works () =
  let status, out, _ = run [ "--help" ] in
  Alcotest.(check int) "--help exits 0" 0 (exit_code status);
  Alcotest.(check bool) "help mentions commands" true
    (contains ~needle:"COMMAND" out)

let test_bad_poller_value () =
  let status, _, err =
    run [ "serve"; "--poller"; "kqueue"; "--duration"; "0.1" ]
  in
  (* cmdliner's reserved exit code for CLI parse errors. *)
  Alcotest.(check int) "bogus backend rejected at parse time" 124
    (exit_code status);
  Alcotest.(check bool) "stderr names the option" true
    (contains ~needle:"poller" err);
  Alcotest.(check bool) "stderr lists the valid backends" true
    (contains ~needle:"'auto', 'epoll' or 'select'" err)

(* The shard task queue and the per-connection pending bound are gone
   with the BUSY path: their flags are unknown options now, rejected
   at parse time like any other. *)
let test_removed_serve_flags () =
  List.iter
    (fun flag ->
      let status, _, err = run [ "serve"; flag; "4"; "--duration"; "0.1" ] in
      Alcotest.(check int) (flag ^ " rejected at parse time") 124
        (exit_code status);
      Alcotest.(check bool) "stderr names the option" true
        (contains ~needle:flag err))
    [ "--queue"; "--pending" ]

(* The fsync policy text is validated before anything starts: a
   non-positive record count is a usage error, not a parse error. *)
let test_bad_fsync_value () =
  let status, out, err =
    run [ "serve"; "--fsync"; "every-n-records:0"; "--duration"; "0.1" ]
  in
  Alcotest.(check int) "exit code 2" 2 (exit_code status);
  Alcotest.(check string) "nothing on stdout" "" out;
  Alcotest.(check bool) "stderr names the option" true
    (contains ~needle:"--fsync" err)

(* A short-lived serve on each explicitly selectable backend: select
   everywhere; epoll must either run (Linux build) or be refused with
   exit 2 and a clear message — never a crash. *)
let test_poller_selection () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_cli_poller_%d.sock" (Unix.getpid ()))
  in
  let serve p =
    run
      [ "serve"; "--unix"; sock; "--poller"; p; "--shards"; "1";
        "--duration"; "0.2" ]
  in
  let status, out, err = serve "select" in
  Alcotest.(check int) "select serve exits 0" 0 (exit_code status);
  Alcotest.(check bool) "banner reports poller=select" true
    (contains ~needle:"poller=select" out);
  Alcotest.(check string) "stderr clean" "" err;
  let status, out, err = serve "epoll" in
  (match exit_code status with
   | 0 ->
     Alcotest.(check bool) "banner reports poller=epoll" true
       (contains ~needle:"poller=epoll" out)
   | 2 ->
     Alcotest.(check bool) "refusal names the missing backend" true
       (contains ~needle:"epoll" err)
   | n -> Alcotest.fail (Printf.sprintf "epoll serve exited %d" n))

let () =
  Alcotest.run "cli"
    [ ("exit codes",
       [ ("unknown subcommand exits 2 with usage", `Quick,
          test_unknown_subcommand);
         ("missing subcommand exits 2 with usage", `Quick,
          test_missing_subcommand);
         ("unknown subcommand with options exits 2", `Quick,
          test_unknown_with_options);
         ("known subcommand still works", `Quick,
          test_known_subcommand_still_works);
         ("--help still works", `Quick, test_help_still_works) ]);
      ("poller flag",
       [ ("bad --poller value exits 2", `Quick, test_bad_poller_value);
         ("serve runs under each selectable backend", `Quick,
          test_poller_selection) ]);
      ("serve flags",
       [ ("--queue and --pending are unknown", `Quick,
          test_removed_serve_flags);
         ("bad --fsync value exits 2", `Quick, test_bad_fsync_value) ])
    ]
