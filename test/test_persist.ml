(* The durability plane in isolation: qcheck roundtrips for the entry
   codec, the WAL and the snapshot format; the torn-tail property (any
   byte-truncation of the log replays a clean prefix, never an error);
   snapshot+log recovery merge; the zero-allocation warm append path;
   and a deterministic kill -9 chaos test through the real server
   binary. *)

let check = Alcotest.check

module D = Persist.Delta
module O = Persist.Obuf

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_name =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 24))

let gen_delta =
  QCheck.Gen.(
    frequency
      [ (3,
         map
           (fun l -> D.Counter (Array.of_list l))
           (list_size (int_range 1 8) (int_range 0 1_000_000)));
        (1, map (fun v -> D.Max v) (int_range 0 1_000_000_000)) ])

let gen_entries ~min ~max =
  QCheck.Gen.(list_size (int_range min max) (pair gen_name gen_delta))

let print_entries es =
  String.concat "; "
    (List.map (fun (n, d) -> Printf.sprintf "%s=%s" n (D.to_string d)) es)

let arb_entries ~min ~max =
  QCheck.make ~print:print_entries (gen_entries ~min ~max)

let entry_equal (n1, d1) (n2, d2) = n1 = n2 && D.equal d1 d2

let entries_equal a b =
  List.length a = List.length b && List.for_all2 entry_equal a b

(* Fresh private directory per property case; the contents are flat
   (wal.log, snapshot.dat, rename temps). *)
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "approx_persist_test_%d_%d" (Unix.getpid ()) !dir_counter)

let rm_dir dir =
  (match Sys.readdir dir with
   | entries ->
     Array.iter
       (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
       entries
   | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_dir dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Codec roundtrip                                                     *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec entry roundtrip"
    (arb_entries ~min:0 ~max:20)
    (fun entries ->
      let buf = O.create () in
      List.iter (Persist.Codec.add_entry buf) entries;
      let b = O.bytes buf and stop = O.length buf in
      let rec parse acc pos =
        if pos >= stop then List.rev acc
        else
          match Persist.Codec.parse_entry b ~pos ~stop with
          | None -> QCheck.Test.fail_report "parse failed mid-buffer"
          | Some (e, next) -> parse (e :: acc) next
      in
      let parsed = parse [] 0 in
      (* entry_len must agree with what add_entry produced. *)
      let expected_len =
        List.fold_left (fun acc e -> acc + Persist.Codec.entry_len e) 0 entries
      in
      entries_equal entries parsed && expected_len = stop)

(* The one copy of the frame-header readers the WAL scan, its
   truncation and the snapshot loader share. *)
let test_codec_byte_helpers =
  QCheck.Test.make ~count:500 ~name:"codec byte helpers read Obuf writes"
    QCheck.(pair (int_bound 0xFFFF_FFFF) int)
    (fun (u, i) ->
      let buf = O.create () in
      O.add_u8 buf 0xAB;
      O.add_i32_be buf u;
      O.add_i64_be buf i;
      let b = O.bytes buf in
      Persist.Codec.get_u32 b 1 = u && Persist.Codec.get_i64 b 5 = i)

(* ------------------------------------------------------------------ *)
(* WAL roundtrip and torn tail                                         *)
(* ------------------------------------------------------------------ *)

let write_wal dir entries =
  let wal =
    Persist.Wal.open_ ~dir ~fsync:Persist.Wal.Never
      ~scan:(Persist.Wal.scan ~dir)
  in
  List.iter (Persist.Wal.append wal) entries;
  Persist.Wal.flush wal;
  Persist.Wal.close wal

let test_wal_roundtrip =
  QCheck.Test.make ~count:60 ~name:"WAL write/scan roundtrip"
    (arb_entries ~min:0 ~max:20)
    (fun entries ->
      with_dir (fun dir ->
          write_wal dir entries;
          let s = Persist.Wal.scan ~dir in
          entries_equal entries s.Persist.Wal.s_entries
          && s.Persist.Wal.s_base = 0
          && s.Persist.Wal.s_next = List.length entries
          && not s.Persist.Wal.s_torn))

let is_prefix_of shorter longer =
  List.length shorter <= List.length longer
  && List.for_all2 entry_equal shorter
       (List.filteri (fun i _ -> i < List.length shorter) longer)

let test_wal_torn_tail =
  QCheck.Test.make ~count:100
    ~name:"byte-truncated WAL replays a prefix, never errors"
    QCheck.(
      make
        ~print:(fun (es, f) ->
          Printf.sprintf "(%s, cut=%f)" (print_entries es) f)
        Gen.(pair (gen_entries ~min:1 ~max:12) (float_bound_inclusive 1.0)))
    (fun (entries, frac) ->
      with_dir (fun dir ->
          write_wal dir entries;
          let path = Filename.concat dir "wal.log" in
          let full = (Unix.stat path).Unix.st_size in
          let cut = int_of_float (frac *. float_of_int full) in
          let cut = if cut >= full then full - 1 else cut in
          Unix.truncate path (max 0 cut);
          let s = Persist.Wal.scan ~dir in
          (* Any cut strictly inside the file yields a clean prefix of
             the original records; recovery composes on top without
             raising either. *)
          let r = Persist.Recovery.run ~dir in
          is_prefix_of s.Persist.Wal.s_entries entries
          && r.Persist.Recovery.r_replayed_records
             = List.length s.Persist.Wal.s_entries))

let test_wal_truncate_upto () =
  with_dir (fun dir ->
      let entries =
        List.init 10 (fun i ->
            (Printf.sprintf "o%d" i, D.Counter [| i; i + 1 |]))
      in
      let wal =
        Persist.Wal.open_ ~dir ~fsync:Persist.Wal.Never
          ~scan:(Persist.Wal.scan ~dir)
      in
      List.iter (Persist.Wal.append wal) entries;
      Persist.Wal.flush wal;
      check Alcotest.int "next index" 10 (Persist.Wal.next_index wal);
      Persist.Wal.truncate_upto wal 6;
      Persist.Wal.append wal ("tail", D.Max 99);
      Persist.Wal.flush wal;
      Persist.Wal.close wal;
      let s = Persist.Wal.scan ~dir in
      check Alcotest.int "base after truncation" 6 s.Persist.Wal.s_base;
      check Alcotest.int "next after truncation" 11 s.Persist.Wal.s_next;
      check Alcotest.bool "not torn" false s.Persist.Wal.s_torn;
      check Alcotest.bool "surviving records"
        true
        (entries_equal s.Persist.Wal.s_entries
           (List.filteri (fun i _ -> i >= 6) entries @ [ ("tail", D.Max 99) ])))

(* A rotation whose rewrite fails to fsync must not replace the live
   log: wal.log.tmp is a symlink to /dev/null, where fsync fails with
   EINVAL. The old log stays a regular file holding every record, the
   failure is counted, and the next rotation (the symlink is gone with
   the discarded temp file) succeeds. *)
let test_wal_truncate_fsync_error () =
  with_dir (fun dir ->
      let entries =
        List.init 10 (fun i -> (Printf.sprintf "o%d" i, D.Max i))
      in
      let wal =
        Persist.Wal.open_ ~dir ~fsync:Persist.Wal.Never
          ~scan:(Persist.Wal.scan ~dir)
      in
      List.iter (Persist.Wal.append wal) entries;
      Persist.Wal.flush wal;
      let log = Filename.concat dir "wal.log" in
      Unix.symlink "/dev/null" (log ^ ".tmp");
      Persist.Wal.truncate_upto wal 6;
      check Alcotest.bool "wal.log still a regular file" true
        ((Unix.lstat log).Unix.st_kind = Unix.S_REG);
      let st = Persist.Wal.stats wal in
      check Alcotest.int "failure counted" 1 st.Persist.Wal.fsync_errors;
      check Alcotest.int "no truncation" 0 st.Persist.Wal.truncations;
      let s = Persist.Wal.scan ~dir in
      check Alcotest.int "base kept" 0 s.Persist.Wal.s_base;
      check Alcotest.bool "every record kept" true
        (entries_equal s.Persist.Wal.s_entries entries);
      Persist.Wal.truncate_upto wal 6;
      Persist.Wal.close wal;
      let s = Persist.Wal.scan ~dir in
      check Alcotest.int "retry rotates the base" 6 s.Persist.Wal.s_base;
      check Alcotest.bool "records past the cut" true
        (entries_equal s.Persist.Wal.s_entries
           (List.filteri (fun i _ -> i >= 6) entries)))

(* The fsync policies' accounting: [fsyncs] are syncs that ran,
   [fsyncs_deferred] flushes that wrote records but skipped the sync,
   [fsync_records_covered] the records those syncs made durable. *)
let wal_policy_stats ~fsync f =
  with_dir (fun dir ->
      let wal = Persist.Wal.open_ ~dir ~fsync ~scan:(Persist.Wal.scan ~dir) in
      f wal;
      Persist.Wal.stats wal)

let append_n wal n =
  for i = 1 to n do
    Persist.Wal.append wal (Printf.sprintf "c%d" i, D.Max i)
  done

let check_syncs label (st : Persist.Wal.stats) ~fsyncs ~deferred ~covered =
  check Alcotest.int (label ^ ": fsyncs") fsyncs st.Persist.Wal.fsyncs;
  check Alcotest.int (label ^ ": deferred") deferred
    st.Persist.Wal.fsyncs_deferred;
  check Alcotest.int (label ^ ": covered") covered
    st.Persist.Wal.fsync_records_covered

let test_wal_every_n () =
  let after_close =
    wal_policy_stats ~fsync:(Persist.Wal.Every_n 4) (fun wal ->
        append_n wal 3;
        Persist.Wal.flush wal;
        check_syncs "3 of 4" (Persist.Wal.stats wal) ~fsyncs:0 ~deferred:1
          ~covered:0;
        append_n wal 1;
        Persist.Wal.flush wal;
        check_syncs "4 of 4" (Persist.Wal.stats wal) ~fsyncs:1 ~deferred:1
          ~covered:4;
        Persist.Wal.close wal)
  in
  check_syncs "close" after_close ~fsyncs:2 ~deferred:1 ~covered:4

let test_wal_interval () =
  let after_close =
    wal_policy_stats ~fsync:(Persist.Wal.Interval_ms 60_000) (fun wal ->
        append_n wal 2;
        Persist.Wal.flush wal;
        check_syncs "first flush" (Persist.Wal.stats wal) ~fsyncs:1
          ~deferred:0 ~covered:2;
        append_n wal 2;
        Persist.Wal.flush wal;
        check_syncs "second flush" (Persist.Wal.stats wal) ~fsyncs:1
          ~deferred:1 ~covered:2;
        Persist.Wal.close wal)
  in
  check_syncs "close" after_close ~fsyncs:2 ~deferred:1 ~covered:4

let test_wal_never_close_syncs () =
  let after_close =
    wal_policy_stats ~fsync:Persist.Wal.Never (fun wal ->
        append_n wal 3;
        Persist.Wal.flush wal;
        check_syncs "flush" (Persist.Wal.stats wal) ~fsyncs:0 ~deferred:0
          ~covered:0;
        Persist.Wal.close wal)
  in
  check_syncs "close" after_close ~fsyncs:1 ~deferred:0 ~covered:3

(* A disk that refuses fsync: wal.log is a symlink to /dev/null, where
   fsync fails with EINVAL. The failure is no sync: it credits no
   records, and the next flush retries it. *)
let test_wal_fsync_error () =
  with_dir (fun dir ->
      Unix.symlink "/dev/null" (Filename.concat dir "wal.log");
      let wal =
        Persist.Wal.open_ ~dir ~fsync:(Persist.Wal.Every_n 1)
          ~scan:(Persist.Wal.scan ~dir)
      in
      append_n wal 1;
      Persist.Wal.flush wal;
      let st = Persist.Wal.stats wal in
      check_syncs "failed" st ~fsyncs:0 ~deferred:0 ~covered:0;
      check Alcotest.int "failed: errors" 1 st.Persist.Wal.fsync_errors;
      Persist.Wal.flush wal;
      check Alcotest.int "retried: errors" 2
        (Persist.Wal.stats wal).Persist.Wal.fsync_errors;
      Persist.Wal.close wal)

let test_wal_policy_text () =
  List.iter
    (fun p ->
      let text = Persist.Wal.policy_to_string p in
      Alcotest.(check bool) (text ^ " round-trips") true
        (Persist.Wal.policy_of_string text = Some p))
    [ Persist.Wal.Never; Persist.Wal.Every_n 16; Persist.Wal.Interval_ms 5 ]

(* ------------------------------------------------------------------ *)
(* Snapshot roundtrip and recovery merge                               *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip =
  QCheck.Test.make ~count:60 ~name:"snapshot write/load roundtrip"
    QCheck.(
      make
        ~print:(fun (es, i) ->
          Printf.sprintf "(%s, idx=%d)" (print_entries es) i)
        Gen.(pair (gen_entries ~min:0 ~max:20) (int_range 0 1_000_000)))
    (fun (entries, wal_index) ->
      with_dir (fun dir ->
          Persist.Snapshot.write ~dir ~wal_index entries;
          match Persist.Snapshot.load ~dir with
          | None -> false
          | Some (loaded, idx) ->
            idx = wal_index && entries_equal entries loaded))

let test_snapshot_corrupt_ignored () =
  with_dir (fun dir ->
      Persist.Snapshot.write ~dir ~wal_index:3
        [ ("c", D.Counter [| 1; 2 |]) ];
      let path = Persist.Snapshot.path dir in
      (* Flip a payload byte: the frame CRC must reject the file. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      let size = (Unix.fstat fd).Unix.st_size in
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
      Unix.close fd;
      check Alcotest.bool "corrupt snapshot ignored" true
        (Persist.Snapshot.load ~dir = None);
      (* Recovery still runs on the WAL alone. *)
      let r = Persist.Recovery.run ~dir in
      check Alcotest.bool "snapshot not loaded" false
        r.Persist.Recovery.r_snapshot_loaded)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A full disk: the temp file is /dev/full, so the write fails with
   ENOSPC. The fd must be closed and the previous snapshot must still
   load. *)
let test_snapshot_enospc () =
  with_dir (fun dir ->
      let before = [ ("c", D.Counter [| 1; 2 |]) ] in
      Persist.Snapshot.write ~dir ~wal_index:3 before;
      Unix.symlink "/dev/full" (Persist.Snapshot.path dir ^ ".tmp");
      let fds = open_fds () in
      (match
         Persist.Snapshot.write ~dir ~wal_index:9 [ ("c", D.Counter [| 7 |]) ]
       with
       | () -> Alcotest.fail "write to /dev/full succeeded"
       | exception Unix.Unix_error (ENOSPC, _, _) -> ());
      check Alcotest.int "no fd leaked" fds (open_fds ());
      match Persist.Snapshot.load ~dir with
      | Some (loaded, 3) ->
        check Alcotest.bool "previous snapshot intact" true
          (entries_equal before loaded)
      | _ -> Alcotest.fail "previous snapshot lost")

(* A disk that refuses fsync: the temp file is /dev/null, where fsync
   fails with EINVAL. The write raises, and the unsynced temp is never
   renamed over the previous snapshot. *)
let test_snapshot_fsync_error () =
  with_dir (fun dir ->
      let before = [ ("c", D.Counter [| 1; 2 |]) ] in
      Persist.Snapshot.write ~dir ~wal_index:3 before;
      Unix.symlink "/dev/null" (Persist.Snapshot.path dir ^ ".tmp");
      let fds = open_fds () in
      (match
         Persist.Snapshot.write ~dir ~wal_index:9 [ ("c", D.Counter [| 7 |]) ]
       with
       | () -> Alcotest.fail "unsynced snapshot reported as written"
       | exception Unix.Unix_error (EINVAL, _, _) -> ());
      check Alcotest.int "no fd leaked" fds (open_fds ());
      match Persist.Snapshot.load ~dir with
      | Some (loaded, 3) ->
        check Alcotest.bool "previous snapshot intact" true
          (entries_equal before loaded)
      | _ -> Alcotest.fail "previous snapshot lost")

let test_recovery_merges_snapshot_and_log () =
  with_dir (fun dir ->
      Persist.Snapshot.write ~dir ~wal_index:1
        [ ("c0", D.Counter [| 5; 0 |]); ("m", D.Max 10) ];
      write_wal dir
        [ ("c0", D.Counter [| 2; 7 |]); ("m", D.Max 4);
          ("new", D.Counter [| 3 |]) ];
      let r = Persist.Recovery.run ~dir in
      check Alcotest.bool "snapshot loaded" true
        r.Persist.Recovery.r_snapshot_loaded;
      check Alcotest.int "replayed records" 3
        r.Persist.Recovery.r_replayed_records;
      let find name = List.assoc name r.Persist.Recovery.r_state in
      check Alcotest.bool "counter is pointwise max" true
        (D.equal (find "c0") (D.Counter [| 5; 7 |]));
      check Alcotest.bool "max register joins" true
        (D.equal (find "m") (D.Max 10));
      check Alcotest.bool "log-only object present" true
        (D.equal (find "new") (D.Counter [| 3 |])))

(* ------------------------------------------------------------------ *)
(* Warm append path allocates nothing                                  *)
(* ------------------------------------------------------------------ *)

(* [Gc.minor_words] itself boxes its float result, so allow a small
   slack; any per-record allocation over [ops] iterations would blow
   far past it. *)
let assert_no_alloc label ~ops f =
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    f i
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 256.0 then
    Alcotest.failf "%s allocated %.0f minor words over %d ops" label delta ops

let test_warm_append_no_alloc () =
  with_dir (fun dir ->
      let wal =
        Persist.Wal.open_ ~dir ~fsync:Persist.Wal.Never
          ~scan:(Persist.Wal.scan ~dir)
      in
      Fun.protect
        ~finally:(fun () -> Persist.Wal.close wal)
        (fun () ->
          let entry = ("warmobj", D.Counter [| 1; 2; 3; 4 |]) in
          (* Warm: grow the staging buffer to steady state. *)
          for _ = 1 to 64 do
            Persist.Wal.append wal entry;
            Persist.Wal.flush wal
          done;
          assert_no_alloc "append+flush (fsync never)" ~ops:10_000 (fun _ ->
              Persist.Wal.append wal entry;
              Persist.Wal.flush wal)))

(* ------------------------------------------------------------------ *)
(* Deterministic kill -9 chaos through the real server binary          *)
(* ------------------------------------------------------------------ *)

let binary = "../bin/approx_cli.exe"

let start_server ~dir ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process binary
      [| binary; "serve"; "--unix"; sock; "--shards"; "2"; "--io-domains";
         "1"; "--duration"; "60"; "--data-dir"; dir; "--fsync"; "never";
         "--snapshot-interval-ms"; "100" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  pid

let wait_for_socket sock ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Service.Client.connect (Unix.ADDR_UNIX sock) with
    | c ->
      Service.Client.close c;
      true
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () >= deadline then false
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

let scan_int json key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nl = String.length needle and hl = String.length json in
  let rec find i =
    if i + nl > hl then None
    else if String.sub json i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < hl
      && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    int_of_string_opt (String.sub json start (!stop - start))

(* The server counts a failed snapshot tick in STATS and keeps
   serving. *)
let test_snapshot_errors_counted () =
  with_dir (fun dir ->
      Unix.symlink "/dev/full" (Persist.Snapshot.path dir ^ ".tmp");
      let config =
        { Service.Server.default_config with
          data_dir = Some dir;
          snapshot_interval_ms = 10 }
      in
      let srv =
        Service.Server.start ~config ~listen:(`Unix (dir ^ ".sock")) ()
      in
      Fun.protect
        ~finally:(fun () -> Service.Server.stop srv)
        (fun () ->
          let d = Service.Metrics.durability (Service.Server.metrics srv) in
          let deadline = Unix.gettimeofday () +. 5.0 in
          while
            d.Service.Metrics.d_snapshot_errors < 2
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          Alcotest.(check bool) "failed ticks counted" true
            (d.Service.Metrics.d_snapshot_errors >= 2);
          check Alcotest.int "no snapshot written" 0
            d.Service.Metrics.d_snapshots;
          let c = Service.Client.connect (Service.Server.sockaddr srv) in
          Fun.protect
            ~finally:(fun () -> Service.Client.close c)
            (fun () ->
              ignore (Service.Client.inc c "c0");
              let json = Service.Client.stats_json c in
              Alcotest.(check bool) "STATS shows snapshot_errors" true
                (match scan_int json "snapshot_errors" with
                 | Some n -> n >= 2
                 | None -> false))))

(* A server whose WAL cannot be fsynced reports it in STATS. *)
let test_fsync_errors_counted () =
  with_dir (fun dir ->
      Unix.symlink "/dev/null" (Filename.concat dir "wal.log");
      let config =
        { Service.Server.default_config with
          data_dir = Some dir;
          fsync = Persist.Wal.Every_n 1;
          snapshot_interval_ms = 0 }
      in
      let srv =
        Service.Server.start ~config ~listen:(`Unix (dir ^ ".sock")) ()
      in
      Fun.protect
        ~finally:(fun () -> Service.Server.stop srv)
        (fun () ->
          let c = Service.Client.connect (Service.Server.sockaddr srv) in
          Fun.protect
            ~finally:(fun () -> Service.Client.close c)
            (fun () ->
              let errors () =
                scan_int (Service.Client.stats_json c) "fsync_errors"
              in
              let deadline = Unix.gettimeofday () +. 5.0 in
              while
                (match errors () with Some n -> n < 1 | None -> true)
                && Unix.gettimeofday () < deadline
              do
                for _ = 1 to 50 do
                  ignore (Service.Client.inc c "c0")
                done
              done;
              Alcotest.(check bool) "STATS shows fsync_errors" true
                (match errors () with Some n -> n >= 1 | None -> false);
              check Alcotest.int "no fsync succeeded" 0
                (Service.Metrics.durability (Service.Server.metrics srv))
                  .Service.Metrics.d_fsyncs)))

let test_kill9_restart_replays () =
  with_dir (fun dir ->
      let sock = dir ^ ".sock" in
      let pid = ref (start_server ~dir ~sock) in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore
            (try Unix.waitpid [] !pid
             with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
          try Unix.unlink sock with Unix.Unix_error _ -> ())
        (fun () ->
          Alcotest.(check bool)
            "server up" true
            (wait_for_socket sock ~timeout_s:10.0);
          (* A pure-INC burst whose acks are all counted. *)
          let r =
            Service.Loadgen.run ~addrs:[ Unix.ADDR_UNIX sock ]
              { Service.Loadgen.default_config with
                connections = 2;
                ops_per_connection = 4_000;
                read_permille = 0;
                seed = 7 }
          in
          check Alcotest.int "burst errors" 0 r.Service.Loadgen.errors;
          let acked = r.Service.Loadgen.ok in
          (* The chaos: no shutdown path runs at all. *)
          (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore
            (try Unix.waitpid [] !pid
             with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
          pid := start_server ~dir ~sock;
          Alcotest.(check bool)
            "server back up" true
            (wait_for_socket sock ~timeout_s:10.0);
          let stats =
            let c = Service.Client.connect (Unix.ADDR_UNIX sock) in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () -> Service.Client.stats_json c)
          in
          let replayed =
            Option.value ~default:0 (scan_int stats "recovery_replayed_records")
          in
          let snapshot_loaded =
            let needle = "\"recovery_snapshot_loaded\": true" in
            let nl = String.length needle and hl = String.length stats in
            let rec go i =
              i + nl <= hl
              && (String.sub stats i nl = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool)
            "state recovered from disk" true
            (replayed > 0 || snapshot_loaded);
          (* Sum the recovered counter contributions: every acked INC
             must be covered within the factor-k envelope (default
             specs run at k = 4). *)
          let recovered = ref 0 in
          let pos = ref 0 in
          let hl = String.length stats in
          let needle = "\"repl_own_total\": " in
          let nl = String.length needle in
          while !pos + nl <= hl do
            if String.sub stats !pos nl = needle then begin
              match scan_int (String.sub stats !pos (min 64 (hl - !pos)))
                      "repl_own_total"
              with
              | Some v -> recovered := !recovered + v
              | None -> ()
            end;
            incr pos
          done;
          Alcotest.(check bool)
            (Printf.sprintf
               "recovered within envelope (4 * %d >= %d acked)" !recovered
               acked)
            true
            (4 * !recovered >= acked);
          (* A follow-up burst on the recovered server passes its own
             self-check (no errors, no accuracy violations). *)
          let r2 =
            Service.Loadgen.run ~addrs:[ Unix.ADDR_UNIX sock ]
              { Service.Loadgen.default_config with
                connections = 2;
                ops_per_connection = 2_000;
                seed = 8 }
          in
          check Alcotest.int "follow-up errors" 0 r2.Service.Loadgen.errors;
          let stats2 =
            let c = Service.Client.connect (Unix.ADDR_UNIX sock) in
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () -> Service.Client.stats_json c)
          in
          check Alcotest.int "no accuracy violations" 0
            (Option.value ~default:(-1)
               (scan_int stats2 "acc_violations_total"))))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Byte copy of the flat data dir, as a crash would leave it. *)
let copy_files ~src ~dst =
  Array.iter
    (fun f ->
      let data = read_file (Filename.concat src f) in
      let oc = open_out_bin (Filename.concat dst f) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data))
    (Sys.readdir src)

(* Acks leave only after the cycle's WAL flush: once every INC of a
   pipelined burst is acked, a copy of the live server's data dir must
   already recover each counter within the envelope — no shutdown
   path, snapshot or later flush may be needed to cover an ack.
   Periodic snapshots are off so the copy never races a log
   rotation. *)
let test_acks_follow_wal_flush () =
  with_dir (fun dir ->
      with_dir (fun copy ->
          let config =
            { Service.Server.default_config with
              data_dir = Some dir;
              snapshot_interval_ms = 0 }
          in
          let srv =
            Service.Server.start ~config ~listen:(`Unix (dir ^ ".sock")) ()
          in
          Fun.protect
            ~finally:(fun () -> Service.Server.stop srv)
            (fun () ->
              let names = [| "c0"; "c1"; "c2"; "c3" |] in
              let acked = Array.make 4 0 in
              let c = Service.Client.connect (Service.Server.sockaddr srv) in
              let total = 5_000 and window = 50 in
              let id = ref 0 in
              while !id < total do
                for j = 0 to window - 1 do
                  Service.Client.send c
                    (Service.Wire.Inc
                       { id = !id + j; name = names.((!id + j) mod 4) })
                done;
                Service.Client.flush c;
                for _ = 1 to window do
                  match Service.Client.recv c with
                  | Service.Wire.Value { id = rid; _ } ->
                    acked.(rid mod 4) <- acked.(rid mod 4) + 1
                  | _ -> Alcotest.fail "INC not acked"
                done;
                id := !id + window
              done;
              Service.Client.close c;
              check Alcotest.int "every INC acked" total
                (Array.fold_left ( + ) 0 acked);
              copy_files ~src:dir ~dst:copy;
              let recovered =
                (Persist.Recovery.run ~dir:copy).Persist.Recovery.r_state
              in
              Array.iteri
                (fun i name ->
                  let v =
                    match List.assoc_opt name recovered with
                    | Some d -> D.value d
                    | None -> 0
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: 4 * %d recovered >= %d acked" name v
                       acked.(i))
                    true
                    (4 * v >= acked.(i)))
                names)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "persist"
    [ ("codec",
       List.map QCheck_alcotest.to_alcotest
         [ test_codec_roundtrip; test_codec_byte_helpers ]);
      ("wal",
       [ QCheck_alcotest.to_alcotest test_wal_roundtrip;
         QCheck_alcotest.to_alcotest test_wal_torn_tail;
         ("truncate_upto rotates the base", `Quick, test_wal_truncate_upto);
         ("Every_n 4 syncs on the 4th record", `Quick, test_wal_every_n);
         ("Interval_ms defers the 2nd flush", `Quick, test_wal_interval);
         ("close syncs under Never", `Quick, test_wal_never_close_syncs);
         ("failed fsync is not a sync", `Quick, test_wal_fsync_error);
         ("failed fsyncs counted in STATS", `Quick, test_fsync_errors_counted);
         ("fsync policy text round-trips", `Quick, test_wal_policy_text);
         ("unsynced rotation keeps the log", `Quick,
          test_wal_truncate_fsync_error) ]);
      ("snapshot",
       [ QCheck_alcotest.to_alcotest test_snapshot_roundtrip;
         ("corrupt snapshot is ignored", `Quick,
          test_snapshot_corrupt_ignored);
         ("ENOSPC write closes its fd", `Quick, test_snapshot_enospc);
         ("failed fsync keeps the old one", `Quick, test_snapshot_fsync_error);
         ("failed ticks counted in STATS", `Quick,
          test_snapshot_errors_counted) ]);
      ("recovery",
       [ ("snapshot + log merge", `Quick,
          test_recovery_merges_snapshot_and_log) ]);
      ("allocation",
       [ ("warm append+flush is alloc-free", `Quick,
          test_warm_append_no_alloc) ]);
      ("chaos",
       [ ("kill -9, restart, replay", `Quick, test_kill9_restart_replays);
         ("acked INCs are in the live log", `Quick,
          test_acks_follow_wal_flush) ])
    ]
