(* The replication plane: consistent-hash placement properties,
   qcheck laws for the mergeable delta representation (the gossip
   layer may deliver late, duplicated, reordered — merges must be
   commutative, associative, idempotent, and replay must never widen
   a replica past the cluster state), object-table merge semantics,
   the HELLO handshake gate, and an in-process 3-node cluster driven
   end to end through the cluster-aware client and loadgen with a
   node killed and restarted mid-test. *)

module Srv = Service.Server
module Cl = Service.Client
module W = Service.Wire
module D = Persist.Delta
module P = Service.Placement

let check = Alcotest.check

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_cluster_test_%d_%d.sock" (Unix.getpid ()) !n)

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let gen_name =
  QCheck.Gen.(
    int_range 1 32 >>= fun n ->
    string_size ~gen:(char_range 'a' 'z') (return n))

let prop_placement_deterministic =
  QCheck.Test.make ~count:300
    ~name:"same (nodes, replicas) -> same owners on every participant"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 8) (int_range 1 8) gen_name))
    (fun (nodes, replicas, name) ->
      let a = P.create ~nodes ~replicas in
      let b = P.create ~nodes ~replicas in
      P.owners a name = P.owners b name)

let prop_placement_owner_set =
  QCheck.Test.make ~count:300
    ~name:"owners: min(replicas, nodes) distinct in-range nodes"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 8) (int_range 1 8) gen_name))
    (fun (nodes, replicas, name) ->
      let p = P.create ~nodes ~replicas in
      let owners = P.owners p name in
      List.length owners = min replicas nodes
      && List.length (List.sort_uniq compare owners) = List.length owners
      && List.for_all (fun i -> i >= 0 && i < nodes) owners)

let prop_placement_hosts_agree =
  QCheck.Test.make ~count:300
    ~name:"hosts node name <-> node in owners name"
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 8) (int_range 1 8) gen_name))
    (fun (nodes, replicas, name) ->
      let p = P.create ~nodes ~replicas in
      let owners = P.owners p name in
      List.for_all
        (fun node -> P.hosts p ~node name = List.mem node owners)
        (List.init nodes Fun.id))

let test_placement_single_node () =
  let p = P.create ~nodes:1 ~replicas:3 in
  check Alcotest.(list int) "one node owns everything" [ 0 ]
    (P.owners p "anything");
  check Alcotest.int "replicas clamped to nodes" 1 (P.replicas p)

(* ------------------------------------------------------------------ *)
(* Delta merge laws                                                    *)
(* ------------------------------------------------------------------ *)

let gen_counter_pair_same_width =
  QCheck.Gen.(
    int_range 1 8 >>= fun w ->
    let vec = list_size (return w) (int_bound 1_000_000) in
    pair
      (map (fun l -> D.Counter (Array.of_list l)) vec)
      (map (fun l -> D.Counter (Array.of_list l)) vec))

let gen_delta_pair =
  QCheck.Gen.(
    oneof
      [ gen_counter_pair_same_width;
        pair
          (map (fun v -> D.Max v) (int_bound 1_000_000))
          (map (fun v -> D.Max v) (int_bound 1_000_000)) ])

let gen_delta_triple =
  QCheck.Gen.(
    gen_delta_pair >>= fun (a, b) ->
    gen_delta_pair >>= fun (c, _) ->
    match (a, c) with
    | D.Counter v, _ ->
      let w = Array.length v in
      map
        (fun l -> (a, b, D.Counter (Array.of_list l)))
        (list_size (return w) (int_bound 1_000_000))
    | D.Max _, _ -> map (fun v -> (a, b, D.Max v)) (int_bound 1_000_000))

let prop_merge_commutative =
  QCheck.Test.make ~count:500 ~name:"merge a b = merge b a"
    (QCheck.make gen_delta_pair) (fun (a, b) ->
      D.equal (D.merge a b) (D.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~count:500 ~name:"merge (merge a b) c = merge a (merge b c)"
    (QCheck.make gen_delta_triple) (fun (a, b, c) ->
      D.equal (D.merge (D.merge a b) c) (D.merge a (D.merge b c)))

let prop_merge_idempotent =
  QCheck.Test.make ~count:500 ~name:"merge a a = a, merge (merge a b) b = merge a b"
    (QCheck.make gen_delta_pair) (fun (a, b) ->
      D.equal (D.merge a a) a && D.equal (D.merge (D.merge a b) b) (D.merge a b))

(* Replayed, duplicated, reordered gossip never widens a replica past
   the cluster state: per-node histories are monotone snapshot
   sequences; merging ANY multiset of snapshots (duplicates and all)
   stays at or below the sum of final own totals — so a local read,
   which serves within k_local of the merged total, stays within
   k_local * k_staleness of the cluster-exact value. Delivering every
   final snapshot closes the gap exactly. *)
let gen_histories =
  QCheck.Gen.(
    int_range 1 5 >>= fun nodes ->
    let history node =
      list_size (int_range 1 6) (int_range 0 1000) >>= fun increments ->
      (* Monotone per-node snapshots of that node's own slot. *)
      let snaps =
        List.rev
          (snd
             (List.fold_left
                (fun (total, acc) d ->
                  let t = total + d in
                  let v = Array.make nodes 0 in
                  v.(node) <- t;
                  (t, D.Counter v :: acc))
                (0, []) increments))
      in
      return snaps
    in
    flatten_l (List.init nodes history) >>= fun hists ->
    (* A delivery schedule: indices into each history, with
       duplicates, in arbitrary order. *)
    list_size (int_range 0 20)
      (pair (int_bound (nodes - 1)) (int_bound 99))
    >>= fun picks -> return (nodes, hists, picks))

let prop_replay_never_overshoots =
  QCheck.Test.make ~count:300
    ~name:"duplicated/reordered replay <= cluster exact; full delivery = exact"
    (QCheck.make gen_histories) (fun (nodes, hists, picks) ->
      let finals = List.map (fun h -> List.nth h (List.length h - 1)) hists in
      let exact = List.fold_left (fun acc d -> acc + D.value d) 0 finals in
      let zero = D.Counter (Array.make nodes 0) in
      let deliver acc (node, i) =
        let h = List.nth hists node in
        D.merge acc (List.nth h (i mod List.length h))
      in
      let partial = List.fold_left deliver zero picks in
      let complete = List.fold_left D.merge partial finals in
      D.value partial <= exact && D.value complete = exact)

(* ------------------------------------------------------------------ *)
(* Object-table merge semantics                                        *)
(* ------------------------------------------------------------------ *)

let build_node ~node_id ~nodes =
  let metrics = Service.Metrics.create ~node_id ~nodes ~shards:1 ~io_domains:1 () in
  Service.Objects.build ~nodes ~node_id ~metrics ~shards:1
    (Service.Objects.default_specs ~counters:1 ~k:4)

(* The counter vector the gossip sender ships (own slot withheld while
   recovering), as a mergeable delta. *)
let gossip_export o =
  let v = Array.make (Service.Objects.nodes o) 0 in
  Service.Objects.export_counter_into o v;
  D.Counter v

let test_objects_merge_roundtrip () =
  let t0 = build_node ~node_id:0 ~nodes:2 in
  let t1 = build_node ~node_id:1 ~nodes:2 in
  let o0 = Option.get (Service.Objects.find t0 "c0") in
  let o1 = Option.get (Service.Objects.find t1 "c0") in
  for _ = 1 to 25 do
    ignore (Service.Objects.defer o0 ~via_add:false 1)
  done;
  Service.Objects.apply_pending o0 ~pid:0;
  ignore (Service.Objects.defer o1 ~via_add:true 10);
  Service.Objects.apply_pending o1 ~pid:0;
  check Alcotest.int "node0 own contribution" 25 (Service.Objects.own_total o0);
  check Alcotest.int "node0 known before merge" 25 (Service.Objects.known o0);
  let d0 = gossip_export o0 in
  Alcotest.(check bool) "merge accepted by node1" true
    (Service.Objects.merge_delta o1 d0);
  check Alcotest.int "node1 knows both contributions" 35
    (Service.Objects.known o1);
  check Alcotest.int "node1 own contribution untouched" 10
    (Service.Objects.own_total o1);
  Alcotest.(check bool) "duplicated delivery accepted" true
    (Service.Objects.merge_delta o1 d0);
  check Alcotest.int "known unchanged by the replay" 35
    (Service.Objects.known o1);
  (* Merge back the other way: node0 learns node1's slot. *)
  Alcotest.(check bool) "reverse merge accepted by node0" true
    (Service.Objects.merge_delta o0 (gossip_export o1));
  check Alcotest.int "both replicas converge" 35 (Service.Objects.known o0);
  (* Kind mismatch is a recorded reject, not a merge. *)
  Alcotest.(check bool) "kind mismatch rejected" false
    (Service.Objects.merge_delta o1 (Persist.Delta.Max 99));
  Alcotest.(check bool) "width mismatch rejected" false
    (Service.Objects.merge_delta o1 (Persist.Delta.Counter [| 1; 2; 3 |]))

let test_objects_boundary_flag () =
  let t0 = build_node ~node_id:0 ~nodes:2 in
  let o = Option.get (Service.Objects.find t0 "c0") in
  Alcotest.(check bool) "empty object is inside the boundary" false
    (Service.Objects.boundary_crossed o ~k_staleness:2);
  ignore (Service.Objects.defer o ~via_add:true 5);
  Service.Objects.apply_pending o ~pid:0;
  Alcotest.(check bool) "never-exported growth crosses" true
    (Service.Objects.boundary_crossed o ~k_staleness:2);
  ignore (Service.Objects.take_dirty o);
  Service.Objects.mark_exported o;
  Alcotest.(check bool) "just-exported state is clean" false
    (Service.Objects.boundary_crossed o ~k_staleness:2);
  ignore (Service.Objects.defer o ~via_add:true 4);
  Service.Objects.apply_pending o ~pid:0;
  Alcotest.(check bool) "sub-threshold growth stays inside (9 < 2*5)" false
    (Service.Objects.boundary_crossed o ~k_staleness:2);
  ignore (Service.Objects.defer o ~via_add:true 1);
  Service.Objects.apply_pending o ~pid:0;
  Alcotest.(check bool) "k_staleness-fold growth crosses (10 >= 2*5)" true
    (Service.Objects.boundary_crossed o ~k_staleness:2)

(* A restarted node must not reconcile its pre-crash contribution
   (echoed back by a peer) against post-restart increments by
   subtraction: during the recovery window the own slot is withheld
   from exports, the echo folds into the base by plain max, and acked
   post-restart increments ride on top untouched. *)
let test_objects_restart_recovery () =
  (* Pre-crash epoch: node0 had contributed 25, and node1 holds the
     echo of that slot. *)
  let t1 = build_node ~node_id:1 ~nodes:2 in
  let o1 = Option.get (Service.Objects.find t1 "c0") in
  let pre_crash = D.Counter [| 25; 0 |] in
  Alcotest.(check bool) "peer learned the pre-crash slot" true
    (Service.Objects.merge_delta o1 pre_crash);
  (* node0 restarts blank, armed for recovery. *)
  let t0 = build_node ~node_id:0 ~nodes:2 in
  let o0 = Option.get (Service.Objects.find t0 "c0") in
  Service.Objects.begin_recovery o0;
  Alcotest.(check bool) "recovery window open" true
    (Service.Objects.recovering o0);
  (* Clients keep writing through the window: applied and acked... *)
  for _ = 1 to 7 do
    ignore (Service.Objects.defer o0 ~via_add:false 1)
  done;
  Service.Objects.apply_pending o0 ~pid:0;
  check Alcotest.int "post-restart increments applied locally" 7
    (Service.Objects.own_total o0);
  (* ...but withheld from exports, so any echo stays pre-crash pure. *)
  (match gossip_export o0 with
   | D.Counter v ->
     check Alcotest.int "own slot withheld while recovering" 0 v.(0)
   | D.Max _ -> Alcotest.fail "counter exported a max delta");
  Alcotest.(check bool) "no eager kick while recovering" false
    (Service.Objects.boundary_crossed o0 ~k_staleness:2);
  (* The first own-slot echo recovers the base and closes the window;
     the acked increments are preserved on top of it. *)
  Alcotest.(check bool) "echo merged" true
    (Service.Objects.merge_delta o0 (gossip_export o1));
  Alcotest.(check bool) "recovery window closed" false
    (Service.Objects.recovering o0);
  check Alcotest.int "base + post-restart increments" 32
    (Service.Objects.own_total o0);
  (match gossip_export o0 with
   | D.Counter v ->
     check Alcotest.int "own slot exported after recovery" 32 v.(0)
   | D.Max _ -> Alcotest.fail "counter exported a max delta");
  (* A stale replay of the echo after the flip must not regress. *)
  Alcotest.(check bool) "stale echo replay accepted" true
    (Service.Objects.merge_delta o0 pre_crash);
  check Alcotest.int "replay does not regress own_total" 32
    (Service.Objects.own_total o0);
  (* Standalone nodes and non-counters never arm. *)
  let ts = build_node ~node_id:0 ~nodes:1 in
  let os = Option.get (Service.Objects.find ts "c0") in
  Service.Objects.begin_recovery os;
  Alcotest.(check bool) "standalone node never recovers" false
    (Service.Objects.recovering os);
  let tm = build_node ~node_id:0 ~nodes:2 in
  let om = Option.get (Service.Objects.find tm "kmaxreg") in
  Service.Objects.begin_recovery om;
  Alcotest.(check bool) "max register never recovers" false
    (Service.Objects.recovering om)

(* Compact dirty pushes omit the receiver's own slot, which the server
   rebuilds as -1: "the sender said nothing about me". During a
   recovery window that absence must not masquerade as a zero-valued
   echo and close the window early — only a real (>= 0) own-slot value
   may. Regression for exactly that confusion. *)
let test_objects_recovery_ignores_absent_own_slot () =
  let t0 = build_node ~node_id:0 ~nodes:2 in
  let o0 = Option.get (Service.Objects.find t0 "c0") in
  Service.Objects.begin_recovery o0;
  ignore (Service.Objects.defer o0 ~via_add:true 7);
  Service.Objects.apply_pending o0 ~pid:0;
  (* A sparse push carrying only the peer's slot: merged, but the
     window stays open and the own slot stays withheld. *)
  Alcotest.(check bool) "sparse push merged" true
    (Service.Objects.merge_delta o0 (D.Counter [| -1; 11 |]));
  Alcotest.(check bool) "absent own slot leaves the window open" true
    (Service.Objects.recovering o0);
  check Alcotest.int "peer slot learned" 18 (Service.Objects.known o0);
  (match gossip_export o0 with
   | D.Counter v ->
     check Alcotest.int "own slot still withheld" 0 v.(0)
   | D.Max _ -> Alcotest.fail "counter exported a max delta");
  (* A full-vector repair (own slot >= 0, here the pre-crash 25)
     recovers the base and closes the window. *)
  Alcotest.(check bool) "repair merged" true
    (Service.Objects.merge_delta o0 (D.Counter [| 25; 11 |]));
  Alcotest.(check bool) "real echo closes the window" false
    (Service.Objects.recovering o0);
  check Alcotest.int "base + post-restart increments" 32
    (Service.Objects.own_total o0)

(* ------------------------------------------------------------------ *)
(* Digest anti-entropy                                                 *)
(* ------------------------------------------------------------------ *)

(* The object-level reconciliation loop the DIGEST/DIGEST_ACK exchange
   drives over the wire: compare (fingerprint, total) summaries,
   repair exactly the objects that disagree with full-vector exports,
   and agree after one symmetric exchange. The exported total rides
   in every digest as the fingerprint-collision backstop — divergence
   is flagged when {e either} field disagrees, so the test's
   reconcile predicate mirrors the server's. *)
let test_objects_digest_exchange () =
  let build id =
    let metrics =
      Service.Metrics.create ~node_id:id ~nodes:2 ~shards:1 ~io_domains:1 ()
    in
    Service.Objects.build ~nodes:2 ~node_id:id ~metrics ~shards:1
      (Service.Objects.default_specs ~counters:3 ~k:4)
  in
  let t0 = build 0 and t1 = build 1 in
  let obj t name = Option.get (Service.Objects.find t name) in
  let bump t name d =
    let o = obj t name in
    ignore (Service.Objects.defer o ~via_add:true d);
    Service.Objects.apply_pending o ~pid:0
  in
  (* Diverge two of the counters (one per side); c2 stays identical. *)
  bump t0 "c0" 5;
  bump t1 "c1" 9;
  let differs name =
    Service.Objects.digest (obj t0 name)
    <> Service.Objects.digest (obj t1 name)
  in
  Alcotest.(check bool) "c0 digests disagree" true (differs "c0");
  Alcotest.(check bool) "c1 digests disagree" true (differs "c1");
  Alcotest.(check bool) "untouched c2 digests agree" false (differs "c2");
  (* One symmetric exchange: each side repairs only flagged objects. *)
  let repair src dst =
    let repaired = ref [] in
    Service.Objects.iter
      (fun o_src ->
        let name = (Service.Objects.spec o_src).Service.Objects.name in
        let o_dst = obj dst name in
        let fp_s, tot_s = Service.Objects.digest o_src in
        let fp_d, tot_d = Service.Objects.digest o_dst in
        if fp_s <> fp_d || tot_s <> tot_d then begin
          repaired := name :: !repaired;
          Alcotest.(check bool)
            ("repair of " ^ name ^ " merged")
            true
            (Service.Objects.merge_delta o_dst
               (Service.Objects.persist_export o_src))
        end)
      src;
    List.rev !repaired
  in
  check
    Alcotest.(list string)
    "t0 -> t1 repairs only the diverged pair" [ "c0"; "c1" ] (repair t0 t1);
  (* The first pass already equalised c0 (t1 had nothing of its own
     there), so the return pass flags exactly the one remaining
     divergence. *)
  check
    Alcotest.(list string)
    "t1 -> t0 repairs only what still differs" [ "c1" ] (repair t1 t0);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " digests agree after one exchange") false
        (differs name);
      check Alcotest.int
        (name ^ " views converge")
        (Service.Objects.known (obj t0 name))
        (Service.Objects.known (obj t1 name)))
    [ "c0"; "c1"; "c2" ];
  check Alcotest.int "c0 merged view" 5 (Service.Objects.known (obj t1 "c0"));
  check Alcotest.int "c1 merged view" 9 (Service.Objects.known (obj t0 "c1"));
  (* And nothing is flagged on an immediate re-exchange. *)
  check Alcotest.(list string) "second exchange is empty" [] (repair t0 t1)

(* ------------------------------------------------------------------ *)
(* HELLO gate                                                          *)
(* ------------------------------------------------------------------ *)

let raw_connect srv =
  let fd =
    Unix.socket ~cloexec:true
      (Unix.domain_of_sockaddr (Srv.sockaddr srv))
      Unix.SOCK_STREAM 0
  in
  Unix.connect fd (Srv.sockaddr srv);
  fd

let raw_send fd req =
  let b = Buffer.create 64 in
  W.encode_request b req;
  let bytes = Buffer.to_bytes b in
  ignore (Unix.write fd bytes 0 (Bytes.length bytes))

(* Read until EOF; returns every decodable response frame. *)
let raw_drain fd =
  let buf = Bytes.create 65536 in
  let len = ref 0 in
  (try
     let rec go () =
       let n = Unix.read fd buf !len (Bytes.length buf - !len) in
       if n > 0 then begin
         len := !len + n;
         go ()
       end
     in
     go ()
   with Unix.Unix_error _ -> ());
  let rec decode off acc =
    match W.decode_response buf ~off ~len:(!len - off) with
    | W.Decoded (resp, consumed) -> decode (off + consumed) (resp :: acc)
    | _ -> List.rev acc
  in
  decode 0 []

let with_server ?config f =
  let srv = Srv.start ?config ~listen:(`Unix (sock_path ())) () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> f srv)

let test_hello_gate_rejects_early_ops () =
  with_server (fun srv ->
      let fd = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* First frame is an op, not HELLO: no reply, clean close. *)
          raw_send fd (W.Inc { id = 1; name = "c0" });
          check Alcotest.int "no responses before the handshake" 0
            (List.length (raw_drain fd)));
      let m = Srv.metrics srv in
      Alcotest.(check bool) "rejection counted" true
        (Service.Metrics.hello_rejects m >= 1))

let test_hello_gate_bad_version () =
  with_server (fun srv ->
      let fd = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd
            (W.Hello { id = 5; version = 99; role = W.role_client });
          match raw_drain fd with
          | [ W.Bad_version { id = 5; version } ] ->
            check Alcotest.int "carries the server's version"
              W.protocol_version version
          | other ->
            Alcotest.failf "expected exactly one BAD_VERSION, got %d frames"
              (List.length other)))

let test_hello_gate_repeated_hello () =
  with_server (fun srv ->
      let fd = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd
            (W.Hello { id = 1; version = W.protocol_version; role = W.role_client });
          raw_send fd
            (W.Hello { id = 2; version = W.protocol_version; role = W.role_client });
          (* The second HELLO closes the connection as a protocol
             error; whether the first HELLO_OK was flushed before the
             close depends on read batching, so accept both shapes. *)
          match raw_drain fd with
          | [] | [ W.Hello_ok { id = 1; _ } ] -> ()
          | other ->
            Alcotest.failf "expected at most HELLO_OK then close, got %d frames"
              (List.length other));
      Alcotest.(check bool) "repeat counted as a protocol error" true
        (Service.Metrics.protocol_errors (Srv.metrics srv) >= 1))

let test_hello_gate_unknown_role () =
  with_server (fun srv ->
      let fd = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* [encode_request] refuses bad role bytes, so craft the
             frame by hand: length 7, op 7, id, version, role 9. *)
          let b = Buffer.create 16 in
          Buffer.add_int32_be b 7l;
          Buffer.add_uint8 b 7;
          Buffer.add_int32_be b 3l;
          Buffer.add_uint8 b W.protocol_version;
          Buffer.add_uint8 b 9;
          let bytes = Buffer.to_bytes b in
          ignore (Unix.write fd bytes 0 (Bytes.length bytes));
          match raw_drain fd with
          | [ W.Bad_request { id = 3 } ] -> ()
          | other ->
            Alcotest.failf "expected BAD_REQUEST for role 9, got %d frames"
              (List.length other));
      Alcotest.(check bool) "rejection counted" true
        (Service.Metrics.hello_rejects (Srv.metrics srv) >= 1))

let test_hello_gate_peer_role_standalone () =
  with_server (fun srv ->
      (* A standalone server has no peers, so nothing may claim the
         peer role (and its 1 MiB frame budget). *)
      let fd = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd
            (W.Hello { id = 4; version = W.protocol_version; role = W.role_peer });
          match raw_drain fd with
          | [ W.Bad_request { id = 4 } ] -> ()
          | other ->
            Alcotest.failf
              "expected BAD_REQUEST for peer role on a standalone server, \
               got %d frames"
              (List.length other));
      Alcotest.(check bool) "rejection counted" true
        (Service.Metrics.hello_rejects (Srv.metrics srv) >= 1))

let test_gossip_requires_peer_role () =
  with_server (fun srv ->
      (* A client-role connection must not be able to inject gossip:
         neither an acked DIGEST nor an unacked GOSSIP2 push. Each is a
         protocol error that closes the connection. *)
      let errors () = Service.Metrics.protocol_errors (Srv.metrics srv) in
      let rejected what send =
        let before = errors () in
        let cl = Cl.connect (Srv.sockaddr srv) in
        Fun.protect
          ~finally:(fun () -> Cl.close cl)
          (fun () ->
            match
              send cl;
              Cl.ping cl
            with
            | exception (End_of_file | Failure _ | Unix.Unix_error _) -> ()
            | _ -> Alcotest.failf "client-role %s accepted" what);
        check Alcotest.int (what ^ " counted as a protocol error")
          (before + 1) (errors ())
      in
      rejected "DIGEST" (fun cl ->
          ignore
            (Cl.digest cl ~node:0
               [ { W.d_oid = 0; d_name = Some "c0"; d_fp = 0; d_total = 0 } ]));
      rejected "GOSSIP2" (fun cl ->
          let ob = Service.Obuf.create () in
          let bl = W.builder () in
          W.g2_start bl ob ~node:0;
          W.g2_add_max bl ~oid:0 ~name:"kmaxreg" 100;
          W.frame_finish bl;
          Cl.write_raw cl (Service.Obuf.bytes ob) ~len:(Service.Obuf.length ob)))

(* Op 8 carried the protocol-2 fixed-width GOSSIP frame; it is
   unassigned now, so even a peer-role connection gets it treated as
   any malformed frame: a protocol error and a close. *)
let test_retired_gossip_op_on_peer () =
  with_server
    ~config:{ Srv.default_config with nodes = 2 }
    (fun srv ->
      let before = Service.Metrics.protocol_errors (Srv.metrics srv) in
      let fd = raw_connect srv in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd
            (W.Hello { id = 1; version = W.protocol_version; role = W.role_peer });
          (* op 8, id 2, node 0, zero entries *)
          let b = Buffer.create 16 in
          Buffer.add_int32_be b 8l;
          Buffer.add_uint8 b 8;
          Buffer.add_int32_be b 2l;
          Buffer.add_uint8 b 0;
          Buffer.add_uint16_be b 0;
          let bytes = Buffer.to_bytes b in
          ignore (Unix.write fd bytes 0 (Bytes.length bytes));
          match raw_drain fd with
          | [] | [ W.Hello_ok { id = 1; _ } ] -> ()
          | other ->
            Alcotest.failf "expected at most HELLO_OK then close, got %d frames"
              (List.length other));
      check Alcotest.int "op 8 counted as a protocol error" (before + 1)
        (Service.Metrics.protocol_errors (Srv.metrics srv)))

(* ------------------------------------------------------------------ *)
(* In-process 3-node cluster, end to end                               *)
(* ------------------------------------------------------------------ *)

let cluster_config ~node_id ~nodes ~replicas ~paths =
  { Srv.default_config with
    shards = 2;
    specs = Service.Objects.default_specs ~counters:4 ~k:4;
    node_id;
    nodes;
    replicas;
    gossip_interval_ms = 10;
    k_staleness = 2;
    peers =
      List.filter_map
        (fun j -> if j = node_id then None else Some (j, `Unix (List.nth paths j)))
        (List.init nodes Fun.id) }

let with_cluster ~nodes ~replicas f =
  let paths = List.init nodes (fun _ -> sock_path ()) in
  let servers =
    Array.of_list
      (List.mapi
         (fun node_id path ->
           Some
             (Srv.start
                ~config:(cluster_config ~node_id ~nodes ~replicas ~paths)
                ~listen:(`Unix path) ()))
         paths)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun s -> Option.iter Srv.stop s) servers)
    (fun () -> f ~paths ~servers)

let quiesce () = Unix.sleepf 0.15 (* >> 2 gossip intervals of 10 ms *)

let k_total = 4 * 2 (* k_local * k_staleness *)

let test_cluster_end_to_end () =
  with_cluster ~nodes:3 ~replicas:2 (fun ~paths ~servers:_ ->
      let cc =
        Cl.Cluster.connect ~replicas:2
          (List.map (fun p -> Unix.ADDR_UNIX p) paths)
      in
      Fun.protect
        ~finally:(fun () -> Cl.Cluster.close cc)
        (fun () ->
          let exact = Array.make 4 0 in
          for round = 1 to 10 do
            for c = 0 to 3 do
              let name = Printf.sprintf "c%d" c in
              for _ = 1 to round do
                (match Cl.Cluster.inc cc name with
                 | W.Value _ -> ()
                 | _ -> Alcotest.fail "INC rejected");
                exact.(c) <- exact.(c) + 1
              done;
              ignore (Cl.Cluster.add cc name 5);
              exact.(c) <- exact.(c) + 5
            done
          done;
          quiesce ();
          for c = 0 to 3 do
            let name = Printf.sprintf "c%d" c in
            let served = Cl.Cluster.read_value cc name in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d within k_total envelope of %d" name
                 served exact.(c))
              true
              (Zmath.within_k ~k:k_total ~exact:exact.(c) served)
          done;
          (* The exactly-served kinds survive placement + replication:
             writes land on a replica, reads reach one. *)
          ignore (Cl.Cluster.write cc "cas-maxreg" 777);
          check Alcotest.int "max register reads back" 777
            (Cl.Cluster.read_value cc "cas-maxreg")))

let test_cluster_node_kill_and_restart () =
  with_cluster ~nodes:3 ~replicas:2 (fun ~paths ~servers ->
      let cc =
        Cl.Cluster.connect ~replicas:2
          (List.map (fun p -> Unix.ADDR_UNIX p) paths)
      in
      Fun.protect
        ~finally:(fun () -> Cl.Cluster.close cc)
        (fun () ->
          let exact = ref 0 in
          let drive n =
            for _ = 1 to n do
              (match Cl.Cluster.inc cc "c0" with
               | W.Value _ -> ()
               | _ -> Alcotest.fail "INC rejected");
              incr exact
            done
          in
          drive 50;
          quiesce ();
          (* Kill c0's primary replica — every in-flight connection to
             it is cut, so subsequent c0 ops are forced to fail over
             to the surviving owner. The gossip had quiesced, so no
             contributions are lost with it. *)
          let victim = P.primary (Cl.Cluster.placement cc) "c0" in
          Option.iter Srv.stop servers.(victim);
          servers.(victim) <- None;
          drive 50;
          Alcotest.(check bool) "reads survive one replica down" true
            (Zmath.within_k ~k:k_total ~exact:!exact
               (Cl.Cluster.read_value cc "c0"));
          (* Restart it blank: gossip must re-teach it everything,
             including its own pre-crash contribution (slot recovery
             from the peers' echo of its G-counter slot). *)
          servers.(victim) <-
            Some
              (Srv.start
                 ~config:
                   (cluster_config ~node_id:victim ~nodes:3 ~replicas:2
                      ~paths)
                 ~listen:(`Unix (List.nth paths victim)) ());
          drive 25;
          quiesce ();
          quiesce ();
          Alcotest.(check bool) "reads converge after the restart" true
            (Zmath.within_k ~k:k_total ~exact:!exact
               (Cl.Cluster.read_value cc "c0"));
          (* Exact convergence, not just envelope membership: every
             owner's merged view of c0 must equal the client-side op
             count. This is the discriminating check for restart-base
             recovery — increments acked by the restarted node before
             its first own-slot echo would otherwise vanish from every
             replica, and the envelope check alone absorbs the loss. *)
          let owners_converged () =
            Array.for_all
              (fun s ->
                match s with
                | None -> true
                | Some srv -> (
                  match Service.Objects.find (Srv.table srv) "c0" with
                  | None -> true
                  | Some o -> Service.Objects.known o = !exact))
              servers
          in
          let rec await n =
            owners_converged ()
            ||
            (n > 0
             &&
             (quiesce ();
              await (n - 1)))
          in
          Alcotest.(check bool)
            (Printf.sprintf "every owner's merged view equals %d" !exact)
            true (await 10);
          Alcotest.(check bool) "failovers were exercised" true
            (Cl.Cluster.failovers cc > 0)))

let test_cluster_loadgen_failover () =
  with_cluster ~nodes:3 ~replicas:2 (fun ~paths ~servers ->
      (* One node is already dead when the load starts: its homed
         connections must reconnect across the ring, not error. *)
      Option.iter Srv.stop servers.(1);
      servers.(1) <- None;
      let r =
        Service.Loadgen.run
          ~addrs:(List.map (fun p -> Unix.ADDR_UNIX p) paths)
          { Service.Loadgen.default_config with
            connections = 6;
            ops_per_connection = 1_000;
            pipeline = 4;
            read_permille = 200;
            add_permille = 100;
            replicas = 2;
            max_reconnects = 4 }
      in
      check Alcotest.int "every op completed" 6_000
        (r.Service.Loadgen.ok + r.Service.Loadgen.busy);
      check Alcotest.int "no errors" 0 r.Service.Loadgen.errors;
      Alcotest.(check bool) "dead node absorbed by reconnects" true
        (r.Service.Loadgen.reconnects > 0))

(* ------------------------------------------------------------------ *)
(* Partition heal: digest anti-entropy repairs exactly the divergence  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Every hosted copy of every k-counter holds the sum of its hosts' own
   contributions: exact quiescent convergence, not envelope
   membership. *)
let counters_converged servers =
  let copies = ref [] in
  Array.iter
    (Option.iter (fun srv ->
         Service.Objects.iter
           (fun o ->
             let { Service.Objects.name; kind } = Service.Objects.spec o in
             match kind with
             | Service.Objects.Kcounter _ ->
               copies :=
                 ( name,
                   Service.Objects.own_total o,
                   Service.Objects.known o )
                 :: !copies
             | _ -> ())
           (Srv.table srv)))
    servers;
  !copies <> []
  && List.for_all
       (fun (name, _, known) ->
         known
         = List.fold_left
             (fun acc (n, own, _) -> if n = name then acc + own else acc)
             0 !copies)
       !copies

let await_converged servers =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    counters_converged servers
    || Unix.gettimeofday () < deadline
       &&
       (Unix.sleepf 0.05;
        go ())
  in
  go ()

let sum_metric servers f =
  Array.fold_left
    (fun acc s ->
      match s with None -> acc | Some srv -> acc + f (Srv.metrics srv))
    0 servers

(* One heal cell: populate c0..c3 and converge; stop node 1 cleanly
   (it snapshots on stop) and drive the first [diverged] counters
   without it; restart it on its data dir and let the digest exchange
   heal it. Returns (healed, repaired objects, heal bytes) over the
   rejoin-to-convergence window. *)
let heal_cell ~diverged =
  let nodes = 3 and replicas = 2 in
  let paths = List.init nodes (fun _ -> sock_path ()) in
  let data_root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_heal_test_%d_%d" (Unix.getpid ()) diverged)
  in
  if Sys.file_exists data_root then rm_rf data_root;
  Sys.mkdir data_root 0o755;
  let start node_id =
    let data_dir = Filename.concat data_root (Printf.sprintf "node%d" node_id) in
    if not (Sys.file_exists data_dir) then Sys.mkdir data_dir 0o755;
    Srv.start
      ~config:
        { (cluster_config ~node_id ~nodes ~replicas ~paths) with
          data_dir = Some data_dir }
      ~listen:(`Unix (List.nth paths node_id)) ()
  in
  let servers = Array.init nodes (fun i -> Some (start i)) in
  let load targets =
    Service.Loadgen.run
      ~addrs:(List.map (fun p -> Unix.ADDR_UNIX p) paths)
      { Service.Loadgen.default_config with
        connections = 4;
        ops_per_connection = 500;
        pipeline = 8;
        read_permille = 100;
        add_permille = 100;
        add_delta = 16;
        seed = 42;
        targets;
        replicas;
        max_reconnects = 4 }
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (Option.iter Srv.stop) servers;
      rm_rf data_root)
    (fun () ->
      let all = List.init 4 (Printf.sprintf "c%d") in
      check Alcotest.int "phase A: no op errors" 0
        (load all).Service.Loadgen.errors;
      Alcotest.(check bool) "phase A converges" true (await_converged servers);
      Option.iter Srv.stop servers.(1);
      servers.(1) <- None;
      check Alcotest.int "partition: no op errors" 0
        (load (List.filteri (fun i _ -> i < diverged) all))
          .Service.Loadgen.errors;
      quiesce ();
      let bytes () = sum_metric servers Service.Metrics.gossip_bytes_sent in
      let repairs () =
        sum_metric servers Service.Metrics.gossip_repair_objects
      in
      let bytes0 = bytes () and repairs0 = repairs () in
      servers.(1) <- Some (start 1);
      let healed = await_converged servers in
      (healed, repairs () - repairs0, bytes () - bytes0))

let test_partition_heal () =
  let cell d =
    let healed, repaired, heal_bytes = heal_cell ~diverged:d in
    Alcotest.(check bool) (Printf.sprintf "d = %d: the rejoin heals" d) true
      healed;
    check Alcotest.int
      (Printf.sprintf "d = %d: one repair per diverged counter" d)
      d repaired;
    heal_bytes
  in
  let bytes1 = cell 1 in
  let bytes4 = cell 4 in
  Alcotest.(check bool)
    (Printf.sprintf "heal bytes grow with the divergence (%d B at d = 1, \
                     %d B at d = 4)" bytes1 bytes4)
    true (bytes4 > bytes1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service_cluster"
    [ ("placement",
       ("single node owns everything", `Quick, test_placement_single_node)
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_placement_deterministic;
              prop_placement_owner_set;
              prop_placement_hosts_agree ]);
      ("delta laws",
       List.map QCheck_alcotest.to_alcotest
         [ prop_merge_commutative;
           prop_merge_associative;
           prop_merge_idempotent;
           prop_replay_never_overshoots ]);
      ("object merge",
       [ ("export/merge roundtrip", `Quick, test_objects_merge_roundtrip);
         ("staleness boundary flag", `Quick, test_objects_boundary_flag);
         ("restart-base recovery", `Quick, test_objects_restart_recovery);
         ("absent own slot keeps recovery open", `Quick,
          test_objects_recovery_ignores_absent_own_slot);
         ("digest exchange reconciles divergence", `Quick,
          test_objects_digest_exchange) ]);
      ("handshake gate",
       [ ("ops before HELLO are rejected", `Quick,
          test_hello_gate_rejects_early_ops);
         ("version mismatch", `Quick, test_hello_gate_bad_version);
         ("repeated HELLO closes the connection", `Quick,
          test_hello_gate_repeated_hello);
         ("unknown role byte is rejected", `Quick,
          test_hello_gate_unknown_role);
         ("peer role needs a cluster", `Quick,
          test_hello_gate_peer_role_standalone);
         ("gossip needs the peer role", `Quick,
          test_gossip_requires_peer_role);
         ("retired op 8 closes a peer connection", `Quick,
          test_retired_gossip_op_on_peer) ]);
      ("cluster",
       [ ("3 nodes, 2 replicas, end to end", `Quick, test_cluster_end_to_end);
         ("node kill and blank restart", `Quick,
          test_cluster_node_kill_and_restart);
         ("loadgen fails over a dead node", `Quick,
          test_cluster_loadgen_failover);
         ("partition heal", `Quick, test_partition_heal) ]) ]
