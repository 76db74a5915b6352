(* The service's name plumbing: the seeded FNV-1a hash (pinned
   vectors — shard and ring assignment must survive compiler upgrades
   byte-for-byte), the dense-id object table the request hot path
   indexes into, the per-connection intern cache, and the placement
   spread properties the finalized hash was added to guarantee. *)

let check = Alcotest.check

module O = Service.Objects
module F = Service.Fnv
module P = Service.Placement

(* ------------------------------------------------------------------ *)
(* FNV-1a pinned vectors                                               *)
(* ------------------------------------------------------------------ *)

(* Measured once from the implementation and pinned: placement and
   sharding are derived independently by server, client and loadgen,
   so the hash is a wire-protocol-grade invariant — any drift (a new
   OCaml release changing [Hashtbl.hash] was the original offender)
   silently reshuffles every deployed ring. *)
let test_fnv_pinned_vectors () =
  List.iter
    (fun (seed, s, expected) ->
      check Alcotest.int
        (Printf.sprintf "fnv ~seed:%d %S" seed s)
        expected (F.hash ~seed s))
    [ (0, "", 0xb673edc29f44372);
      (0, "a", 0x1345461c5f8fbb1b);
      (0, "c0", 0x34f00c4a3c126e4a);
      (0, "kmaxreg", 0x10f90cc1324801de);
      (0, "vnode-0#0", 0x18093ac421b007b8);
      (0x52494E47, "vnode-0#0", 0x13fab353bb4854c7);
      (0x52494E47, "vnode-2#63", 0x96a713e243d3acd);
      (1, "c0", 0x12d04898a1177e3a);
      (0, "tenant-0042-counter-000000001", 0x26b802fa5a6c22ca);
      (0, "tenant-0042-counter-000000002", 0x3c591c4ea4ac9eb2) ]

let test_fnv_properties () =
  (* Nonnegative (directly usable as a mod/land index). *)
  List.iter
    (fun s -> Alcotest.(check bool) "nonnegative" true (F.hash s >= 0))
    [ ""; "x"; String.make 300 'z' ];
  (* Every byte participates — names sharing a long prefix (the shape
     Hashtbl.hash's prefix sampling collided wholesale) must differ. *)
  let prefix = String.make 64 'p' in
  Alcotest.(check bool) "suffix-only difference changes the hash" true
    (F.hash (prefix ^ "1") <> F.hash (prefix ^ "2"));
  (* Seeds select independent streams. *)
  Alcotest.(check bool) "seed changes the stream" true
    (F.hash ~seed:1 "c0" <> F.hash "c0")

(* The avalanche finalizer is what keeps both ends of the word usable:
   low bits index shards, high bits order the placement ring. Raw
   FNV's high bits barely move for short common-prefix strings (the
   vnode labels!), which measurably skewed the ring. Assert both ends
   spread over a generated namespace. *)
let test_fnv_bit_spread () =
  let names = List.init 512 (Printf.sprintf "obj-%04d") in
  let low = Array.make 8 0 and high = Array.make 8 0 in
  List.iter
    (fun s ->
      let h = F.hash s in
      low.(h land 7) <- low.(h land 7) + 1;
      high.(h lsr 59) <- high.(h lsr 59) + 1)
    names;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "low octant %d populated sanely" i)
        true
        (c > 16 && c < 256))
    low;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "high octant %d populated sanely" i)
        true
        (c > 16 && c < 256))
    high

(* ------------------------------------------------------------------ *)
(* Dense-id table                                                      *)
(* ------------------------------------------------------------------ *)

let build_table ?(shards = 2) specs =
  let metrics = Service.Metrics.create ~shards ~io_domains:1 () in
  O.build ~metrics ~shards specs

(* Live heap bytes per hosted k-counter on a one-shard server: [Gc]
   live words across [O.build] of 10k counters (specs and metrics
   registry built beforehand, so the object table, the counters and
   their per-object stats rows are what is measured). *)
let test_hosted_kcounter_space_budget () =
  let count = 10_000 in
  let specs =
    List.init count (fun i ->
        { O.name = Printf.sprintf "c%d" i; kind = O.Kcounter { k = 4 } })
  in
  let metrics = Service.Metrics.create ~shards:1 ~io_domains:1 () in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let t = O.build ~metrics ~shards:1 specs in
  let after = live () in
  ignore (Sys.opaque_identity (t, specs, metrics));
  let bytes = (after - before) * (Sys.word_size / 8) / count in
  if bytes > 1_500 then
    Alcotest.failf "hosted k-counter holds %d B live, budget 1500 B" bytes

let test_table_dense_ids () =
  let specs = O.default_specs ~counters:3 ~k:2 in
  let t = build_table specs in
  check Alcotest.int "count" (List.length specs) (O.count t);
  (* Dense ids are registration order, and [get] inverts [find_id]. *)
  List.iteri
    (fun i (s : O.spec) ->
      let id = O.find_id t s.O.name in
      check Alcotest.int (s.O.name ^ " dense id") i id;
      check Alcotest.string "get round-trips" s.O.name
        (O.spec (O.get t id)).O.name;
      check Alcotest.int "id accessor agrees" i (O.id (O.get t id)))
    specs;
  check Alcotest.int "unknown name" (-1) (O.find_id t "nope");
  check Alcotest.int "empty name" (-1) (O.find_id t "");
  (* [iter] walks registration order (what snapshot/gossip rely on for
     stable, list-spine-free sweeps). *)
  let seen = ref [] in
  O.iter (fun o -> seen := O.id o :: !seen) t;
  check
    Alcotest.(list int)
    "iter order" (List.init (O.count t) Fun.id) (List.rev !seen)

let test_intern_cache () =
  let specs = O.default_specs ~counters:2 ~k:2 in
  let t = build_table specs in
  let cache = O.Intern.create () in
  check Alcotest.int "cold cache misses" (-1) (O.Intern.find_cached cache "c0");
  check Alcotest.int "empty name never hits" (-1)
    (O.Intern.find_cached cache "");
  let id = O.find_id t "c0" in
  O.Intern.store cache "c0" id;
  check Alcotest.int "hit after store" id (O.Intern.find_cached cache "c0");
  (* Two-way sets: a second name in c0's set keeps both cached; a
     third evicts the set's older entry, which reverts to a miss,
     never to a wrong id. *)
  let sets = O.Intern.slots / O.Intern.ways in
  let set name = F.hash name land (sets - 1) in
  let colliders =
    let rec go i acc =
      if List.length acc = 2 then List.rev acc
      else
        let cand = Printf.sprintf "x%d" i in
        go (i + 1) (if set cand = set "c0" then cand :: acc else acc)
    in
    go 0 []
  in
  let first = List.nth colliders 0 and second = List.nth colliders 1 in
  O.Intern.store cache first 7;
  check Alcotest.int "set-mate cached" 7 (O.Intern.find_cached cache first);
  check Alcotest.int "c0 survives a set-mate" id
    (O.Intern.find_cached cache "c0");
  O.Intern.store cache second 8;
  check Alcotest.int "newest name cached" 8
    (O.Intern.find_cached cache second);
  check Alcotest.int "previous newest kept" 7
    (O.Intern.find_cached cache first);
  check Alcotest.int "oldest name evicted cleanly" (-1)
    (O.Intern.find_cached cache "c0")

(* The service's default 7-object set fits the cache without a
   conflict: one cold pass misses each name once, a second pass hits
   all of them. *)
let test_intern_default_set () =
  let specs = O.default_specs ~counters:4 ~k:4 in
  let t = build_table specs in
  let cache = O.Intern.create () in
  let pass () =
    List.fold_left
      (fun hits (sp : O.spec) ->
        let name = sp.O.name in
        if O.Intern.find_cached cache name >= 0 then hits + 1
        else begin
          O.Intern.store cache name (O.find_id t name);
          hits
        end)
      0 specs
  in
  check Alcotest.int "cold pass misses" 0 (pass ());
  check Alcotest.int "warm pass hits 7/7" 7 (pass ())

(* [Gc.minor_words] itself boxes its float result; any per-lookup
   allocation over the window would blow far past the slack. *)
let assert_no_alloc label ~ops f =
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    f i
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 256.0 then
    Alcotest.failf "%s allocated %.0f minor words over %d ops" label delta ops

(* The dense-id service lookup is on the per-request hot path: both
   the intern hit and the table fallback (hash find returning an
   immediate id, or a constant [Not_found]) must allocate nothing. *)
let test_dense_lookup_no_alloc () =
  let t = build_table (O.default_specs ~counters:2 ~k:2) in
  let cache = O.Intern.create () in
  O.Intern.store cache "c0" (O.find_id t "c0");
  assert_no_alloc "intern hit" ~ops:100_000 (fun _ ->
      ignore (Sys.opaque_identity (O.Intern.find_cached cache "c0")));
  assert_no_alloc "table find_id hit" ~ops:100_000 (fun _ ->
      ignore (Sys.opaque_identity (O.find_id t "kmaxreg")));
  assert_no_alloc "table find_id miss" ~ops:100_000 (fun _ ->
      ignore (Sys.opaque_identity (O.find_id t "absent")));
  assert_no_alloc "fnv hash" ~ops:100_000 (fun _ ->
      ignore (Sys.opaque_identity (F.hash "tenant-0042-counter-000000001")))

(* ------------------------------------------------------------------ *)
(* Placement spread                                                    *)
(* ------------------------------------------------------------------ *)

(* The regression the finalizer fixed: under raw FNV one node owned
   half the ring and some nodes hosted none of the default objects.
   Any future hash change that reintroduces clumping fails here. *)
let test_placement_spread () =
  List.iter
    (fun nodes ->
      let p = P.create ~nodes ~replicas:1 in
      let owned = Array.make nodes 0 in
      for i = 0 to 9_999 do
        let o = P.primary p (Printf.sprintf "obj-%d" i) in
        owned.(o) <- owned.(o) + 1
      done;
      let ideal = 10_000 / nodes in
      Array.iteri
        (fun n c ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d/%d owns a fair share" n nodes)
            true
            (c > ideal / 2 && c < ideal * 2))
        owned)
    [ 2; 3; 5 ];
  (* Every node of a 3-node ring hosts at least one default object —
     the property the loadgen failover path leans on. *)
  let p = P.create ~nodes:3 ~replicas:1 in
  let specs = O.default_specs ~counters:4 ~k:2 in
  let hosted = Array.make 3 false in
  List.iter (fun (s : O.spec) -> hosted.(P.primary p s.O.name) <- true) specs;
  Array.iteri
    (fun n h ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d hosts a default object" n)
        true h)
    hosted

let suite =
  [ ("fnv pinned vectors", `Quick, test_fnv_pinned_vectors);
    ("fnv properties", `Quick, test_fnv_properties);
    ("fnv bit spread", `Quick, test_fnv_bit_spread);
    ("table dense ids", `Quick, test_table_dense_ids);
    ("hosted kcounter space budget", `Quick, test_hosted_kcounter_space_budget);
    ("intern cache", `Quick, test_intern_cache);
    ("intern cache holds the default set", `Quick, test_intern_default_set);
    ("dense lookup allocates nothing", `Quick, test_dense_lookup_no_alloc);
    ("placement spread", `Quick, test_placement_spread) ]

let () = Alcotest.run "service_objects" [ ("service_objects", suite) ]
