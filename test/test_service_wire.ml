(* Wire-protocol tests: encode/decode roundtrips as properties over
   arbitrary messages, incremental decoding (truncated frames must ask
   for more, never crash or misparse), and rejection of oversized and
   malformed frames. *)

module W = Service.Wire

let check = Alcotest.check

let encode_req req =
  let b = Buffer.create 64 in
  W.encode_request b req;
  Buffer.to_bytes b

let encode_resp resp =
  let b = Buffer.create 64 in
  W.encode_response b resp;
  Buffer.to_bytes b

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_id = QCheck.Gen.int_bound 0xFFFF_FFFF

let gen_name =
  QCheck.Gen.(
    int_range 1 W.max_name_len >>= fun n ->
    string_size ~gen:(char_range 'a' 'z') (return n))

(* Compact peer-frame entries: counter pairs carry strictly increasing
   slots in 0..254 and non-negative absolute totals (the varint wire
   domain); oids are small dense ids; names are optional first
   mentions. *)
let gen_g2_body =
  QCheck.Gen.(
    oneof
      [ (list_size (int_range 1 8) (int_bound 254) >>= fun slots ->
         let slots = List.sort_uniq compare slots in
         map
           (fun vals -> W.G2_counter (List.combine slots vals))
           (list_size (return (List.length slots)) (int_bound 1_000_000)));
        map (fun v -> W.G2_max v) (int_bound 1_000_000) ])

let gen_g2_entries =
  QCheck.Gen.(
    map
      (List.map (fun ((oid, name), body) ->
           { W.g2_oid = oid; g2_name = name; g2_body = body }))
      (list_size (int_range 0 12)
         (pair (pair (int_bound 1000) (option gen_name)) gen_g2_body)))

let gen_digest_entries =
  QCheck.Gen.(
    map
      (List.map (fun ((oid, name), (fp, total)) ->
           { W.d_oid = oid; d_name = name; d_fp = fp; d_total = total }))
      (list_size (int_range 0 12)
         (pair
            (pair (int_bound 1000) (option gen_name))
            (pair (int_bound 0xFFFF_FFFF) (int_bound 1_000_000)))))

let gen_request =
  QCheck.Gen.(
    gen_id >>= fun id ->
    oneof
      [ map (fun name -> W.Inc { id; name }) gen_name;
        map (fun name -> W.Read { id; name }) gen_name;
        map2 (fun name value -> W.Write { id; name; value }) gen_name int;
        map2 (fun name delta -> W.Add { id; name; delta }) gen_name int;
        return (W.Stats { id });
        return (W.Ping { id });
        map2
          (fun version role -> W.Hello { id; version; role })
          (int_bound 255)
          (oneofl [ W.role_client; W.role_peer ]);
        map2
          (fun node entries -> W.Gossip2 { node; entries })
          (int_bound 255) gen_g2_entries;
        map2
          (fun node entries -> W.Digest { id; node; entries })
          (int_bound 255) gen_digest_entries ])

let gen_response =
  QCheck.Gen.(
    gen_id >>= fun id ->
    oneof
      [ map (fun value -> W.Value { id; value }) int;
        return (W.Busy { id });
        return (W.Unknown_object { id });
        return (W.Bad_request { id });
        map
          (fun json -> W.Stats_json { id; json })
          (string_size ~gen:printable (int_bound 200));
        return (W.Pong { id });
        map (fun version -> W.Hello_ok { id; version }) (int_bound 255);
        map (fun version -> W.Bad_version { id; version }) (int_bound 255) ])

let arb_request = QCheck.make gen_request
let arb_response = QCheck.make gen_response

(* ------------------------------------------------------------------ *)
(* Roundtrip properties                                                *)
(* ------------------------------------------------------------------ *)

(* Generated gossip frames may legally exceed the client cap, so the
   request properties decode under the peer cap (a superset); the
   client/peer cap split has its own dedicated tests below. *)
let prop_request_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"request roundtrip" arb_request
    (fun req ->
      let b = encode_req req in
      match W.decode_request_peer b ~off:0 ~len:(Bytes.length b) with
      | W.Decoded (req', consumed) ->
        req' = req && consumed = Bytes.length b
      | _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"response roundtrip" arb_response
    (fun resp ->
      let b = encode_resp resp in
      match W.decode_response b ~off:0 ~len:(Bytes.length b) with
      | W.Decoded (resp', consumed) ->
        resp' = resp && consumed = Bytes.length b
      | _ -> false)

let prop_request_truncation =
  QCheck.Test.make ~count:500
    ~name:"every strict prefix of a request frame asks for more"
    arb_request (fun req ->
      let b = encode_req req in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match W.decode_request_peer b ~off:0 ~len with
        | W.Need_more -> ()
        | _ -> ok := false
      done;
      !ok)

let prop_request_offset =
  QCheck.Test.make ~count:500 ~name:"decoding is offset-independent"
    (QCheck.pair arb_request arb_request) (fun (a, b') ->
      (* Two frames back to back: decoding at the second frame's offset
         yields the second message. *)
      let buf = Buffer.create 64 in
      W.encode_request buf a;
      let off = Buffer.length buf in
      W.encode_request buf b';
      let bytes = Buffer.to_bytes buf in
      match
        W.decode_request_peer bytes ~off ~len:(Bytes.length bytes - off)
      with
      | W.Decoded (m, consumed) ->
        m = b' && consumed = Bytes.length bytes - off
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

let frame_of_payload payload =
  let b = Buffer.create 64 in
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.to_bytes b

let expect_oversized name b =
  match W.decode_request b ~off:0 ~len:(Bytes.length b) with
  | W.Oversized _ -> ()
  | _ -> Alcotest.failf "%s: expected Oversized" name

let expect_malformed name b =
  match W.decode_request b ~off:0 ~len:(Bytes.length b) with
  | W.Malformed _ -> ()
  | _ -> Alcotest.failf "%s: expected Malformed" name

let test_oversized () =
  (* A header announcing an oversized payload is rejected before any
     payload bytes arrive: 4 header bytes suffice. *)
  let b = Buffer.create 4 in
  Buffer.add_int32_be b (Int32.of_int (W.max_request_payload + 1));
  expect_oversized "max+1, header only" (Buffer.to_bytes b);
  let b = Buffer.create 4 in
  Buffer.add_int32_be b 0x7FFFFFFFl;
  expect_oversized "huge" (Buffer.to_bytes b);
  let b = Buffer.create 4 in
  Buffer.add_int32_be b (-1l);
  expect_oversized "negative length" (Buffer.to_bytes b);
  let b = Buffer.create 4 in
  Buffer.add_int32_be b 0l;
  Buffer.add_string b "x";
  expect_oversized "zero-length payload" (Buffer.to_bytes b)

let test_malformed () =
  expect_malformed "bad op byte" (frame_of_payload "\x63AAAA");
  expect_malformed "stats with trailing junk" (frame_of_payload "\x04AAAAxx");
  (* INC whose name-length byte overruns the payload. *)
  expect_malformed "name overruns payload" (frame_of_payload "\x01AAAA\xffab");
  (* INC with trailing bytes after the name. *)
  expect_malformed "trailing bytes" (frame_of_payload "\x01AAAA\x01abXYZ");
  (* Response-only status byte is not a request op. *)
  expect_malformed "response opcode as request" (frame_of_payload "\x00AAAA");
  (* Op 8 (the retired protocol-2 GOSSIP): id, node, zero entries. *)
  expect_malformed "retired op 8" (frame_of_payload "\x08AAAA\x01\x00\x00")

let test_max_request_boundary () =
  (* The largest legal request frame (255-byte name WRITE) stays under
     the request cap; a payload of exactly max_request_payload is
     accepted by the framing layer (then rejected as unparseable). *)
  let name = String.make W.max_name_len 'n' in
  let b = encode_req (W.Write { id = 1; name; value = max_int }) in
  (match W.decode_request b ~off:0 ~len:(Bytes.length b) with
   | W.Decoded _ -> ()
   | _ -> Alcotest.fail "largest legal request rejected");
  let payload = String.make W.max_request_payload 'z' in
  match
    W.decode_request (frame_of_payload payload) ~off:0
      ~len:(W.header_len + W.max_request_payload)
  with
  | W.Malformed _ -> ()
  | W.Oversized _ -> Alcotest.fail "boundary payload flagged oversized"
  | _ -> Alcotest.fail "garbage payload decoded"

let test_name_too_long () =
  Alcotest.check_raises "encode rejects long names"
    (Invalid_argument "Wire.encode_request: object name longer than 255 bytes")
    (fun () ->
      ignore (encode_req (W.Inc { id = 0; name = String.make 256 'x' })))

(* ------------------------------------------------------------------ *)
(* Handshake and gossip frames                                         *)
(* ------------------------------------------------------------------ *)

let test_hello_roundtrip () =
  let hello =
    W.Hello { id = 7; version = W.protocol_version; role = W.role_peer }
  in
  let b = encode_req hello in
  (match W.decode_request b ~off:0 ~len:(Bytes.length b) with
   | W.Decoded (req, consumed) ->
     Alcotest.(check bool) "hello survives the client-cap decoder" true
       (req = hello && consumed = Bytes.length b)
   | _ -> Alcotest.fail "HELLO frame did not decode");
  let ok = encode_resp (W.Hello_ok { id = 7; version = W.protocol_version }) in
  (match W.decode_response ok ~off:0 ~len:(Bytes.length ok) with
   | W.Decoded (W.Hello_ok { id = 7; version }, _) ->
     check Alcotest.int "echoed version" W.protocol_version version
   | _ -> Alcotest.fail "HELLO_OK did not decode");
  let bad = encode_resp (W.Bad_version { id = 9; version = 99 }) in
  match W.decode_response bad ~off:0 ~len:(Bytes.length bad) with
  | W.Decoded (W.Bad_version { id = 9; version = 99 }, _) -> ()
  | _ -> Alcotest.fail "BAD_VERSION did not decode"

let test_hello_malformed () =
  (* HELLO is exactly 7 payload bytes: op, id, version, role. *)
  expect_malformed "hello truncated payload" (frame_of_payload "\x07AAAA\x02");
  expect_malformed "hello trailing bytes" (frame_of_payload "\x07AAAA\x02\x00Z")

let test_gossip_malformed () =
  (* GOSSIP2 entry count promises one entry but the payload ends. *)
  expect_malformed "gossip missing entries"
    (frame_of_payload "\x09\x01\x00\x01");
  (* Entry tag with the unassigned code 3. *)
  expect_malformed "gossip bad entry code"
    (frame_of_payload "\x09\x01\x00\x01\x03\x05");
  (* Counter entry announcing zero (slot, total) pairs. *)
  expect_malformed "gossip zero pairs"
    (frame_of_payload "\x09\x01\x00\x01\x00\x00");
  (* Named entry with a zero-length name. *)
  expect_malformed "gossip empty name"
    (frame_of_payload "\x09\x01\x00\x01\x05\x00\x07");
  (* DIGEST fingerprint of 2^32, one past the 32-bit field. *)
  expect_malformed "digest fingerprint overflow"
    (frame_of_payload "\x0aAAAA\x01\x00\x01\x00\x80\x80\x80\x80\x10\x00")

(* The role split: one frame, two caps. A gossip frame bigger than the
   client cap must be rejected by the client decoder before its
   payload arrives, yet decode fine under the peer cap. *)
let test_peer_cap_split () =
  let wide =
    (* 24 first mentions x 255-byte names ~ 6.4 KB > 4096. *)
    List.init 24 (fun i ->
        { W.g2_oid = i;
          g2_name = Some (Printf.sprintf "%s%02d" (String.make 253 'g') i);
          g2_body = W.G2_max max_int })
  in
  let b = encode_req (W.Gossip2 { node = 1; entries = wide }) in
  Alcotest.(check bool) "frame exceeds the client cap" true
    (Bytes.length b - W.header_len > W.max_request_payload);
  (match W.decode_request b ~off:0 ~len:(Bytes.length b) with
   | W.Oversized n ->
     check Alcotest.int "announced length" (Bytes.length b - W.header_len) n
   | _ -> Alcotest.fail "client decoder accepted a peer-sized frame");
  match W.decode_request_peer b ~off:0 ~len:(Bytes.length b) with
  | W.Decoded (W.Gossip2 { entries; _ }, consumed) ->
    check Alcotest.int "all entries back" 24 (List.length entries);
    check Alcotest.int "whole frame consumed" (Bytes.length b) consumed
  | _ -> Alcotest.fail "peer decoder rejected a legal gossip frame"

(* ------------------------------------------------------------------ *)
(* Compact peer frames: varints, the streaming builder                 *)
(* ------------------------------------------------------------------ *)

(* Reference LEB128 reader (the decoder side lives inside Wire's frame
   parser; the tests keep their own so the encoding is pinned, not
   merely self-consistent). *)
let decode_varint bytes off =
  let v = ref 0 and shift = ref 0 and i = ref off in
  let continue = ref true in
  while !continue do
    let b = Char.code (Bytes.get bytes !i) in
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    incr i;
    if b < 0x80 then continue := false
  done;
  (!v, !i - off)

let test_varint_boundaries () =
  List.iter
    (fun v ->
      let ob = Service.Obuf.create () in
      Service.Obuf.add_varint ob v;
      check Alcotest.int
        (Printf.sprintf "varint_len agrees for %d" v)
        (Service.Obuf.varint_len v)
        (Service.Obuf.length ob);
      let v', n = decode_varint (Service.Obuf.bytes ob) 0 in
      check Alcotest.int (Printf.sprintf "roundtrip %d" v) v v';
      check Alcotest.int "consumed everything" (Service.Obuf.length ob) n)
    [ 0; 1; 127; 128; 129; 255; 16383; 16384; (1 lsl 21) - 1; 1 lsl 21;
      (1 lsl 28) - 1; 1 lsl 28; (1 lsl 35) - 1; 0x7FFF_FFFF; max_int ]

let prop_varint_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"varint roundtrip at declared length"
    (QCheck.make QCheck.Gen.(map (fun i -> i land max_int) int))
    (fun v ->
      let ob = Service.Obuf.create () in
      Service.Obuf.add_varint ob v;
      let v', n = decode_varint (Service.Obuf.bytes ob) 0 in
      v' = v && n = Service.Obuf.length ob && n = Service.Obuf.varint_len v)

(* The gossip sender's streaming builder must emit byte-identical
   frames to the typed encoder — the builder is the hot path, the
   typed encoder the specification (and what the decoder roundtrips
   against). Two frames back to back in one Obuf also pins the
   coalescing contract: finishing a frame leaves the buffer ready for
   the next. *)
let encode_via_builder ob (id, node, g2s, digs) =
  let bld = W.builder () in
  W.g2_start bld ob ~node;
  List.iter
    (fun e ->
      let name = Option.value ~default:"" e.W.g2_name in
      match e.W.g2_body with
      | W.G2_max v -> W.g2_add_max bld ~oid:e.W.g2_oid ~name v
      | W.G2_counter pairs ->
        let n = List.length pairs in
        let slots = Array.make n 0 and vals = Array.make n 0 in
        List.iteri
          (fun i (s, v) ->
            slots.(i) <- s;
            vals.(i) <- v)
          pairs;
        W.g2_add_counter bld ~oid:e.W.g2_oid ~name ~slots ~vals ~n)
    g2s;
  W.frame_finish bld;
  W.digest_start bld ob ~id ~node;
  List.iter
    (fun d ->
      let name = Option.value ~default:"" d.W.d_name in
      W.digest_add bld ~oid:d.W.d_oid ~name ~fp:d.W.d_fp ~total:d.W.d_total)
    digs;
  W.frame_finish bld

let prop_builder_parity =
  QCheck.Test.make ~count:500
    ~name:"streaming builder frames = typed encoder frames"
    (QCheck.make
       QCheck.Gen.(
         pair (pair gen_id (int_bound 255))
           (pair gen_g2_entries gen_digest_entries)))
    (fun ((id, node), (g2s, digs)) ->
      let ob = Service.Obuf.create () in
      encode_via_builder ob (id, node, g2s, digs);
      let buf = Buffer.create 256 in
      W.encode_request buf (W.Gossip2 { node; entries = g2s });
      W.encode_request buf (W.Digest { id; node; entries = digs });
      Service.Obuf.contents ob = Buffer.contents buf)

(* Export vectors pushed through a GOSSIP2 frame (nonzero slots as
   gap-encoded pairs — the sender's zero-slot skipping) must decode
   back to the input vectors. *)
let gen_exports =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (pair gen_name
         (int_range 1 8 >>= fun w ->
          map Array.of_list (list_size (return w) (int_bound 1_000_000))))
    >>= fun l -> return (List.sort_uniq (fun (a, _) (b, _) -> compare a b) l))

let prop_compact_exports_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"compact gap-encoded exports decode to the input vectors"
    (QCheck.make gen_exports) (fun exports ->
      let g2_entries =
        List.mapi
          (fun oid (n, v) ->
            let pairs = ref [] in
            Array.iteri
              (fun slot total ->
                if total > 0 then pairs := (slot, total) :: !pairs)
              v;
            (* An all-zero vector still pins its slot-0 total so the
               frame carries a legal non-empty entry. *)
            let pairs =
              if !pairs = [] then [ (0, 0) ] else List.rev !pairs
            in
            { W.g2_oid = oid; g2_name = Some n; g2_body = W.G2_counter pairs })
          exports
      in
      let compact = encode_req (W.Gossip2 { node = 1; entries = g2_entries }) in
      let decoded =
        match
          W.decode_request_peer compact ~off:0 ~len:(Bytes.length compact)
        with
        | W.Decoded (W.Gossip2 { entries; _ }, _) ->
          List.map
            (fun e ->
              match (e.W.g2_name, e.W.g2_body) with
              | Some n, W.G2_counter pairs ->
                let _, orig = List.find (fun (n', _) -> n' = n) exports in
                let v = Array.make (Array.length orig) 0 in
                List.iter (fun (slot, total) -> v.(slot) <- total) pairs;
                (n, v)
              | _ -> ("", [||]))
            entries
        | _ -> []
      in
      decoded = exports)

(* The coalesced sender's warm path — open frame, append interned
   entries, finish, repeat — must not allocate once the Obuf has grown
   to steady state: that is what lets a gossip round encode every
   dirty object and flush with one write, GC-silently.
   [Gc.minor_words] itself boxes a float, hence the small slack. *)
let test_builder_warm_no_alloc () =
  let ob = Service.Obuf.create () in
  let bld = W.builder () in
  let slots = [| 2 |] and vals = [| 0 |] in
  let round i =
    Service.Obuf.clear ob;
    W.g2_start bld ob ~node:1;
    vals.(0) <- i;
    W.g2_add_counter bld ~oid:3 ~name:"" ~slots ~vals ~n:1;
    W.g2_add_max bld ~oid:4 ~name:"" (2 * i);
    W.frame_finish bld;
    W.digest_start bld ob ~id:i ~node:1;
    W.digest_add bld ~oid:3 ~name:"" ~fp:(i land 0xFFFF_FFFF) ~total:i;
    W.frame_finish bld
  in
  for i = 1 to 64 do
    round i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    round i
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "warm builder path allocated %.0f minor words over 10k rounds"
      delta

let test_gossip_encode_guards () =
  let entry slot =
    [ { W.g2_oid = 0; g2_name = None; g2_body = W.G2_counter [ (slot, 1) ] } ]
  in
  Alcotest.check_raises "counter slot beyond 254"
    (Invalid_argument "Wire.encode_request: counter slot outside 0..254")
    (fun () -> ignore (encode_req (W.Gossip2 { node = 0; entries = entry 255 })));
  Alcotest.check_raises "node id out of byte range"
    (Invalid_argument "Wire.encode_request: gossip node id outside 0..255")
    (fun () -> ignore (encode_req (W.Gossip2 { node = 256; entries = entry 0 })))

let () =
  Alcotest.run "service_wire"
    [ ("roundtrip",
       List.map QCheck_alcotest.to_alcotest
         [ prop_request_roundtrip;
           prop_response_roundtrip;
           prop_request_truncation;
           prop_request_offset ]);
      ("rejection",
       [ ("oversized frames", `Quick, test_oversized);
         ("malformed frames", `Quick, test_malformed);
         ("request-size boundary", `Quick, test_max_request_boundary);
         ("name length cap", `Quick, test_name_too_long) ]);
      ("handshake",
       [ ("hello/hello_ok/bad_version roundtrip", `Quick, test_hello_roundtrip);
         ("malformed hello", `Quick, test_hello_malformed) ]);
      ("gossip",
       [ ("malformed gossip", `Quick, test_gossip_malformed);
         ("client/peer cap split", `Quick, test_peer_cap_split);
         ("encode guards", `Quick, test_gossip_encode_guards) ]);
      ("compact peer frames",
       ("varint boundaries", `Quick, test_varint_boundaries)
       :: ("builder warm path allocation-free", `Quick,
           test_builder_warm_no_alloc)
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_varint_roundtrip;
              prop_builder_parity;
              prop_compact_exports_roundtrip ]) ]
