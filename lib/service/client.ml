type t = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable roff : int;  (* consumed prefix *)
  mutable rlen : int;  (* valid bytes (roff <= rlen) *)
  out : Buffer.t;
  mutable next_id : int;
}

type role = [ `Client | `Peer ]

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t =
  let id = t.next_id in
  t.next_id <- Wire.mask_id (id + 1);
  id

let send t req = Wire.encode_request t.out req

let flush t =
  let b = Buffer.to_bytes t.out in
  Buffer.clear t.out;
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write t.fd b !off (len - !off)
  done

let compact t =
  if t.roff = t.rlen then begin
    t.roff <- 0;
    t.rlen <- 0
  end
  else if t.rlen = Bytes.length t.rbuf then begin
    Bytes.blit t.rbuf t.roff t.rbuf 0 (t.rlen - t.roff);
    t.rlen <- t.rlen - t.roff;
    t.roff <- 0
  end

let rec recv t =
  match Wire.decode_response t.rbuf ~off:t.roff ~len:(t.rlen - t.roff) with
  | Wire.Decoded (resp, consumed) ->
    t.roff <- t.roff + consumed;
    if t.roff = t.rlen then compact t;
    resp
  | Wire.Oversized n ->
    failwith (Printf.sprintf "Service.Client.recv: oversized frame (%d)" n)
  | Wire.Malformed m -> failwith ("Service.Client.recv: malformed frame: " ^ m)
  | Wire.Need_more ->
    compact t;
    if t.rlen = Bytes.length t.rbuf then begin
      (* A frame larger than the buffer: grow (bounded by the protocol
         cap, which [decode_response] enforces first). *)
      let nb = Bytes.create (2 * Bytes.length t.rbuf) in
      Bytes.blit t.rbuf 0 nb 0 t.rlen;
      t.rbuf <- nb
    end;
    let n = Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) in
    if n = 0 then raise End_of_file;
    t.rlen <- t.rlen + n;
    recv t

let roundtrip t req =
  send t req;
  flush t;
  let resp = recv t in
  if Wire.response_id resp <> Wire.request_id req then
    failwith "Service.Client: response id does not match request id";
  resp

exception Version_mismatch of { server : int; client : int }

let connect ?(role = `Client) addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> () (* Unix-domain sockets *));
  let t =
    { fd;
      rbuf = Bytes.create 65536;
      roff = 0;
      rlen = 0;
      out = Buffer.create 4096;
      next_id = 0 }
  in
  (* The mandatory handshake: HELLO must be the first frame on every
     connection, and its reply is matched before the client is handed
     out, so user code never sees handshake traffic. *)
  let role_byte =
    match role with `Client -> Wire.role_client | `Peer -> Wire.role_peer
  in
  let hello =
    Wire.Hello
      { id = fresh_id t; version = Wire.protocol_version; role = role_byte }
  in
  (match roundtrip t hello with
   | Wire.Hello_ok _ -> ()
   | Wire.Bad_version { version; _ } ->
     close t;
     raise (Version_mismatch { server = version; client = Wire.protocol_version })
   | _ ->
     close t;
     failwith "Service.Client.connect: unexpected handshake reply"
   | exception e ->
     close t;
     raise e);
  t

let inc t name = roundtrip t (Wire.Inc { id = fresh_id t; name })
let add t name delta = roundtrip t (Wire.Add { id = fresh_id t; name; delta })
let read_op t name = roundtrip t (Wire.Read { id = fresh_id t; name })

let write t name value =
  roundtrip t (Wire.Write { id = fresh_id t; name; value })

let read_value t name =
  match read_op t name with
  | Wire.Value { value; _ } -> value
  | _ -> failwith ("Service.Client.read_value: non-Value reply for " ^ name)

let ping t =
  match roundtrip t (Wire.Ping { id = fresh_id t }) with
  | Wire.Pong _ -> true
  | _ -> false

let stats_json t =
  match roundtrip t (Wire.Stats { id = fresh_id t }) with
  | Wire.Stats_json { json; _ } -> json
  | _ -> failwith "Service.Client.stats_json: non-STATS reply"

let digest t ~node entries =
  match roundtrip t (Wire.Digest { id = fresh_id t; node; entries }) with
  | Wire.Digest_ack { oids; _ } -> oids
  | _ -> failwith "Service.Client.digest: non-ack reply"

(* The coalesced gossip sender's frame path: frames are pre-encoded
   into a caller-owned buffer (the per-peer Obuf), so sending is one
   bare write loop — no staging copy through [out], no per-frame
   syscall. The caller still uses [recv] for any acked frames (DIGEST)
   it included. *)
let write_raw t b ~len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write t.fd b !off (len - !off)
  done

(* ------------------------------------------------------------------ *)
(* Cluster-aware façade                                                *)
(* ------------------------------------------------------------------ *)

module Cluster = struct
  let client_close = close
  let client_connect = connect

  type node = {
    n_addr : Unix.sockaddr;
    mutable n_client : t option;  (* lazy; None after a failure *)
  }

  type nonrec t = {
    placement : Placement.t;
    cnodes : node array;  (* index = node id *)
    mutable failovers : int;
  }

  let connect ?(replicas = 1) addrs =
    if addrs = [] then invalid_arg "Client.Cluster.connect: no nodes";
    { placement = Placement.create ~nodes:(List.length addrs) ~replicas;
      cnodes =
        Array.of_list
          (List.map (fun a -> { n_addr = a; n_client = None }) addrs);
      failovers = 0 }

  let close t =
    Array.iter
      (fun n ->
        match n.n_client with
        | Some cl ->
          n.n_client <- None;
          client_close cl
        | None -> ())
      t.cnodes

  let failovers t = t.failovers
  let placement t = t.placement

  let drop t i =
    match t.cnodes.(i).n_client with
    | Some cl ->
      t.cnodes.(i).n_client <- None;
      client_close cl
    | None -> ()

  (* Run [f] against the first reachable replica of [name], walking
     the owner list in ring order. Only transport-level failures
     (connect refusal, reset, EOF) fail over; protocol errors
     propagate — retrying those elsewhere would mask bugs. *)
  let with_replica t name f =
    let owners = Placement.owners t.placement name in
    let rec go = function
      | [] -> failwith ("Client.Cluster: no replica reachable for " ^ name)
      | i :: rest -> (
        let node = t.cnodes.(i) in
        match
          match node.n_client with
          | Some cl -> cl
          | None ->
            let cl = client_connect node.n_addr in
            node.n_client <- Some cl;
            cl
        with
        | exception (Unix.Unix_error _ | Version_mismatch _) ->
          if rest <> [] then t.failovers <- t.failovers + 1;
          go rest
        | cl -> (
          try f cl
          with Unix.Unix_error _ | End_of_file ->
            drop t i;
            if rest <> [] then t.failovers <- t.failovers + 1;
            go rest))
    in
    go owners

  let inc t name = with_replica t name (fun cl -> inc cl name)
  let add t name delta = with_replica t name (fun cl -> add cl name delta)
  let read_op t name = with_replica t name (fun cl -> read_op cl name)
  let write t name v = with_replica t name (fun cl -> write cl name v)

  let read_value t name =
    with_replica t name (fun cl -> read_value cl name)
end
