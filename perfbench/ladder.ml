(* The in-process layer ladder: one op at a time through the public
   functions a served request crosses, in the order it crosses them —
   client encode, server decode, engine, WAL, server encode, client
   decode — each call wrapped in a span of the op's id.  Further lanes
   price the 64-op batch codec, the fsync WAL policy, replication
   encoding and the store's snapshot/restore/recovery paths. *)

module Network = Wdm_multistage.Network
module Mesh = Wdm_mesh.Mesh_network
module Op = Wdm_persist.Op
module Resp = Wdm_persist.Resp
module Backend = Wdm_persist.Backend
module Wal = Wdm_persist.Wal
module Store = Wdm_persist.Store
module Repl = Wdm_persist.Repl
module Wire = Wdm_persist.Wire

let engine_prefix = function Backend.Net _ -> "network" | Backend.Mesh _ -> "mesh_network"

(* One engine call, timed as [<engine>.connect] (admitted),
   [<engine>.refused] or [<engine>.disconnect]; returns the wire answer. *)
let engine_call tr b i op =
  let p = engine_prefix b in
  let id s = Tracer.name_id tr (p ^ "." ^ s) in
  match (b, op) with
  | Backend.Net net, Op.Connect c -> (
    let sp = Tracer.enter tr (id "connect") i in
    match Network.connect net c with
    | Ok route ->
      Tracer.leave tr sp;
      Resp.Admitted { route; moved = 0 }
    | Error e ->
      Tracer.leave ~rename:(id "refused") tr sp;
      Resp.Refused e)
  | Backend.Net net, Op.Disconnect rid -> (
    let sp = Tracer.enter tr (id "disconnect") i in
    let r = Network.disconnect net rid in
    Tracer.leave tr sp;
    match r with Ok route -> Resp.Released route | Error e -> Resp.Release_failed e)
  | Backend.Mesh mesh, Op.Connect c -> (
    let sp = Tracer.enter tr (id "connect") i in
    match Mesh.connect mesh c with
    | Ok route ->
      Tracer.leave tr sp;
      Resp.Admitted { route = Backend.net_route_of_mesh route; moved = 0 }
    | Error e ->
      Tracer.leave ~rename:(id "refused") tr sp;
      Resp.Refused (Backend.net_error_of_mesh e))
  | Backend.Mesh mesh, Op.Disconnect rid -> (
    let sp = Tracer.enter tr (id "disconnect") i in
    let r = Mesh.disconnect mesh rid in
    Tracer.leave tr sp;
    match r with
    | Ok route -> Resp.Released (Backend.net_route_of_mesh route)
    | Error e -> Resp.Release_failed (Backend.net_disconnect_error_of_mesh e))
  | _, op -> Format.kasprintf failwith "ladder: unexpected op %a" Op.pp op

(* The engine alone over [ops], on a fresh network. *)
let engine_only engine ops =
  let tr = Tracer.create () in
  let b = Workload.fresh_backend engine in
  Array.iteri (fun i op -> ignore (engine_call tr b i op)) ops;
  tr

type t = {
  main : Tracer.t;  (** per-op ladder *)
  codec64 : Tracer.t;  (** 64-op batch codec *)
  fsync : Tracer.t;  (** WAL appends under [Fsync_every 1] *)
  repl : Tracer.t;  (** [Rep_op] encoding *)
  store : Tracer.t;  (** snapshot write, restore, recovery *)
  request_bytes : float;
  response_bytes : float;
  wal_bytes_per_op : float;
  replay_ops_per_s : float;
  recovered_ok : bool;  (** in-process recovery reproduced the ladder's state *)
}

let file_size path = (Unix.stat path).Unix.st_size

let run ~dir ~fsync_ops engine ops =
  let n = Array.length ops in
  let main = Tracer.create () in
  let b = Workload.fresh_backend engine in
  let wal = Filename.concat dir "ladder.wal" in
  Store.close (Store.start_backend ~wal b);
  let w = Wal.open_append ~policy:(Wal.Flush_every 1) wal in
  let wal_start = file_size wal in
  let nm = Tracer.name_id main in
  let n_op = nm "op" and n_enc_req = nm "resp.encode_request"
  and n_dec_req = nm "resp.decode_request" and n_wal = nm "wal.append"
  and n_enc = nm "resp.encode" and n_dec = nm "resp.decode" in
  let buf = Buffer.create 512 in
  let req_bytes = ref 0 and resp_bytes = ref 0 in
  let responses =
    Array.mapi
      (fun i op ->
        let sp = Tracer.enter main n_op i in
        let req =
          Tracer.span main n_enc_req i (fun () ->
              Buffer.clear buf;
              Resp.encode_request buf (Resp.Admit op);
              Buffer.contents buf)
        in
        req_bytes := !req_bytes + String.length req;
        let op' =
          match Tracer.span main n_dec_req i (fun () -> Resp.decode_request (Wire.reader req)) with
          | Resp.Admit op' -> op'
          | _ -> failwith "ladder: request did not round-trip"
        in
        let resp = engine_call main b i op' in
        Tracer.span main n_wal i (fun () -> Wal.append w op');
        let bytes =
          Tracer.span main n_enc i (fun () ->
              Buffer.clear buf;
              Resp.encode buf resp;
              Buffer.contents buf)
        in
        resp_bytes := !resp_bytes + String.length bytes;
        ignore (Tracer.span main n_dec i (fun () -> Resp.decode (Wire.reader bytes)));
        Tracer.leave main sp;
        resp)
      ops
  in
  Wal.close w;
  let wal_bytes = file_size wal - wal_start in
  (* 64-op batch frames over the same ops and answers *)
  let codec64 = Tracer.create () in
  let nm = Tracer.name_id codec64 in
  let c_enc_req = nm "resp.encode_request.batch64"
  and c_dec_req = nm "resp.decode_request.batch64"
  and c_enc = nm "resp.encode.batch64" and c_dec = nm "resp.decode.batch64" in
  for f = 0 to (n / 64) - 1 do
    let reqs = List.init 64 (fun j -> Resp.Admit ops.((f * 64) + j)) in
    let reply = Resp.Batch_reply (List.init 64 (fun j -> responses.((f * 64) + j))) in
    let s =
      Tracer.span codec64 c_enc_req f (fun () ->
          Buffer.clear buf;
          Resp.encode_request buf (Resp.Batch reqs);
          Buffer.contents buf)
    in
    ignore (Tracer.span codec64 c_dec_req f (fun () -> Resp.decode_request (Wire.reader s)));
    let s =
      Tracer.span codec64 c_enc f (fun () ->
          Buffer.clear buf;
          Resp.encode buf reply;
          Buffer.contents buf)
    in
    ignore (Tracer.span codec64 c_dec f (fun () -> Resp.decode (Wire.reader s)))
  done;
  (* the durable policy: every append fsyncs *)
  let fsync = Tracer.create () in
  let fwal = Filename.concat dir "fsync.wal" in
  let fw = Wal.create ~policy:(Wal.Fsync_every 1) fwal in
  let n_fs = Tracer.name_id fsync "wal.append_fsync" in
  for i = 0 to min n fsync_ops - 1 do
    Tracer.span fsync n_fs i (fun () -> Wal.append fw ops.(i))
  done;
  Wal.close fw;
  Sys.remove fwal;
  (* what the leader ships per committed op *)
  let repl = Tracer.create () in
  let n_repl = Tracer.name_id repl "repl.encode" in
  Array.iteri
    (fun i op ->
      Tracer.span repl n_repl i (fun () ->
          Buffer.clear buf;
          Repl.encode_to_follower buf (Repl.Rep_op { seq = i + 1; op })))
    ops;
  (* store: recovery = snapshot 0 + replay of every op; restore and
     snapshot write of the final state *)
  let store = Tracer.create () in
  let expect = Backend.digest b in
  let n_rec = Tracer.name_id store "store.recover" in
  let recovered_ok = ref true and replayed = ref 0 in
  for i = 0 to 2 do
    match Tracer.span store n_rec i (fun () -> Store.recover_backend ~truncate:false ~wal ()) with
    | Ok r ->
      replayed := r.Store.b_replayed;
      if Backend.digest r.Store.backend <> expect then recovered_ok := false
    | Error _ -> recovered_ok := false
  done;
  let state = Backend.encode_state b in
  let n_restore = Tracer.name_id store "backend.restore" in
  for i = 0 to 4 do
    match Tracer.span store n_restore i (fun () -> Backend.restore state) with
    | Ok r -> if Backend.digest r <> expect then recovered_ok := false
    | Error _ -> recovered_ok := false
  done;
  let snap_wal = Filename.concat dir "snap.wal" in
  let s = Store.start_backend ~retain:1 ~wal:snap_wal b in
  let n_snap = Tracer.name_id store "store.snapshot_write" in
  for i = 0 to 4 do
    Tracer.span store n_snap i (fun () -> Store.checkpoint_backend s b)
  done;
  Store.close s;
  let recover_s = Tracer.median (Array.map (fun us -> us *. 1e-6) (Tracer.durations_us store "store.recover")) in
  {
    main;
    codec64;
    fsync;
    repl;
    store;
    request_bytes = float_of_int !req_bytes /. float_of_int (max 1 n);
    response_bytes = float_of_int !resp_bytes /. float_of_int (max 1 n);
    wal_bytes_per_op = float_of_int wal_bytes /. float_of_int (max 1 n);
    replay_ops_per_s = float_of_int !replayed /. recover_s;
    recovered_ok = !recovered_ok;
  }
