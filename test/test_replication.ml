(* Replication and failover: the repl codec and follower mark, a
   follower catching up over the wire and serving reads, slow-follower
   eviction, client deadlines, WAL append-resume, and the headline
   acceptance test — kill the leader mid-churn at an op boundary,
   promote the follower, let the self-healing client redirect, and the
   final digest equals an uninterrupted single-server run. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Srv = Wdm_server
module Tel = Wdm_telemetry
module Churn = Wdm_traffic.Churn

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

(* Undersized below the Theorem-1 minimum so churn produces both
   admissions and refusals — refused connects are committed ops too,
   and must replicate. *)
let topo = Topology.make_exn ~n:3 ~m:4 ~r:3 ~k:2

let make_net ?telemetry impl =
  Network.create
    ~config:{ Network.Config.default with telemetry; link_impl = Some impl }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW topo

let socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdmnet_repl_%d_%d.sock" (Unix.getpid ()) !counter)

let sock () = Srv.Server.Unix_socket (socket_path ())

let temp_dir () =
  let dir = Filename.temp_file "wdmnet_repl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let wait_for ?(timeout = 10.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || (Unix.gettimeofday () -. t0 < timeout)
       && begin
            Thread.delay 0.01;
            go ()
          end
  in
  go ()

let with_client srv f =
  match Srv.Client.connect (Srv.Server.address srv) with
  | Error e ->
    Alcotest.fail ("client connect: " ^ Srv.Client.error_to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Srv.Client.close c) (fun () -> f c)

let counter_of sink name =
  Option.value ~default:0 (Tel.Metrics.find_counter (Tel.Sink.snapshot sink) name)

(* --- codec roundtrips ---------------------------------------------------- *)

let test_to_leader_roundtrip () =
  List.iter
    (fun msg ->
      let b = Buffer.create 32 in
      P.Repl.encode_to_leader b msg;
      match P.Repl.to_leader_of_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check string)
          "to_leader"
          (Format.asprintf "%a" P.Repl.pp_to_leader msg)
          (Format.asprintf "%a" P.Repl.pp_to_leader back)
      | Error e -> Alcotest.fail e)
    [
      P.Repl.Subscribe { epoch = 0; last_seq = -1 };
      P.Repl.Subscribe { epoch = 123456789; last_seq = 42 };
      P.Repl.Ack { seq = 7; digest = 987654321 };
    ]

let test_to_follower_roundtrip () =
  let c = conn (ep 1 1) [ ep 2 1; ep 5 1 ] in
  List.iter
    (fun msg ->
      let b = Buffer.create 64 in
      P.Repl.encode_to_follower b msg;
      match P.Repl.to_follower_of_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check string)
          "to_follower"
          (Format.asprintf "%a" P.Repl.pp_to_follower msg)
          (Format.asprintf "%a" P.Repl.pp_to_follower back)
      | Error e -> Alcotest.fail e)
    [
      P.Repl.Init_snapshot { epoch = 5; seq = 10; state = "\x00\x01binary" };
      P.Repl.Init_resume { epoch = 5; seq = 10 };
      P.Repl.Rep_op { seq = 11; op = P.Op.Connect c };
      P.Repl.Rep_op { seq = 12; op = P.Op.Disconnect 3 };
      P.Repl.Rep_digest { seq = 64; digest = 123456 };
      P.Repl.Goodbye { reason = "slow follower" };
    ]

let test_promote_request_roundtrip () =
  let b = Buffer.create 16 in
  P.Resp.encode_request b P.Resp.Promote;
  let r = P.Wire.reader (Buffer.contents b) in
  (match P.Resp.decode_request r with
  | P.Resp.Promote -> ()
  | _ -> Alcotest.fail "Promote changed shape over the codec");
  P.Wire.expect_end r;
  List.iter
    (fun resp ->
      let b = Buffer.create 32 in
      P.Resp.encode b resp;
      match P.Resp.decode_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check bool)
          (Format.asprintf "%a" P.Resp.pp resp)
          true (P.Resp.equal resp back)
      | Error e -> Alcotest.fail e)
    [
      P.Resp.Not_leader { leader = "tcp:10.0.0.1:7000" };
      P.Resp.Not_leader { leader = "" };
      P.Resp.Promoted { seq = 12345 };
    ]

let test_mark_roundtrip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Filename.concat dir "follower.wal" in
  Alcotest.(check bool) "no mark yet" true (P.Repl.load_mark ~wal = None);
  P.Repl.save_mark ~wal { P.Repl.epoch = 77; base_seq = 42 };
  (match P.Repl.load_mark ~wal with
  | Some { P.Repl.epoch = 77; base_seq = 42 } -> ()
  | Some m ->
    Alcotest.fail
      (Printf.sprintf "wrong mark: epoch %d base %d" m.P.Repl.epoch
         m.P.Repl.base_seq)
  | None -> Alcotest.fail "mark did not load");
  (* overwrite is atomic and wins *)
  P.Repl.save_mark ~wal { P.Repl.epoch = 78; base_seq = 100 };
  (match P.Repl.load_mark ~wal with
  | Some { P.Repl.epoch = 78; base_seq = 100 } -> ()
  | _ -> Alcotest.fail "overwritten mark did not load");
  (* damage reads as None, never an exception *)
  let oc = open_out (P.Repl.mark_path ~wal) in
  output_string oc "not a mark file";
  close_out oc;
  Alcotest.(check bool) "corrupt mark is None" true
    (P.Repl.load_mark ~wal = None);
  P.Repl.remove_mark ~wal;
  Alcotest.(check bool) "removed" true (P.Repl.load_mark ~wal = None);
  (* removing a removed mark is fine *)
  P.Repl.remove_mark ~wal

(* --- follower catch-up over the wire -------------------------------------- *)

let churn_steps = 400
let seed = 20260807

let run_churn ~sink sut =
  Churn.run ~telemetry:sink
    (Random.State.make [| seed |])
    ~spec:(Topology.spec topo) ~model:Model.MSW
    ~fanout:(Wdm_traffic.Fanout.Zipf { max = 6; s = 1.0 })
    ~steps:churn_steps ~teardown_bias:0.3 sut

let inproc_sut net checksum =
  {
    Churn.connect =
      (fun c ->
        match Network.connect net c with
        | Ok route ->
          checksum := P.Op.route_checksum !checksum route;
          Ok route.Network.id
        | Error e -> Error e);
    disconnect = (fun id -> ignore (Network.disconnect net id));
  }

let test_follower_catches_up () =
  let leader_sink = Tel.Sink.create () in
  let follower_sink = Tel.Sink.create () in
  let leader =
    Srv.Server.start ~telemetry:leader_sink ~digest_every:32
      ~net:(make_net Network.Bitset) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader) @@ fun () ->
  let follower =
    Srv.Server.start ~telemetry:follower_sink
      ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
      ~net:(make_net Network.Bitset) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  Alcotest.(check bool) "follower role" true
    (Srv.Server.role follower = Srv.Server.Follower);
  Alcotest.(check bool) "leader role" true
    (Srv.Server.role leader = Srv.Server.Leader);
  (* wait for the subscription handshake (snapshot sent) before the
     churn starts, so every churn op travels the stream — otherwise
     early ops ride the snapshot and the sent-ops counter undershoots *)
  Alcotest.(check bool) "follower linked" true
    (wait_for (fun () ->
         counter_of leader_sink "repl_snapshots_sent_total" >= 1));
  (* drive a seeded churn against the leader *)
  with_client leader (fun c ->
      ignore (run_churn ~sink:(Tel.Sink.create ()) (Srv.Client.churn_sut c)));
  let target = Srv.Server.applied leader in
  Alcotest.(check bool) "leader committed ops" true (target > 0);
  (* the follower converges to the same op count and the same state *)
  Alcotest.(check bool) "follower caught up" true
    (wait_for (fun () -> Srv.Server.applied follower >= target));
  let leader_digest = with_client leader Srv.Client.digest in
  let follower_digest = with_client follower Srv.Client.digest in
  (match (leader_digest, follower_digest) with
  | Ok a, Ok b -> Alcotest.(check int) "digest equal across roles" a b
  | _ -> Alcotest.fail "digest request failed");
  (* a mutation at the follower is refused with a typed redirect *)
  with_client follower (fun c ->
      match
        Srv.Client.request c
          (P.Resp.Admit (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ])))
      with
      | Ok (P.Resp.Not_leader _) -> ()
      | Ok resp ->
        Alcotest.fail
          (Format.asprintf "expected Not_leader, got %a" P.Resp.pp resp)
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
  (* promoting the leader itself is refused *)
  with_client leader (fun c ->
      match Srv.Client.promote c with
      | Error (Srv.Client.Protocol _) -> ()
      | Ok _ -> Alcotest.fail "promoting the leader should fail"
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
  (* telemetry: the leader counted the stream, the follower the applies *)
  Alcotest.(check int) "one snapshot sent" 1
    (counter_of leader_sink "repl_snapshots_sent_total");
  Alcotest.(check bool) "ops streamed" true
    (counter_of leader_sink "repl_ops_sent_total" >= target);
  Alcotest.(check int) "one snapshot received" 1
    (counter_of follower_sink "repl_snapshots_received_total");
  Alcotest.(check bool) "digests verified" true
    (counter_of leader_sink "repl_digest_checks_total" > 0);
  Alcotest.(check int) "no digest failures" 0
    (counter_of leader_sink "repl_digest_failures_total");
  Alcotest.(check int) "no follower mismatches" 0
    (counter_of follower_sink "repl_digest_mismatch_total")

(* --- slow-follower eviction ----------------------------------------------- *)

(* A fake follower: subscribes, reads the snapshot, then goes silent.
   The leader's outbox (capped tight here) fills behind the tiny
   SO_SNDBUF and the leader must evict — admission never stalls. *)
let test_slow_follower_eviction () =
  let sink = Tel.Sink.create () in
  let srv =
    Srv.Server.start ~telemetry:sink ~outbox_capacity:8 ~conn_sndbuf:4096
      ~net:(make_net Network.Bitset) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) @@ fun () ->
  let path =
    match Srv.Server.address srv with
    | Srv.Server.Unix_socket p -> p
    | Srv.Server.Tcp _ -> Alcotest.fail "expected unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Srv.Protocol.write_all fd Srv.Protocol.follower_hello;
  (match Srv.Protocol.read_exactly fd P.Wire.header_len with
  | Srv.Protocol.Exact hello ->
    Alcotest.(check bool) "server hello" true
      (Result.is_ok (Srv.Protocol.check_server_hello hello))
  | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ ->
    Alcotest.fail "no server hello");
  let b = Buffer.create 32 in
  P.Repl.encode_to_leader b (P.Repl.Subscribe { epoch = 0; last_seq = -1 });
  Srv.Protocol.send_frame fd (Buffer.contents b);
  (match Srv.Protocol.recv_frame fd with
  | Srv.Protocol.Frame payload -> (
    match P.Repl.to_follower_of_string payload with
    | Ok (P.Repl.Init_snapshot _) -> ()
    | Ok msg ->
      Alcotest.fail
        (Format.asprintf "expected Init_snapshot, got %a" P.Repl.pp_to_follower
           msg)
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "no init frame");
  (* ... and now the fake follower never reads again *)
  with_client srv (fun c ->
      let connection = conn (ep 1 1) [ ep 4 1 ] in
      let evicted = ref false in
      let rounds = ref 0 in
      while (not !evicted) && !rounds < 20_000 do
        incr rounds;
        (match Srv.Client.request c (P.Resp.Admit (P.Op.Connect connection)) with
        | Ok (P.Resp.Admitted { route; _ }) ->
          ignore
            (Srv.Client.request c
               (P.Resp.Admit (P.Op.Disconnect route.Network.id)))
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
        if !rounds mod 50 = 0 then
          evicted := counter_of sink "repl_evictions_total" > 0
      done;
      Alcotest.(check bool) "slow follower evicted" true
        (!evicted || counter_of sink "repl_evictions_total" > 0);
      (* the leader kept serving throughout and still answers *)
      match Srv.Client.digest c with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e))

(* --- the follower's dial path ----------------------------------------------- *)

let converged leader follower =
  wait_for (fun () -> Srv.Server.applied follower = Srv.Server.applied leader)
  &&
  match
    (with_client leader Srv.Client.digest, with_client follower Srv.Client.digest)
  with
  | Ok a, Ok b -> a = b
  | _ -> false

(* A follower started before its leader exists keeps redialling with
   backoff; once the leader binds it links up and converges.  When the
   leader restarts on the same address the follower redials it and
   converges again. *)
let test_follower_dials_late_and_redials () =
  let addr = sock () in
  let follower_sink = Tel.Sink.create () in
  let follower =
    Srv.Server.start ~telemetry:follower_sink
      ~follower:{ Srv.Server.leader = addr; wal = None }
      ~net:(make_net Network.Bitset) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  (* a few dials against nothing *)
  Thread.delay 0.15;
  let net = make_net Network.Bitset in
  let leader = Srv.Server.start ~net addr in
  let leader_up = ref true in
  Fun.protect ~finally:(fun () -> if !leader_up then Srv.Server.stop leader)
  @@ fun () ->
  with_client leader (fun c ->
      ignore (run_churn ~sink:(Tel.Sink.create ()) (Srv.Client.churn_sut c)));
  Alcotest.(check bool) "leader committed ops" true
    (Srv.Server.applied leader > 0);
  Alcotest.(check bool) "follower converged to the late leader" true
    (converged leader follower);
  (* restart the leader on the same address, over the same state *)
  Srv.Server.stop leader;
  leader_up := false;
  let leader2 = Srv.Server.start ~net addr in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader2) @@ fun () ->
  with_client leader2 (fun c ->
      for i = 1 to 3 do
        ignore
          (Srv.Client.request c
             (P.Resp.Admit (P.Op.Connect (conn (ep i 2) [ ep (i + 3) 2 ]))))
      done);
  Alcotest.(check bool) "follower converged to the restarted leader" true
    (converged leader2 follower);
  Alcotest.(check bool) "the link was re-established" true
    (counter_of follower_sink "repl_reconnects_total" >= 1)

(* A leader whose first snapshot is damaged — [m] flipped to
   13,303,818 on a 32x192x32 k=2 fabric — must not take the follower
   down: it refuses the state, redials demanding a snapshot, and
   installs the intact one the next link delivers. *)
let test_follower_resyncs_on_damaged_snapshot () =
  let source =
    Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
      (Topology.make_exn ~n:32 ~m:192 ~r:32 ~k:2)
  in
  ignore (Network.connect source (conn (ep 1 1) [ ep 40 1; ep 900 2 ]));
  let good = P.Backend.encode_state (P.Backend.Net source) in
  let bad =
    let b = Bytes.of_string good in
    Bytes.set_int32_le b 4 (Int32.of_int 13_303_818);
    Bytes.to_string b
  in
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let links = ref [] and subscribes = ref [] in
  (* a scripted leader: one link per state, in order *)
  let serve_link state =
    let fd, _ = Unix.accept lfd in
    links := fd :: !links;
    (match Srv.Protocol.read_exactly fd P.Wire.header_len with
    | Srv.Protocol.Exact hello
      when Srv.Protocol.check_follower_hello hello = Ok () -> ()
    | _ -> failwith "no follower hello");
    Srv.Protocol.write_all fd Srv.Protocol.server_hello;
    (match Srv.Protocol.recv_frame fd with
    | Srv.Protocol.Frame p -> (
      match P.Repl.to_leader_of_string p with
      | Ok (P.Repl.Subscribe { last_seq; _ }) ->
        subscribes := last_seq :: !subscribes
      | _ -> failwith "expected Subscribe")
    | _ -> failwith "no subscribe frame");
    let b = Buffer.create 256 in
    P.Repl.encode_to_follower b
      (P.Repl.Init_snapshot { epoch = 7; seq = 5; state });
    Srv.Protocol.send_frame fd (Buffer.contents b)
  in
  let script =
    Thread.create
      (fun () ->
        try
          serve_link bad;
          serve_link good
        with Failure _ | Unix.Unix_error _ -> ())
      ()
  in
  let sink = Tel.Sink.create () in
  let follower =
    Srv.Server.start ~telemetry:sink
      ~follower:{ Srv.Server.leader = Srv.Server.Unix_socket path; wal = None }
      ~net:(make_net Network.Bitset) (sock ())
  in
  Fun.protect
    ~finally:(fun () ->
      Srv.Server.stop follower;
      Thread.join script;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !links;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Alcotest.(check bool) "intact snapshot installed" true
    (wait_for (fun () -> Srv.Server.applied follower = 5));
  Alcotest.(check (list int)) "both subscribes demanded a snapshot" [ -1; -1 ]
    !subscribes;
  Alcotest.(check int) "one snapshot installed" 1
    (counter_of sink "repl_snapshots_received_total");
  match with_client follower Srv.Client.digest with
  | Ok d ->
    Alcotest.(check int) "serves the intact state" (P.Store.digest source) d
  | Error e -> Alcotest.fail (Srv.Client.error_to_string e)

(* --- client deadlines ------------------------------------------------------ *)

let test_connect_timeout () =
  (* a listener that never completes the handshake: the dial succeeds,
     the hello read must hit the deadline, not hang *)
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let t0 = Unix.gettimeofday () in
  match Srv.Client.connect ~deadline:0.2 (Srv.Server.Unix_socket path) with
  | Error Srv.Client.Timeout ->
    Alcotest.(check bool) "timed out promptly" true
      (Unix.gettimeofday () -. t0 < 5.0)
  | Ok c ->
    Srv.Client.close c;
    Alcotest.fail "handshake against a mute listener should time out"
  | Error e ->
    Alcotest.fail ("expected Timeout, got: " ^ Srv.Client.error_to_string e)

let test_request_timeout_closes_client () =
  (* a server that handshakes, then sits on the request *)
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        (match Srv.Protocol.read_exactly fd P.Wire.header_len with
        | Srv.Protocol.Exact _ ->
          Srv.Protocol.write_all fd Srv.Protocol.server_hello;
          (* hold the connection open well past the client deadline *)
          Thread.delay 0.6
        | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      Thread.join server)
  @@ fun () ->
  match Srv.Client.connect (Srv.Server.Unix_socket path) with
  | Error e -> Alcotest.fail ("connect: " ^ Srv.Client.error_to_string e)
  | Ok c ->
    (match Srv.Client.request ~deadline:0.2 c P.Resp.Get_digest with
    | Error Srv.Client.Timeout -> ()
    | Ok _ -> Alcotest.fail "unanswered request should time out"
    | Error e ->
      Alcotest.fail ("expected Timeout, got: " ^ Srv.Client.error_to_string e));
    (* the deadline expiring mid-exchange desyncs the stream: the
       client must be closed, and say so *)
    (match Srv.Client.request c P.Resp.Get_digest with
    | Error Srv.Client.Closed -> ()
    | _ -> Alcotest.fail "client should fail fast after a timeout");
    Srv.Client.close c

(* --- store resume and WAL truncation -------------------------------------- *)

let test_store_resume_continues_wal () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Filename.concat dir "resume.wal" in
  let net = make_net Network.Bitset in
  let store = P.Store.start ~wal net in
  let log op =
    ignore (P.Op.apply net op);
    P.Store.log store op
  in
  log (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  log (P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]));
  P.Store.close store;
  (* reopen the same WAL in append mode *)
  match P.Store.resume ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok (store2, r) ->
    Alcotest.(check int) "replayed the tail" 2 r.P.Store.replayed;
    Alcotest.(check int) "same state" (P.Store.digest net)
      (P.Store.digest r.P.Store.network);
    Alcotest.(check int) "record count continues" 2
      (P.Store.wal_records store2);
    let net2 = r.P.Store.network in
    ignore (P.Op.apply net2 (P.Op.Connect (conn (ep 3 1) [ ep 6 1 ])));
    P.Store.log store2 (P.Op.Connect (conn (ep 3 1) [ ep 6 1 ]));
    Alcotest.(check int) "appended" 3 (P.Store.wal_records store2);
    let final = P.Store.digest net2 in
    P.Store.close store2;
    (* the continued WAL recovers to the continued state *)
    (match P.Store.recover ~wal () with
    | Ok r2 ->
      Alcotest.(check int) "recovered digest" final
        (P.Store.digest r2.P.Store.network)
    | Error e ->
      Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e))

let test_wal_truncate_fsyncs_the_cut () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "torn.wal" in
  let w = P.Wal.create path in
  P.Wal.append w (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  P.Wal.append w (P.Op.Disconnect 0);
  P.Wal.close w;
  (* graft a torn record on the end *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
  output_string oc "\x40\x00\x00\x00\xde\xad";
  close_out oc;
  let tear =
    match P.Wal.read path with
    | Ok { P.Wal.ops; tear = Some off } ->
      Alcotest.(check int) "intact records" 2 (List.length ops);
      off
    | Ok { tear = None; _ } -> Alcotest.fail "tear not detected"
    | Error e -> Alcotest.fail e
  in
  P.Wal.truncate_at path tear;
  Alcotest.(check int) "file cut at the tear" tear
    (Unix.stat path).Unix.st_size;
  (match P.Wal.read path with
  | Ok { P.Wal.ops; tear = None } ->
    Alcotest.(check int) "records survive the cut" 2 (List.length ops)
  | Ok { tear = Some _; _ } -> Alcotest.fail "tear survived truncation"
  | Error e -> Alcotest.fail e);
  (* and the truncated WAL accepts appends again *)
  let w2 = P.Wal.open_append ~records:2 path in
  P.Wal.append w2 (P.Op.Disconnect 1);
  Alcotest.(check int) "count seeded" 3 (P.Wal.records w2);
  P.Wal.close w2;
  match P.Wal.read path with
  | Ok { P.Wal.ops; tear = None } ->
    Alcotest.(check int) "appended past the cut" 3 (List.length ops)
  | Ok { tear = Some _; _ } -> Alcotest.fail "append left a tear"
  | Error e -> Alcotest.fail e

(* --- the acceptance test: failover under churn ----------------------------- *)

let test_failover_preserves_state () =
  (* reference: the same seeded churn, one process, no failover *)
  let ref_net = make_net Network.Bitset in
  let ref_sum = ref 0 in
  let ref_stats =
    run_churn ~sink:(Tel.Sink.create ()) (inproc_sut ref_net ref_sum)
  in
  let ref_digest = P.Store.digest ref_net in
  (* system under test: leader + follower, leader dies mid-run *)
  let leader =
    Srv.Server.start ~digest_every:16 ~net:(make_net Network.Bitset) (sock ())
  in
  let follower =
    Srv.Server.start
      ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
      ~net:(make_net Network.Bitset) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  let rc =
    Srv.Resilient.create ~dial_timeout:2.0 ~deadline:10.0
      [ Srv.Server.address leader; Srv.Server.address follower ]
  in
  Fun.protect ~finally:(fun () -> Srv.Resilient.close rc) @@ fun () ->
  let sum = ref 0 in
  let base =
    Srv.Resilient.churn_sut
      ~on_admit:(fun route -> sum := P.Op.route_checksum !sum route)
      rc
  in
  (* kill the leader at the 200th sut call — an op boundary: the
     graceful stop answers everything already executed, so the client
     never replays an applied op against the new leader *)
  let calls = ref 0 in
  let kill_at = 200 in
  let failover () =
    incr calls;
    if !calls = kill_at then begin
      Srv.Server.stop leader;
      let target = Srv.Server.applied leader in
      Alcotest.(check bool)
        "follower caught up before promotion" true
        (wait_for (fun () -> Srv.Server.applied follower >= target));
      match Srv.Server.promote follower with
      | Ok seq -> Alcotest.(check int) "promoted at the leader's seq" target seq
      | Error e -> Alcotest.fail ("promote: " ^ e)
    end
  in
  let sut =
    {
      Churn.connect =
        (fun c ->
          failover ();
          base.Churn.connect c);
      disconnect =
        (fun id ->
          failover ();
          base.Churn.disconnect id);
    }
  in
  let stats = run_churn ~sink:(Tel.Sink.create ()) sut in
  Alcotest.(check bool) "failover actually happened" true (!calls > kill_at);
  Alcotest.(check bool) "client healed itself" true
    (Srv.Resilient.reconnects rc > 0);
  Alcotest.(check bool) "new leader accepted mutations" true
    (Srv.Server.role follower = Srv.Server.Leader);
  (* the interrupted run is indistinguishable from the uninterrupted
     one: same driver tallies, same routes, same final state *)
  Alcotest.(check int) "attempts" ref_stats.Churn.attempts stats.Churn.attempts;
  Alcotest.(check int) "accepted" ref_stats.Churn.accepted stats.Churn.accepted;
  Alcotest.(check int) "blocked" ref_stats.Churn.blocked stats.Churn.blocked;
  Alcotest.(check int) "torn down" ref_stats.Churn.torn_down
    stats.Churn.torn_down;
  Alcotest.(check int) "route checksums" !ref_sum !sum;
  match Srv.Resilient.digest rc with
  | Ok d -> Alcotest.(check int) "digest equals uninterrupted run" ref_digest d
  | Error e -> Alcotest.fail (Srv.Client.error_to_string e)

(* A follower with its own WAL restarts from disk (mark + WAL) and
   resumes the stream instead of refetching a snapshot. *)
let test_follower_wal_resume () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Filename.concat dir "follower.wal" in
  let leader_sink = Tel.Sink.create () in
  let leader =
    Srv.Server.start ~telemetry:leader_sink ~net:(make_net Network.Bitset)
      (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader) @@ fun () ->
  let follower_cfg =
    { Srv.Server.leader = Srv.Server.address leader; wal = Some wal }
  in
  let follower =
    Srv.Server.start ~follower:follower_cfg ~net:(make_net Network.Bitset)
      (sock ())
  in
  (* phase 1: commit some ops, let the follower persist them *)
  with_client leader (fun c ->
      List.iter
        (fun op -> ignore (Srv.Client.request c (P.Resp.Admit op)))
        [
          P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]);
          P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]);
          P.Op.Connect (conn (ep 3 1) [ ep 6 1 ]);
        ]);
  let target = Srv.Server.applied leader in
  Alcotest.(check bool) "follower caught up" true
    (wait_for (fun () -> Srv.Server.applied follower >= target));
  Srv.Server.stop follower;
  (match Srv.Server.current_store follower with
  | Some store -> P.Store.close store
  | None -> Alcotest.fail "follower with a wal should own a store");
  Alcotest.(check bool) "mark persisted" true (P.Repl.load_mark ~wal <> None);
  (* phase 2: more ops while the follower is down *)
  with_client leader (fun c ->
      ignore (Srv.Client.request c (P.Resp.Admit (P.Op.Disconnect 0))));
  let target2 = Srv.Server.applied leader in
  (* phase 3: restart from disk — the leader must answer with a
     resume, not a snapshot *)
  let snapshots_before = counter_of leader_sink "repl_snapshots_sent_total" in
  let follower2 =
    Srv.Server.start ~follower:follower_cfg ~net:(make_net Network.Bitset)
      (sock ())
  in
  Fun.protect
    ~finally:(fun () ->
      Srv.Server.stop follower2;
      match Srv.Server.current_store follower2 with
      | Some store -> P.Store.close store
      | None -> ())
  @@ fun () ->
  Alcotest.(check bool) "restarted follower caught up" true
    (wait_for (fun () -> Srv.Server.applied follower2 >= target2));
  Alcotest.(check bool) "leader resumed, no new snapshot" true
    (wait_for (fun () -> counter_of leader_sink "repl_resumes_total" > 0));
  Alcotest.(check int) "snapshot count unchanged" snapshots_before
    (counter_of leader_sink "repl_snapshots_sent_total");
  let leader_digest = with_client leader Srv.Client.digest in
  let follower_digest = with_client follower2 Srv.Client.digest in
  match (leader_digest, follower_digest) with
  | Ok a, Ok b -> Alcotest.(check int) "digest equal after resume" a b
  | _ -> Alcotest.fail "digest request failed"

let () =
  Alcotest.run "wdm_replication"
    [
      ( "codec",
        [
          Alcotest.test_case "to_leader roundtrip" `Quick
            test_to_leader_roundtrip;
          Alcotest.test_case "to_follower roundtrip" `Quick
            test_to_follower_roundtrip;
          Alcotest.test_case "promote request/response" `Quick
            test_promote_request_roundtrip;
          Alcotest.test_case "follower mark" `Quick test_mark_roundtrip;
        ] );
      ( "replication",
        [
          Alcotest.test_case "follower catches up" `Quick
            test_follower_catches_up;
          Alcotest.test_case "slow follower evicted" `Quick
            test_slow_follower_eviction;
          Alcotest.test_case "follower wal resume" `Quick
            test_follower_wal_resume;
          Alcotest.test_case "follower dials late and redials" `Quick
            test_follower_dials_late_and_redials;
          Alcotest.test_case "follower resyncs on a damaged snapshot" `Quick
            test_follower_resyncs_on_damaged_snapshot;
        ] );
      ( "client",
        [
          Alcotest.test_case "connect timeout" `Quick test_connect_timeout;
          Alcotest.test_case "request timeout closes client" `Quick
            test_request_timeout_closes_client;
        ] );
      ( "store",
        [
          Alcotest.test_case "resume continues the WAL" `Quick
            test_store_resume_continues_wal;
          Alcotest.test_case "truncate fsyncs the cut" `Quick
            test_wal_truncate_fsyncs_the_cut;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill leader, promote, same digest" `Quick
            test_failover_preserves_state;
        ] );
    ]
