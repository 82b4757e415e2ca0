(* The control-plane service layer: wire codec roundtrips, and the
   acceptance criterion for `wdmnet serve` — a seeded churn driven
   through a loopback server is indistinguishable from the same seed
   driven in-process: byte-identical routes (hop checksums), the same
   admission/refusal tallies, the same telemetry counters, and the
   same whole-state digest, on both link-state implementations. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Srv = Wdm_server
module Tel = Wdm_telemetry
module Churn = Wdm_traffic.Churn

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

(* Undersized below the Theorem-1 minimum so churn produces both
   admissions and refusals — the refusal path must cross the wire too. *)
let topo = Topology.make_exn ~n:3 ~m:4 ~r:3 ~k:2

let make_net ?telemetry impl =
  Network.create
    ~config:{ Network.Config.default with telemetry; link_impl = Some impl }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW topo

let socket_path =
  (* Unix-socket paths are length-limited; keep it in /tmp, unique per
     test-case invocation *)
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdmnet_test_%d_%d.sock" (Unix.getpid ()) !counter)

let with_server ?telemetry ?store net f =
  let srv =
    Srv.Server.start ?telemetry ?store ~net (Srv.Server.Unix_socket (socket_path ()))
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) (fun () -> f srv)

let with_client srv f =
  match Srv.Client.connect (Srv.Server.address srv) with
  | Error e ->
    Alcotest.fail ("client connect: " ^ Srv.Client.error_to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Srv.Client.close c) (fun () -> f c)

(* --- codec roundtrips ---------------------------------------------------- *)

let roundtrip_request req =
  let b = Buffer.create 64 in
  P.Resp.encode_request b req;
  let r = P.Wire.reader (Buffer.contents b) in
  let back = P.Resp.decode_request r in
  P.Wire.expect_end r;
  back

let test_request_roundtrip () =
  let c = conn (ep 1 1) [ ep 2 1; ep 5 1 ] in
  List.iter
    (fun req ->
      match (req, roundtrip_request req) with
      | P.Resp.Admit a, P.Resp.Admit b ->
        Alcotest.(check bool) "op" true (P.Op.equal a b)
      | P.Resp.Get_digest, P.Resp.Get_digest
      | P.Resp.Get_stats, P.Resp.Get_stats -> ()
      | _ -> Alcotest.fail "request changed shape over the codec")
    [
      P.Resp.Admit (P.Op.Connect c);
      P.Resp.Admit (P.Op.Disconnect 42);
      P.Resp.Admit (P.Op.Inject_fault (Wdm_faults.Fault.Middle 2));
      P.Resp.Admit
        (P.Op.Clear_fault
           (Wdm_faults.Fault.Stage1_laser { input = 1; middle = 2; wl = 1 }));
      P.Resp.Admit (P.Op.Repair { connection = c; rehomed = true });
      P.Resp.Get_digest;
      P.Resp.Get_stats;
    ]

let test_response_roundtrip () =
  let net = make_net Network.Bitset in
  let route = Result.get_ok (Network.connect net (conn (ep 1 1) [ ep 4 1 ])) in
  let responses =
    [
      P.Resp.Admitted { route; moved = 3 };
      P.Resp.Refused
        (Network.Invalid (Assignment.Source_reused (ep 1 1)));
      P.Resp.Refused
        (Network.Invalid
           (Assignment.Model_violation
              { model = Model.MSW; connection = conn (ep 1 1) [ ep 2 2 ] }));
      P.Resp.Refused (Network.Source_busy (ep 1 1));
      P.Resp.Refused (Network.Destination_busy (ep 2 2));
      P.Resp.Refused (Network.Unserviceable (Wdm_faults.Fault.Middle 1));
      P.Resp.Refused
        (Network.Blocked
           {
             fanout_switches = [ 1; 3 ];
             available_middles = [ 2; 4 ];
             uncovered = [ 3 ];
           });
      P.Resp.Released route;
      P.Resp.Release_failed (Network.Unknown_route 99);
      P.Resp.Release_failed (Network.Already_released 7);
      P.Resp.Fault_applied { torn_down = 2 };
      P.Resp.Fault_cleared;
      P.Resp.Digest_is 123456789;
      P.Resp.Stats_json "{\"a\": 1}";
      P.Resp.Server_error "tea kettle on fire";
    ]
  in
  List.iter
    (fun resp ->
      let b = Buffer.create 64 in
      P.Resp.encode b resp;
      match P.Resp.decode_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check bool)
          (Format.asprintf "%a" P.Resp.pp resp)
          true (P.Resp.equal resp back)
      | Error e -> Alcotest.fail e)
    responses

(* --- basic served requests ----------------------------------------------- *)

let test_serve_basic () =
  let net = make_net Network.Bitset in
  with_server net (fun srv ->
      with_client srv (fun c ->
          (* connect, disconnect, double-disconnect: typed results *)
          let route =
            match
              Srv.Client.request c
                (P.Resp.Admit (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ])))
            with
            | Ok (P.Resp.Admitted { route; moved = 0 }) -> route
            | other ->
              Alcotest.fail
                (Format.asprintf "connect: %a"
                   Fmt.(result ~ok:P.Resp.pp ~error:Srv.Client.pp_error)
                   other)
          in
          (* the served route must equal the one the same request yields
             in-process on a twin network *)
          let twin = make_net Network.Bitset in
          let local =
            Result.get_ok (Network.connect twin (conn (ep 1 1) [ ep 4 1 ]))
          in
          Alcotest.(check bool) "route equals in-process twin" true
            (route = local);
          (match
             Srv.Client.request c
               (P.Resp.Admit (P.Op.Disconnect route.Network.id))
           with
          | Ok (P.Resp.Released r) ->
            Alcotest.(check int) "released id" route.Network.id r.Network.id
          | _ -> Alcotest.fail "disconnect");
          (match
             Srv.Client.request c
               (P.Resp.Admit (P.Op.Disconnect route.Network.id))
           with
          | Ok (P.Resp.Release_failed (Network.Already_released id)) ->
            Alcotest.(check int) "already-released id" route.Network.id id
          | _ -> Alcotest.fail "double disconnect should be Already_released");
          (match Srv.Client.request c (P.Resp.Admit (P.Op.Disconnect 999)) with
          | Ok (P.Resp.Release_failed (Network.Unknown_route 999)) -> ()
          | _ -> Alcotest.fail "unknown id should be Unknown_route");
          (* fault round trip *)
          let f = Wdm_faults.Fault.Middle 1 in
          (match Srv.Client.request c (P.Resp.Admit (P.Op.Inject_fault f)) with
          | Ok (P.Resp.Fault_applied { torn_down = 0 }) -> ()
          | _ -> Alcotest.fail "inject");
          (match Srv.Client.request c (P.Resp.Admit (P.Op.Clear_fault f)) with
          | Ok P.Resp.Fault_cleared -> ()
          | _ -> Alcotest.fail "clear");
          (* out-of-range fault indices answer Server_error, and the
             connection survives *)
          (match
             Srv.Client.request c
               (P.Resp.Admit (P.Op.Inject_fault (Wdm_faults.Fault.Middle 99)))
           with
          | Ok (P.Resp.Server_error _) -> ()
          | _ -> Alcotest.fail "bad fault should be Server_error");
          (* digest matches the live network *)
          match Srv.Client.digest c with
          | Ok d -> Alcotest.(check int) "digest" (P.Store.digest net) d
          | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))

let test_malformed_frame_closes_connection () =
  let net = make_net Network.Bitset in
  with_server net (fun srv ->
      let path =
        match Srv.Server.address srv with
        | Srv.Server.Unix_socket p -> p
        | Srv.Server.Tcp _ -> Alcotest.fail "expected unix socket"
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          Srv.Protocol.write_all fd Srv.Protocol.client_hello;
          (match Srv.Protocol.read_exactly fd P.Wire.header_len with
          | Srv.Protocol.Exact hello ->
            Alcotest.(check bool) "server hello" true
              (Result.is_ok (Srv.Protocol.check_server_hello hello))
          | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ ->
            Alcotest.fail "no server hello");
          (* a well-framed but undecodable payload *)
          Srv.Protocol.send_frame fd "\xEE garbage";
          (match Srv.Protocol.recv_frame fd with
          | Srv.Protocol.Frame payload -> (
            match P.Resp.decode_string payload with
            | Ok (P.Resp.Server_error _) -> ()
            | _ -> Alcotest.fail "expected Server_error response")
          | _ -> Alcotest.fail "expected a response frame");
          (* ... after which the server hangs up *)
          match Srv.Protocol.recv_frame fd with
          | Srv.Protocol.Eof -> ()
          | _ -> Alcotest.fail "expected EOF after protocol violation"))

let test_silent_client_does_not_block_accept () =
  let net = make_net Network.Bitset in
  with_server net (fun srv ->
      let path =
        match Srv.Server.address srv with
        | Srv.Server.Unix_socket p -> p
        | Srv.Server.Tcp _ -> Alcotest.fail "expected unix socket"
      in
      (* a peer that connects and never says hello must not hold the
         accept loop hostage: a later, well-behaved client still gets
         served *)
      let silent = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close silent with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect silent (Unix.ADDR_UNIX path);
          with_client srv (fun c ->
              match Srv.Client.digest c with
              | Ok d ->
                Alcotest.(check int) "digest served" (P.Store.digest net) d
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e))))
(* ... and [with_server]'s finally returning at all is the other half
   of the regression: [stop] must not hang joining an accept thread
   stuck in a handshake read. *)

let test_client_fails_fast_after_transport_error () =
  let net = make_net Network.Bitset in
  let srv = Srv.Server.start ~net (Srv.Server.Unix_socket (socket_path ())) in
  let c =
    match Srv.Client.connect (Srv.Server.address srv) with
    | Ok c -> c
    | Error e ->
      Alcotest.fail ("client connect: " ^ Srv.Client.error_to_string e)
  in
  Srv.Server.stop srv;
  (match Srv.Client.request c P.Resp.Get_digest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request against a stopped server should fail");
  (* the transport error must have closed the client: the next request
     fails fast instead of misframing against a dead byte stream *)
  (match Srv.Client.request c P.Resp.Get_digest with
  | Error Srv.Client.Closed -> ()
  | Error e ->
    Alcotest.fail ("expected fail-fast, got: " ^ Srv.Client.error_to_string e)
  | Ok _ -> Alcotest.fail "request after transport error should fail");
  Srv.Client.close c

(* --- socket hardening ----------------------------------------------------- *)

let unix_path srv =
  match Srv.Server.address srv with
  | Srv.Server.Unix_socket p -> p
  | Srv.Server.Tcp _ -> Alcotest.fail "expected unix socket"

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Srv.Protocol.write_all fd Srv.Protocol.client_hello;
  (match Srv.Protocol.read_exactly fd P.Wire.header_len with
  | Srv.Protocol.Exact hello ->
    Alcotest.(check bool) "server hello" true
      (Result.is_ok (Srv.Protocol.check_server_hello hello))
  | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ ->
    Alcotest.fail "no server hello");
  fd

(* A peer that dies mid-frame — complete header promising a payload,
   then EOF — must read as a protocol violation ([Bad], counted in
   [server_malformed_total]), not kill anything server-side: the next
   client is served as if nothing happened. *)
let test_half_frame_then_close () =
  let sink = Tel.Sink.create () in
  let net = make_net Network.Bitset in
  with_server ~telemetry:sink net (fun srv ->
      let fd = raw_connect (unix_path srv) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* header says 64 payload bytes; send 5 and hang up *)
          let full = P.Wire.frame (String.make 64 'x') in
          Srv.Protocol.write_all fd
            (String.sub full 0 (P.Wire.header_len + 5));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          (* the violation is answered (best effort) and the conn closed *)
          (match Srv.Protocol.recv_frame fd with
          | Srv.Protocol.Frame payload -> (
            match P.Resp.decode_string payload with
            | Ok (P.Resp.Server_error _) -> ()
            | _ -> Alcotest.fail "expected Server_error for the torn frame")
          | Srv.Protocol.Eof -> () (* response raced the hangup: fine *)
          | Srv.Protocol.Bad e -> Alcotest.fail ("bad frame back: " ^ e));
          (* server is alive and clean for the next client *)
          with_client srv (fun c ->
              match Srv.Client.digest c with
              | Ok d -> Alcotest.(check int) "still serving" (P.Store.digest net) d
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e))));
  let snap = Tel.Sink.snapshot sink in
  Alcotest.(check int) "malformed counted" 1
    (Option.value ~default:(-1)
       (Tel.Metrics.find_counter snap "server_malformed_total"))

(* The client side of the same coin: a server that closes mid-response
   must surface as a typed [Transport] error (and [Closed] thereafter),
   not a SIGPIPE process death or an escaping exception.  The fake
   server answers the hello, reads the request, then returns half a
   frame header and hangs up. *)
let test_peer_close_mid_request () =
  let path = socket_path () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let fake =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        (match Srv.Protocol.read_exactly fd P.Wire.header_len with
        | Srv.Protocol.Exact _ -> ()
        | _ -> ());
        Srv.Protocol.write_all fd Srv.Protocol.server_hello;
        (* swallow the request frame, then tear the response *)
        (match Srv.Protocol.recv_frame fd with
        | Srv.Protocol.Frame _ -> ()
        | _ -> ());
        Srv.Protocol.write_all fd (String.make 3 '\x00');
        Unix.close fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join fake;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c =
        match Srv.Client.connect (Srv.Server.Unix_socket path) with
        | Ok c -> c
        | Error e ->
          Alcotest.fail ("client connect: " ^ Srv.Client.error_to_string e)
      in
      (match Srv.Client.request c P.Resp.Get_digest with
      | Error (Srv.Client.Transport _) -> ()
      | Error e ->
        Alcotest.fail ("expected Transport, got: " ^ Srv.Client.error_to_string e)
      | Ok _ -> Alcotest.fail "request against a torn response should fail");
      (* the tear closed the client; writes after it must fail fast as
         [Closed], never reach the dead socket (where only the ignored
         SIGPIPE would answer) *)
      (match Srv.Client.request c P.Resp.Get_digest with
      | Error Srv.Client.Closed -> ()
      | Error e ->
        Alcotest.fail ("expected Closed, got: " ^ Srv.Client.error_to_string e)
      | Ok _ -> Alcotest.fail "request after tear should fail");
      Srv.Client.close c)

(* Partial writes: a tiny [SO_SNDBUF] plus a response far bigger than
   it forces the loop through the EAGAIN → write-interest → resume
   cycle, while the client sits on its hands before reading.  The
   frame must still arrive whole and decode. *)
let test_partial_writes_tiny_sndbuf () =
  let net = make_net Network.Bitset in
  let srv =
    Srv.Server.start ~conn_sndbuf:2048 ~net
      (Srv.Server.Unix_socket (socket_path ()))
  in
  Fun.protect
    ~finally:(fun () -> Srv.Server.stop srv)
    (fun () ->
      let fd = raw_connect (unix_path srv) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let arity = 3000 in
          let b = Buffer.create 1024 in
          P.Resp.encode_request b
            (P.Resp.Batch (List.init arity (fun _ -> P.Resp.Get_digest)));
          Srv.Protocol.send_frame fd (Buffer.contents b);
          (* let the server fill the send buffer and block on EAGAIN *)
          Thread.delay 0.15;
          match Srv.Protocol.recv_frame fd with
          | Srv.Protocol.Frame payload -> (
            match P.Resp.decode_string payload with
            | Ok (P.Resp.Batch_reply rs) ->
              Alcotest.(check int) "reply arity" arity (List.length rs);
              let d = P.Store.digest net in
              List.iter
                (function
                  | P.Resp.Digest_is got ->
                    if got <> d then Alcotest.fail "digest mismatch in batch"
                  | r ->
                    Alcotest.fail
                      (Format.asprintf "unexpected sub-reply %a" P.Resp.pp r))
                rs
            | Ok r ->
              Alcotest.fail
                (Format.asprintf "expected Batch_reply, got %a" P.Resp.pp r)
            | Error e -> Alcotest.fail ("reply did not decode: " ^ e))
          | Srv.Protocol.Eof -> Alcotest.fail "server hung up mid-reply"
          | Srv.Protocol.Bad e -> Alcotest.fail ("torn reply frame: " ^ e)))

(* --- the equivalence criterion ------------------------------------------- *)

let churn_steps = 400
let seed = 20260805

let counters_with_prefix snapshot prefix =
  List.filter_map
    (fun (name, _help, v) ->
      if String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then Some (name, v)
      else None)
    snapshot.Tel.Metrics.counters

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

let run_churn ~sink sut =
  Churn.run ~telemetry:sink
    (Random.State.make [| seed |])
    ~spec:(Topology.spec topo) ~model:Model.MSW
    ~fanout:(Wdm_traffic.Fanout.Zipf { max = 6; s = 1.0 })
    ~steps:churn_steps ~teardown_bias:0.3 sut

let test_loopback_equivalence impl () =
  (* in-process reference run *)
  let net_sink_a = Tel.Sink.create () in
  let churn_sink_a = Tel.Sink.create () in
  let net_a = make_net ~telemetry:net_sink_a impl in
  let sum_a = ref 0 in
  let stats_a = run_churn ~sink:churn_sink_a (inproc_sut net_a sum_a) in
  (* same seed, served over the loopback socket *)
  let net_sink_b = Tel.Sink.create () in
  let churn_sink_b = Tel.Sink.create () in
  let net_b = make_net ~telemetry:net_sink_b impl in
  let sum_b = ref 0 in
  let stats_b, digest_b =
    with_server ~telemetry:net_sink_b net_b (fun srv ->
        with_client srv (fun c ->
            let sut =
              Srv.Client.churn_sut
                ~on_admit:(fun route ->
                  sum_b := P.Op.route_checksum !sum_b route)
                c
            in
            let stats = run_churn ~sink:churn_sink_b sut in
            let digest =
              match Srv.Client.digest c with
              | Ok d -> d
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
            in
            (stats, digest)))
  in
  (* route-level equivalence: every admitted route is byte-identical *)
  Alcotest.(check int) "route checksums" !sum_a !sum_b;
  (* driver-level equivalence *)
  Alcotest.(check int) "attempts" stats_a.Churn.attempts stats_b.Churn.attempts;
  Alcotest.(check int) "accepted" stats_a.Churn.accepted stats_b.Churn.accepted;
  Alcotest.(check int) "blocked" stats_a.Churn.blocked stats_b.Churn.blocked;
  Alcotest.(check bool) "refusals were exercised" true (stats_a.Churn.blocked > 0);
  Alcotest.(check int) "torn down" stats_a.Churn.torn_down stats_b.Churn.torn_down;
  (* state-level equivalence *)
  Alcotest.(check int) "digest" (P.Store.digest net_a) digest_b;
  (* telemetry equivalence: the network's instruments counted the same
     through the socket as in-process (the server's own server_* series
     live in the same sink; the wdmnet_ prefix selects the network's) *)
  let snap_a = Tel.Sink.snapshot net_sink_a
  and snap_b = Tel.Sink.snapshot net_sink_b in
  Alcotest.(check (list (pair string int)))
    "wdmnet_* counters"
    (counters_with_prefix snap_a "wdmnet_")
    (counters_with_prefix snap_b "wdmnet_");
  let churn_a = Tel.Sink.snapshot churn_sink_a
  and churn_b = Tel.Sink.snapshot churn_sink_b in
  Alcotest.(check (list (pair string int)))
    "churn_* counters"
    (counters_with_prefix churn_a "churn_")
    (counters_with_prefix churn_b "churn_")

(* Pipelining must be invisible to everything but the clock: the same
   seed driven through [churn_sut_pipelined] (disconnects batched into
   the next connect's frame) lands on the same routes, digest, churn
   stats, and server-side request accounting as one-request-per-round-
   trip — a [Batch] counts per sub-request, so even the counters are
   carry-agnostic. *)
let test_pipelined_equivalence () =
  let serve ~pipelined =
    let sink = Tel.Sink.create () in
    let net = make_net ~telemetry:sink Network.Bitset in
    let sum = ref 0 in
    let on_admit route = sum := P.Op.route_checksum !sum route in
    let srv =
      Srv.Server.start ~telemetry:sink ~net
        (Srv.Server.Unix_socket (socket_path ()))
    in
    let stats, digest =
      Fun.protect
        ~finally:(fun () -> Srv.Server.stop srv)
        (fun () ->
          with_client srv (fun c ->
              let sut, flush =
                if pipelined then Srv.Client.churn_sut_pipelined ~on_admit c
                else (Srv.Client.churn_sut ~on_admit c, fun () -> ())
              in
              let stats = run_churn ~sink:(Tel.Sink.create ()) sut in
              flush ();
              match Srv.Client.digest c with
              | Ok d -> (stats, d)
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))
    in
    (stats, digest, !sum, Srv.Server.served srv, Tel.Sink.snapshot sink)
  in
  let stats_s, digest_s, sum_s, served_s, snap_s = serve ~pipelined:false in
  let stats_p, digest_p, sum_p, served_p, snap_p = serve ~pipelined:true in
  Alcotest.(check int) "digest" digest_s digest_p;
  Alcotest.(check int) "route checksums" sum_s sum_p;
  Alcotest.(check int) "accepted" stats_s.Churn.accepted stats_p.Churn.accepted;
  Alcotest.(check int) "blocked" stats_s.Churn.blocked stats_p.Churn.blocked;
  Alcotest.(check int) "torn down" stats_s.Churn.torn_down
    stats_p.Churn.torn_down;
  Alcotest.(check int) "served" served_s served_p;
  let counter snap name =
    Option.value ~default:(-1) (Tel.Metrics.find_counter snap name)
  in
  List.iter
    (fun name ->
      Alcotest.(check int) name (counter snap_s name) (counter snap_p name))
    [
      "server_requests_total";
      "server_responses_total";
      "server_clients_total";
      "server_malformed_total";
    ];
  (* the same network-side story, through and through *)
  Alcotest.(check (list (pair string int)))
    "wdmnet_* counters"
    (counters_with_prefix snap_s "wdmnet_")
    (counters_with_prefix snap_p "wdmnet_")

(* EINTR everywhere: an interval timer peppering the process with
   SIGALRM while a churn runs through the socket and a WAL.  Without
   the retry loops in [Protocol.write_all]/[read_exactly] and the WAL
   fsync path, some syscall eventually surfaces [EINTR] and tears a
   healthy connection (or worse, a half-written frame). *)
let test_eintr_storm () =
  let prev_handler = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let interval = { Unix.it_interval = 0.002; it_value = 0.002 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL interval);
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.; it_value = 0. });
      Sys.set_signal Sys.sigalrm prev_handler)
    (fun () ->
      let dir = Filename.temp_file "wdmnet_eintr" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let wal = Filename.concat dir "eintr.wal" in
      let net = make_net Network.Bitset in
      let store = P.Store.start ~wal net in
      let digest =
        with_server ~store net (fun srv ->
            with_client srv (fun c ->
                ignore
                  (run_churn ~sink:(Tel.Sink.create ()) (Srv.Client.churn_sut c));
                match Srv.Client.digest c with
                | Ok d -> d
                | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))
      in
      P.Store.close store;
      (* same seed in-process: the storm changed nothing *)
      let twin = make_net Network.Bitset in
      ignore (run_churn ~sink:(Tel.Sink.create ()) (inproc_sut twin (ref 0)));
      Alcotest.(check int) "digest through the storm" (P.Store.digest twin)
        digest;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)

(* The whole point of the event loop: connections are buffers, not
   threads.  Park up to ten thousand idle (hello'd, then silent)
   connections — as many as the fd limit leaves headroom for — check
   the process thread count stayed flat, and serve a request through
   the crowd. *)
let threads_now () =
  (* Linux-only; [None] elsewhere and the assertion is skipped *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
            if String.length line > 8 && String.sub line 0 8 = "Threads:" then
              int_of_string_opt
                (String.trim (String.sub line 8 (String.length line - 8)))
            else go ()
        in
        go ())

let test_idle_connection_soak () =
  let want = 10_000 in
  let target =
    if Srv.Evloop.available_backend () <> "epoll" then 128
      (* select tops out at FD_SETSIZE; the 10k target needs epoll *)
    else
      (* both ends of every parked connection live in this process, so
         each one costs two fds against the limit *)
      let limit = Srv.Evloop.ensure_fd_capacity ((2 * want) + 256) in
      if limit < 0 then 1024 else max 64 (min want ((limit - 256) / 2))
  in
  let baseline = threads_now () in
  let net = make_net Network.Bitset in
  with_server net (fun srv ->
      let path = unix_path srv in
      let idle = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            !idle)
        (fun () ->
          for _ = 1 to target do
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            Srv.Protocol.write_all fd Srv.Protocol.client_hello;
            idle := fd :: !idle
          done;
          Alcotest.(check int) "all idle conns held" target
            (List.length !idle);
          (match (baseline, threads_now ()) with
          | Some before, Some after ->
            Alcotest.(check bool)
              (Printf.sprintf "threads bounded (%d before, %d after)" before
                 after)
              true
              (after <= before + 4)
          | _ -> ());
          (* the crowd does not get between a live client and the loop *)
          with_client srv (fun c ->
              match Srv.Client.digest c with
              | Ok d -> Alcotest.(check int) "served through the crowd"
                          (P.Store.digest net) d
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e))))

(* accept(2) failing with EMFILE must not freeze the loop: the
   listener's read interest is dropped until a timer restores it, so an
   already-connected client's round trips stay fast while a pending
   connection sits in the backlog that cannot be accepted.  The fd
   table is filled with dups, then one slot is freed for the pending
   client socket. *)
let test_accept_emfile_keeps_serving () =
  let limit = Srv.Evloop.ensure_fd_capacity 0 in
  if limit < 0 || limit > 1 lsl 20 then
    (* an fd table this large cannot be filled cheaply *)
    Printf.printf "fd limit %d: EMFILE case not exercised\n" limit
  else
    let sink = Tel.Sink.create () in
    let net = make_net Network.Bitset in
    with_server ~telemetry:sink net (fun srv ->
        let path = unix_path srv in
        with_client srv (fun c ->
            let hogs = ref [] in
            let pending = ref None in
            Fun.protect
              ~finally:(fun () ->
                List.iter
                  (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                  (Option.to_list !pending @ !hogs))
              (fun () ->
                (try
                   while true do
                     hogs := Unix.dup Unix.stderr :: !hogs
                   done
                 with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
                (match !hogs with
                | fd :: rest ->
                  Unix.close fd;
                  hogs := rest
                | [] -> Alcotest.fail "could not fill the fd table");
                let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                pending := Some s;
                Unix.connect s (Unix.ADDR_UNIX path);
                let rtts =
                  List.init 21 (fun _ ->
                      let t0 = Unix.gettimeofday () in
                      (match Srv.Client.digest c with
                      | Ok _ -> ()
                      | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
                      Unix.gettimeofday () -. t0)
                in
                let median = List.nth (List.sort compare rtts) 10 in
                Alcotest.(check bool)
                  (Printf.sprintf "round trips stay fast (median %.1f ms)"
                     (median *. 1000.))
                  true (median < 0.025);
                Alcotest.(check bool) "accept failure counted" true
                  (Option.value ~default:0
                     (Tel.Metrics.find_counter (Tel.Sink.snapshot sink)
                        "server_accept_errors_total")
                  > 0))))

(* --- WAL-backed serving recovers to the served state ---------------------- *)

let test_served_session_recovers () =
  let dir = Filename.temp_file "wdmnet_serve_wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wal = Filename.concat dir "serve.wal" in
  let net = make_net Network.Bitset in
  let store = P.Store.start ~wal net in
  let final_digest =
    with_server ~store net (fun srv ->
        with_client srv (fun c ->
            let sut = Srv.Client.churn_sut c in
            ignore (run_churn ~sink:(Tel.Sink.create ()) sut);
            match Srv.Client.digest c with
            | Ok d -> d
            | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))
  in
  (* server stopped: no thread touches the store anymore *)
  P.Store.checkpoint store net;
  P.Store.close store;
  (match P.Store.recover ~wal () with
  | Ok r ->
    Alcotest.(check int) "recovered digest" final_digest
      (P.Store.digest r.P.Store.network)
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e));
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

(* A request that fails to execute (refused disconnect, out-of-range
   fault index) is answered but must never reach the WAL: replaying it
   fails, and [Store.recover] reads a failing replay as corruption —
   one such client request would poison the log permanently. *)
let test_failed_ops_do_not_poison_wal () =
  let dir = Filename.temp_file "wdmnet_serve_wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wal = Filename.concat dir "serve.wal" in
  let net = make_net Network.Bitset in
  let store = P.Store.start ~wal net in
  let final_digest =
    with_server ~store net (fun srv ->
        with_client srv (fun c ->
            let admit op = Srv.Client.request c (P.Resp.Admit op) in
            let route =
              match admit (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ])) with
              | Ok (P.Resp.Admitted { route; _ }) -> route
              | _ -> Alcotest.fail "connect"
            in
            (match admit (P.Op.Disconnect route.Network.id) with
            | Ok (P.Resp.Released _) -> ()
            | _ -> Alcotest.fail "disconnect");
            (match admit (P.Op.Disconnect route.Network.id) with
            | Ok (P.Resp.Release_failed (Network.Already_released _)) -> ()
            | _ -> Alcotest.fail "double disconnect");
            (match admit (P.Op.Disconnect 999) with
            | Ok (P.Resp.Release_failed (Network.Unknown_route _)) -> ()
            | _ -> Alcotest.fail "unknown disconnect");
            (match admit (P.Op.Inject_fault (Wdm_faults.Fault.Middle 99)) with
            | Ok (P.Resp.Server_error _) -> ()
            | _ -> Alcotest.fail "bad inject");
            (match admit (P.Op.Clear_fault (Wdm_faults.Fault.Middle 99)) with
            | Ok (P.Resp.Server_error _) -> ()
            | _ -> Alcotest.fail "bad clear");
            (match admit (P.Op.Connect (conn (ep 2 1) [ ep 5 1 ])) with
            | Ok (P.Resp.Admitted _) -> ()
            | _ -> Alcotest.fail "second connect");
            match Srv.Client.digest c with
            | Ok d -> d
            | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))
  in
  P.Store.close store;
  (* no checkpoint after serving: recovery must replay the WAL tail,
     which holds only the three ops that executed *)
  (match P.Store.recover ~wal () with
  | Ok r ->
    Alcotest.(check int) "replayed only executed ops" 3 r.P.Store.replayed;
    Alcotest.(check int) "recovered digest" final_digest
      (P.Store.digest r.P.Store.network)
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e));
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

(* --- server telemetry ----------------------------------------------------- *)

let test_server_instruments () =
  let sink = Tel.Sink.create () in
  let net = make_net Network.Bitset in
  let srv =
    Srv.Server.start ~telemetry:sink ~net
      (Srv.Server.Unix_socket (socket_path ()))
  in
  Fun.protect
    ~finally:(fun () -> Srv.Server.stop srv)
    (fun () ->
      with_client srv (fun c ->
          for i = 1 to 5 do
            ignore
              (Srv.Client.request c
                 (P.Resp.Admit
                    (P.Op.Connect (conn (ep i 1) [ ep ((i mod 9) + 1) 1 ]))))
          done;
          (* the stats request answers this very registry *)
          let js =
            match Srv.Client.stats_json c with
            | Ok s -> s
            | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
          in
          (match Tel.Json.parse js with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("stats is not JSON: " ^ e));
          Alcotest.(check bool) "stats mentions server_requests_total" true
            (let needle = "server_requests_total" in
             let rec go i =
               i + String.length needle <= String.length js
               && (String.sub js i (String.length needle) = needle || go (i + 1))
             in
             go 0)));
  (* [served] is read after [stop], where it is specified stable: it
     is loop-thread state, not synchronised with in-process readers *)
  Alcotest.(check int) "served" 6 (Srv.Server.served srv);
  let snap = Tel.Sink.snapshot sink in
  let counter name =
    Option.value ~default:(-1) (Tel.Metrics.find_counter snap name)
  in
  Alcotest.(check int) "requests total" 6 (counter "server_requests_total");
  Alcotest.(check int) "responses total" 6 (counter "server_responses_total");
  Alcotest.(check int) "clients total" 1 (counter "server_clients_total");
  Alcotest.(check int) "per-client family" 6
    (counter "server_client_requests_total{client=\"1\"}");
  Alcotest.(check (float 0.01)) "no client left" 0.
    (Option.value ~default:(-1.)
       (Tel.Metrics.find_gauge snap "server_clients_active"))

(* --- observability -------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains hay needle)

(* A pre-flags client against the new server: bare hello (flags byte
   zero), no span trailer on requests — the request must decode and be
   answered exactly as before the extension existed. *)
let test_old_client_new_server () =
  let net = make_net Network.Bitset in
  with_server ~telemetry:(Tel.Sink.create ()) net (fun srv ->
      let path =
        match Srv.Server.address srv with
        | Srv.Server.Unix_socket p -> p
        | Srv.Server.Tcp _ -> Alcotest.fail "expected unix socket"
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          Srv.Protocol.write_all fd Srv.Protocol.client_hello;
          (match Srv.Protocol.read_exactly fd P.Wire.header_len with
          | Srv.Protocol.Exact hello ->
            Alcotest.(check bool) "server hello valid to an old decoder" true
              (Result.is_ok (Srv.Protocol.check_server_hello hello))
          | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ ->
            Alcotest.fail "no server hello");
          let b = Buffer.create 16 in
          P.Resp.encode_request b P.Resp.Get_digest;
          Srv.Protocol.send_frame fd (Buffer.contents b);
          match Srv.Protocol.recv_frame fd with
          | Srv.Protocol.Frame payload -> (
            match P.Resp.decode_string payload with
            | Ok (P.Resp.Digest_is d) ->
              Alcotest.(check int) "digest over a span-less connection"
                (P.Store.digest net) d
            | _ -> Alcotest.fail "expected Digest_is")
          | _ -> Alcotest.fail "expected a response frame"))

(* The new client against a pre-flags server: the server's bare hello
   carries no span bit, so the client must not append the trailer —
   proven by the fake server decoding the request and finding the
   payload ends exactly where the request does. *)
let test_new_client_old_server () =
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let trailer_clean = ref false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Srv.Protocol.read_exactly fd P.Wire.header_len with
            | Srv.Protocol.Exact hello
              when Result.is_ok (Srv.Protocol.check_client_hello hello) -> (
              Srv.Protocol.write_all fd Srv.Protocol.server_hello;
              match Srv.Protocol.recv_frame fd with
              | Srv.Protocol.Frame payload ->
                let r = P.Wire.reader payload in
                let _req = P.Resp.decode_request r in
                (match P.Wire.expect_end r with
                | () -> trailer_clean := true
                | exception _ -> ());
                let b = Buffer.create 16 in
                P.Resp.encode b (P.Resp.Digest_is 7);
                Srv.Protocol.write_all fd (P.Wire.frame (Buffer.contents b))
              | _ -> ())
            | _ -> ()))
      ()
  in
  (match Srv.Client.connect (Srv.Server.Unix_socket path) with
  | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Srv.Client.close c)
      (fun () ->
        Alcotest.(check bool) "spans not negotiated" false (Srv.Client.spans c);
        (match Srv.Client.digest c with
        | Ok d -> Alcotest.(check int) "digest answered" 7 d
        | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
        Alcotest.(check bool) "no span id minted" true
          (Srv.Client.last_span c = None)));
  Thread.join server;
  Alcotest.(check bool) "request payload ended exactly at the decoder" true
    !trailer_clean

(* New client, new server: the extension negotiates, the span id the
   client minted is the one the server's ring recorded, stages come
   out in pipeline order, and the Chrome export parses. *)
let test_span_ring_and_chrome () =
  let sink = Tel.Sink.create () in
  let net = make_net Network.Bitset in
  let srv =
    Srv.Server.start ~telemetry:sink ~net
      (Srv.Server.Unix_socket (socket_path ()))
  in
  let client_span =
    Fun.protect
      ~finally:(fun () -> Srv.Server.stop srv)
      (fun () ->
        with_client srv (fun c ->
            Alcotest.(check bool) "spans negotiated" true (Srv.Client.spans c);
            (match Srv.Client.digest c with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
            match Srv.Client.last_span c with
            | Some s -> s
            | None -> Alcotest.fail "no span id minted"))
  in
  (* stopped: the ring is stable *)
  (match Srv.Server.spans srv with
  | [ (Some sid, cid, _start, total, stages) ] ->
    Alcotest.(check int) "ring span id is the client's" client_span sid;
    Alcotest.(check int) "client id" 1 cid;
    Alcotest.(check bool) "total is positive" true (total > 0.);
    Alcotest.(check (list string))
      "stage order"
      [ "decode"; "execute"; "wal"; "replicate"; "respond" ]
      (List.map fst stages)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 span, ring has %d" (List.length l)));
  match Tel.Json.parse (Srv.Server.spans_chrome srv) with
  | Ok j ->
    Alcotest.(check bool) "chrome export has traceEvents" true
      (Tel.Json.member "traceEvents" j <> None)
  | Error e -> Alcotest.fail ("chrome trace not JSON: " ^ e)

let http_get addr path =
  let fd, sockaddr =
    match addr with
    | Srv.Server.Tcp (host, port) ->
      ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
    | Srv.Server.Unix_socket p ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX p)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd sockaddr;
      Srv.Protocol.write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      let s = Buffer.contents buf in
      let status =
        try int_of_string (String.trim (String.sub s 9 3))
        with _ -> Alcotest.fail ("unparseable HTTP response: " ^ s)
      in
      let body =
        let sep = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length s then String.length s
          else if String.sub s i 4 = sep then i + 4
          else find (i + 1)
        in
        let at = find 0 in
        String.sub s at (String.length s - at)
      in
      (status, body))

(* /healthz answers plainly; /metrics is the same registry the stats
   request serves, so its counters reconcile exactly with an
   in-process snapshot taken while the server is quiescent. *)
let test_http_plane () =
  let sink = Tel.Sink.create () in
  let net = make_net Network.Bitset in
  let srv =
    Srv.Server.start ~telemetry:sink ~net
      ~http:(Srv.Server.Tcp ("127.0.0.1", 0))
      (Srv.Server.Unix_socket (socket_path ()))
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) @@ fun () ->
  let http =
    match Srv.Server.http_address srv with
    | Some a -> a
    | None -> Alcotest.fail "no http address"
  in
  let status, body = http_get http "/healthz" in
  Alcotest.(check int) "healthz status" 200 status;
  Alcotest.(check string) "healthz body" "ok\n" body;
  let status, body = http_get http "/readyz" in
  Alcotest.(check int) "leader readyz status" 200 status;
  check_contains "readyz" body "role=leader";
  with_client srv (fun c ->
      for i = 1 to 5 do
        ignore
          (Srv.Client.request c
             (P.Resp.Admit
                (P.Op.Connect (conn (ep i 1) [ ep ((i mod 9) + 1) 1 ]))))
      done);
  (* [served] is loop-thread state; give an in-process read a moment
     to observe the count the responses already reflect *)
  let deadline = Unix.gettimeofday () +. 5. in
  while Srv.Server.served srv < 5 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  let status, body = http_get http "/metrics" in
  Alcotest.(check int) "metrics status" 200 status;
  let snap = Tel.Sink.snapshot sink in
  let reconcile name =
    match Tel.Metrics.find_counter snap name with
    | Some v -> check_contains "/metrics" body (Printf.sprintf "%s %d" name v)
    | None -> Alcotest.fail (name ^ " not in the in-process registry")
  in
  reconcile "server_requests_total";
  reconcile "server_responses_total";
  reconcile "server_clients_total";
  check_contains "/metrics" body "# TYPE server_stage_execute_seconds histogram";
  check_contains "/metrics" body "server_stage_execute_seconds_count 5";
  check_contains "/metrics" body "server_request_latency_seconds_bucket";
  let status, body = http_get http "/spans" in
  Alcotest.(check int) "spans status" 200 status;
  check_contains "/spans" body "traceEvents";
  let status, _ = http_get http "/nope" in
  Alcotest.(check int) "unknown path" 404 status

(* /readyz follows the replication life cycle: ready once caught up,
   behind when the leader disappears, ready again after promotion. *)
let test_readyz_follows_role () =
  let leader =
    Srv.Server.start ~net:(make_net Network.Bitset)
      (Srv.Server.Unix_socket (socket_path ()))
  in
  let leader_stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !leader_stopped then Srv.Server.stop leader)
  @@ fun () ->
  with_client leader (fun c ->
      for i = 1 to 6 do
        ignore
          (Srv.Client.request c
             (P.Resp.Admit
                (P.Op.Connect (conn (ep i 1) [ ep ((i mod 9) + 1) 1 ]))))
      done);
  let follower =
    Srv.Server.start
      ~net:(make_net Network.Bitset)
      ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
      ~http:(Srv.Server.Tcp ("127.0.0.1", 0))
      (Srv.Server.Unix_socket (socket_path ()))
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  let http = Option.get (Srv.Server.http_address follower) in
  let wait_status want =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec go last =
      let status, body = http_get http "/readyz" in
      if status = want then body
      else if Unix.gettimeofday () > deadline then
        Alcotest.fail
          (Printf.sprintf "readyz never reached %d (last %d: %s)" want last
             body)
      else begin
        Thread.delay 0.01;
        go status
      end
    in
    go 0
  in
  let body = wait_status 200 in
  check_contains "caught-up readyz" body "role=follower";
  Alcotest.(check bool) "ready accessor agrees" true (Srv.Server.ready follower);
  Srv.Server.stop leader;
  leader_stopped := true;
  ignore (wait_status 503);
  Alcotest.(check bool) "ready accessor flips" false
    (Srv.Server.ready follower);
  (match Srv.Server.promote follower with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("promote: " ^ e));
  let body = wait_status 200 in
  check_contains "promoted readyz" body "role=leader"

(* The slow-request log: threshold 0 captures every request as a
   parseable JSONL record carrying the span id and the per-stage
   breakdown; an unreachable threshold captures none. *)
let test_slow_log () =
  let run ~slow_ms ~requests =
    let path = Filename.temp_file "wdmnet_slow" ".jsonl" in
    let sink = Tel.Sink.create () in
    let net = make_net Network.Bitset in
    let srv =
      Srv.Server.start ~telemetry:sink ~slow_ms ~slow_log:path ~net
        (Srv.Server.Unix_socket (socket_path ()))
    in
    Fun.protect
      ~finally:(fun () -> Srv.Server.stop srv)
      (fun () ->
        with_client srv (fun c ->
            for i = 1 to requests do
              ignore
                (Srv.Client.request c
                   (P.Resp.Admit
                      (P.Op.Connect (conn (ep i 1) [ ep ((i mod 9) + 1) 1 ]))))
            done));
    (* stop flushed and closed the log *)
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    Sys.remove path;
    List.rev !lines
  in
  let all = run ~slow_ms:0. ~requests:4 in
  Alcotest.(check int) "threshold 0 logs every request" 4 (List.length all);
  List.iter
    (fun line ->
      match Tel.Json.parse line with
      | Ok j ->
        List.iter
          (fun key ->
            Alcotest.(check bool)
              (Printf.sprintf "slow line has %s" key)
              true
              (Tel.Json.member key j <> None))
          [ "ts"; "span"; "client"; "total_ms"; "stages_ms" ]
      | Error e -> Alcotest.fail ("slow line is not JSON: " ^ e))
    all;
  let none = run ~slow_ms:60000. ~requests:4 in
  Alcotest.(check int) "unreachable threshold logs nothing" 0
    (List.length none)

let () =
  Alcotest.run "wdm_server"
    [
      ( "codec",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        ] );
      ( "serve",
        [
          Alcotest.test_case "basic requests" `Quick test_serve_basic;
          Alcotest.test_case "malformed frame" `Quick
            test_malformed_frame_closes_connection;
          Alcotest.test_case "silent client" `Quick
            test_silent_client_does_not_block_accept;
          Alcotest.test_case "client fails fast" `Quick
            test_client_fails_fast_after_transport_error;
          Alcotest.test_case "server instruments" `Quick test_server_instruments;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "half frame then close" `Quick
            test_half_frame_then_close;
          Alcotest.test_case "peer close mid-request" `Quick
            test_peer_close_mid_request;
          Alcotest.test_case "partial writes (tiny SO_SNDBUF)" `Quick
            test_partial_writes_tiny_sndbuf;
          Alcotest.test_case "EINTR storm" `Quick test_eintr_storm;
          Alcotest.test_case "idle connection soak" `Quick
            test_idle_connection_soak;
          Alcotest.test_case "accept EMFILE keeps serving" `Quick
            test_accept_emfile_keeps_serving;
        ] );
      ( "observability",
        [
          Alcotest.test_case "old client, new server" `Quick
            test_old_client_new_server;
          Alcotest.test_case "new client, old server" `Quick
            test_new_client_old_server;
          Alcotest.test_case "span ring + chrome export" `Quick
            test_span_ring_and_chrome;
          Alcotest.test_case "http plane" `Quick test_http_plane;
          Alcotest.test_case "readyz follows role" `Quick
            test_readyz_follows_role;
          Alcotest.test_case "slow-request log" `Quick test_slow_log;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "loopback churn (bitset)" `Quick
            (test_loopback_equivalence Network.Bitset);
          Alcotest.test_case "loopback churn (reference)" `Quick
            (test_loopback_equivalence Network.Reference);
          Alcotest.test_case "pipelined churn" `Quick test_pipelined_equivalence;
          Alcotest.test_case "served session recovers" `Quick
            test_served_session_recovers;
          Alcotest.test_case "failed ops not WAL-logged" `Quick
            test_failed_ops_do_not_poison_wal;
        ] );
    ]
