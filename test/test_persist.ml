(* Tests for the persistence layer: the wire primitives and CRC
   framing, the op and snapshot codecs (round-trips, rejection of
   malformed input), WAL write/read/tear/corruption classification, and
   the snapshot/restore contract on the network itself. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Fault = Wdm_faults.Fault

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

(* --- crc32 --------------------------------------------------------------- *)

let test_crc32_known () =
  (* the classic check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int) "check string" 0xcbf43926 (P.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (P.Crc32.string "")

let test_crc32_compose () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = P.Crc32.string s in
  let split =
    P.Crc32.update (P.Crc32.update 0 s ~pos:0 ~len:20) s ~pos:20
      ~len:(String.length s - 20)
  in
  Alcotest.(check int) "incremental = one-shot" whole split

(* --- wire ---------------------------------------------------------------- *)

let test_wire_ints () =
  let roundtrip put get v =
    let b = Buffer.create 16 in
    put b v;
    let r = P.Wire.reader (Buffer.contents b) in
    let v' = get r in
    P.Wire.expect_end r;
    Alcotest.(check int) (Printf.sprintf "roundtrip %d" v) v v'
  in
  List.iter (roundtrip P.Wire.put_u8 P.Wire.get_u8) [ 0; 1; 127; 255 ];
  List.iter (roundtrip P.Wire.put_u32 P.Wire.get_u32) [ 0; 1; 0xffff; 0xffffffff ];
  List.iter
    (roundtrip P.Wire.put_int P.Wire.get_int)
    [ 0; 1; -1; 42; -42; (1 lsl 55) - 1; -(1 lsl 55) + 1 ];
  let rejects put v =
    Alcotest.check_raises
      (Printf.sprintf "rejects %d" v)
      (Invalid_argument "Wire.put_u32: out of range")
      (fun () -> put (Buffer.create 4) v)
  in
  rejects P.Wire.put_u32 (-1);
  rejects P.Wire.put_u32 0x100000000;
  Alcotest.(check bool) "put_int rejects 2^55" true
    (try
       P.Wire.put_int (Buffer.create 8) (1 lsl 55);
       false
     with Invalid_argument _ -> true)

let test_wire_int_rejects_corrupt_top_byte () =
  (* a top byte that is not pure sign extension cannot come from
     put_int: the decoder must flag it, not silently wrap *)
  let bogus = "\x00\x00\x00\x00\x00\x00\x00\x40" in
  Alcotest.(check bool) "flagged" true
    (try
       ignore (P.Wire.get_int (P.Wire.reader bogus));
       false
     with P.Wire.Decode_error _ -> true)

let test_wire_header () =
  let h = P.Wire.header ~kind:'W' in
  Alcotest.(check int) "length" P.Wire.header_len (String.length h);
  Alcotest.(check bool) "accepts own kind" true
    (Result.is_ok (P.Wire.check_header ~kind:'W' h));
  Alcotest.(check bool) "rejects other kind" true
    (Result.is_error (P.Wire.check_header ~kind:'S' h));
  Alcotest.(check bool) "rejects short" true
    (Result.is_error (P.Wire.check_header ~kind:'W' "WD"));
  let wrong_version = "WDMPW\x02\x00\x00" in
  Alcotest.(check bool) "rejects future version" true
    (Result.is_error (P.Wire.check_header ~kind:'W' wrong_version))

let test_frame_classification () =
  let payload = "hello, frame" in
  let f = P.Wire.frame payload in
  (match P.Wire.read_frame f ~pos:0 with
  | P.Wire.Frame { payload = p; next } ->
    Alcotest.(check string) "payload" payload p;
    Alcotest.(check int) "next" (String.length f) next
  | _ -> Alcotest.fail "expected Frame");
  (match P.Wire.read_frame f ~pos:(String.length f) with
  | P.Wire.End -> ()
  | _ -> Alcotest.fail "expected End");
  (* incomplete header and incomplete payload are torn, not corrupt *)
  (match P.Wire.read_frame (String.sub f 0 5) ~pos:0 with
  | P.Wire.Torn 0 -> ()
  | _ -> Alcotest.fail "short header should be Torn");
  (match P.Wire.read_frame (String.sub f 0 (String.length f - 3)) ~pos:0 with
  | P.Wire.Torn 0 -> ()
  | _ -> Alcotest.fail "short payload should be Torn");
  (* flipped payload byte: complete frame, wrong CRC *)
  let flipped = Bytes.of_string f in
  Bytes.set flipped 9 (Char.chr (Char.code (Bytes.get flipped 9) lxor 0x40));
  (match P.Wire.read_frame (Bytes.to_string flipped) ~pos:0 with
  | P.Wire.Corrupt { offset = 0; reason } ->
    Alcotest.(check string) "reason" "CRC mismatch" reason
  | _ -> Alcotest.fail "flipped byte should be Corrupt");
  (* an implausible length field is corruption, not a torn write *)
  let b = Buffer.create 16 in
  P.Wire.put_u32 b (P.Wire.max_payload + 1);
  P.Wire.put_u32 b 0;
  Buffer.add_string b "xxxx";
  match P.Wire.read_frame (Buffer.contents b) ~pos:0 with
  | P.Wire.Corrupt { offset = 0; _ } -> ()
  | _ -> Alcotest.fail "implausible length should be Corrupt"

(* --- op codec ------------------------------------------------------------ *)

let sample_ops =
  [
    P.Op.Connect (conn (ep 1 1) [ ep 1 1; ep 5 1 ]);
    P.Op.Connect (conn (ep 7 2) [ ep 3 2 ]);
    P.Op.Disconnect 0;
    P.Op.Disconnect 123456789;
    P.Op.Inject_fault (Fault.Middle 3);
    P.Op.Inject_fault (Fault.Input_module 2);
    P.Op.Inject_fault (Fault.Output_module 1);
    P.Op.Inject_fault (Fault.Stage1_laser { input = 1; middle = 2; wl = 1 });
    P.Op.Inject_fault (Fault.Stage2_laser { middle = 2; output = 3; wl = 2 });
    P.Op.Inject_fault (Fault.Converter { middle = 1; output = 4 });
    P.Op.Clear_fault (Fault.Middle 3);
    P.Op.Repair { connection = conn (ep 2 1) [ ep 6 1 ]; rehomed = true };
    P.Op.Repair { connection = conn (ep 4 2) [ ep 8 2; ep 2 2 ]; rehomed = false };
  ]

let encode_op op =
  let b = Buffer.create 64 in
  P.Op.encode b op;
  Buffer.contents b

let test_op_roundtrip () =
  List.iter
    (fun op ->
      match P.Op.decode_string (encode_op op) with
      | Ok op' ->
        Alcotest.(check bool)
          (Format.asprintf "roundtrip %a" P.Op.pp op)
          true (P.Op.equal op op')
      | Error e -> Alcotest.fail e)
    sample_ops

let test_op_rejects_malformed () =
  let bad what s =
    Alcotest.(check bool) what true (Result.is_error (P.Op.decode_string s))
  in
  bad "empty" "";
  bad "unknown tag" "\x09";
  bad "truncated connect" "\x01\x01\x00\x00\x00";
  bad "trailing bytes" (encode_op (P.Op.Disconnect 1) ^ "\x00");
  (* destination count of zero is structurally impossible *)
  let b = Buffer.create 16 in
  P.Wire.put_u8 b 1;
  P.Wire.put_u32 b 1;
  P.Wire.put_u32 b 1;
  P.Wire.put_u32 b 0;
  bad "zero destinations" (Buffer.contents b)

let prop_op_roundtrip =
  let gen =
    QCheck.Gen.(
      let endpoint = map2 (fun p w -> ep (p + 1) (w + 1)) (int_bound 200) (int_bound 30) in
      let connection =
        map2
          (fun src dests ->
            (* distinct destination ports, as Connection.make requires *)
            let seen = Hashtbl.create 8 in
            let dests =
              List.filter
                (fun (e : Endpoint.t) ->
                  if Hashtbl.mem seen e.Endpoint.port then false
                  else begin
                    Hashtbl.add seen e.Endpoint.port ();
                    true
                  end)
                dests
            in
            conn src dests)
          endpoint
          (list_size (int_range 1 6) endpoint)
      in
      let fault =
        oneof
          [
            map (fun i -> Fault.Middle (i + 1)) (int_bound 50);
            map (fun i -> Fault.Input_module (i + 1)) (int_bound 50);
            map (fun i -> Fault.Output_module (i + 1)) (int_bound 50);
            map3
              (fun a b c ->
                Fault.Stage1_laser { input = a + 1; middle = b + 1; wl = c + 1 })
              (int_bound 50) (int_bound 50) (int_bound 30);
            map3
              (fun a b c ->
                Fault.Stage2_laser { middle = a + 1; output = b + 1; wl = c + 1 })
              (int_bound 50) (int_bound 50) (int_bound 30);
            map2
              (fun a b -> Fault.Converter { middle = a + 1; output = b + 1 })
              (int_bound 50) (int_bound 50);
          ]
      in
      oneof
        [
          map (fun c -> P.Op.Connect c) connection;
          map (fun id -> P.Op.Disconnect id) (int_bound ((1 lsl 50) - 1));
          map (fun f -> P.Op.Inject_fault f) fault;
          map (fun f -> P.Op.Clear_fault f) fault;
          map2
            (fun c rehomed -> P.Op.Repair { connection = c; rehomed })
            connection bool;
        ])
  in
  QCheck.Test.make ~name:"op codec roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" P.Op.pp) gen)
    (fun op ->
      match P.Op.decode_string (encode_op op) with
      | Ok op' -> P.Op.equal op op'
      | Error _ -> false)

(* --- network snapshot / restore ------------------------------------------ *)

let make_net ?telemetry ~impl () =
  let topo = Topology.make_exn ~n:3 ~m:8 ~r:3 ~k:2 in
  Network.create
    ~config:{ Network.Config.default with telemetry; link_impl = Some impl }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW topo

let populate net =
  let admitted = ref [] in
  List.iter
    (fun c ->
      match Network.connect net c with
      | Ok route -> admitted := route :: !admitted
      | Error _ -> ())
    [
      conn (ep 1 1) [ ep 1 1; ep 4 1; ep 7 1 ];
      conn (ep 2 2) [ ep 5 2 ];
      conn (ep 4 1) [ ep 2 1; ep 8 1 ];
      conn (ep 9 2) [ ep 9 2 ];
    ];
  (* one teardown and one fault, so the snapshot is not just connects *)
  (match !admitted with
  | r :: _ -> ignore (Network.disconnect net r.Network.id)
  | [] -> ());
  ignore (Network.inject_fault net (Fault.Middle 2))

let test_snapshot_restore impl () =
  let net = make_net ~impl () in
  populate net;
  let restored = Network.restore (Network.snapshot net) in
  Alcotest.(check int)
    "digest equal" (P.Store.digest net) (P.Store.digest restored);
  (* behavioral indistinguishability: the same fresh request must get
     the same answer, route id and hops on both *)
  let probe = conn (ep 3 1) [ ep 6 1 ] in
  let on_net = Network.connect net probe in
  let on_restored = Network.connect restored probe in
  match (on_net, on_restored) with
  | Ok a, Ok b ->
    Alcotest.(check int) "same id" a.Network.id b.Network.id;
    Alcotest.(check int) "same hops"
      (P.Op.route_checksum 0 a)
      (P.Op.route_checksum 0 b)
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "restored network answered differently"

let test_restore_rejects_inconsistent () =
  let net = make_net ~impl:Network.Bitset () in
  populate net;
  let snap = Network.snapshot net in
  let bad = { snap with Network.s_next_id = 0 } in
  Alcotest.(check bool) "route id >= next_id rejected" true
    (try
       ignore (Network.restore bad);
       false
     with Invalid_argument _ -> true);
  let bad = { snap with Network.s_faults = [ Fault.Middle 99 ] } in
  Alcotest.(check bool) "fault outside topology rejected" true
    (try
       ignore (Network.restore bad);
       false
     with Invalid_argument _ -> true)

let test_state_codec_roundtrip () =
  let net = make_net ~impl:Network.Reference () in
  populate net;
  let snap = Network.snapshot net in
  let bytes = P.Store.encode_state snap in
  match P.Store.decode_state bytes with
  | Error e -> Alcotest.fail e
  | Ok snap' ->
    Alcotest.(check string) "re-encodes identically" bytes
      (P.Store.encode_state snap');
    Alcotest.(check int) "routes survive"
      (List.length snap.Network.s_routes)
      (List.length snap'.Network.s_routes)

(* A snapshot whose [m] field took a bit flip (offset 4: u32 after [n])
   must come back as [Error] before [Network.restore] allocates: m =
   13,303,818 on a 32x192x32 k=2 fabric asks for gigabytes of link
   planes (an uncaught out-of-memory), and at r = 4 still for hundreds
   of megabytes that used to be silently allocated. *)
let with_m state m =
  let b = Bytes.of_string state in
  Bytes.set_int32_le b 4 (Int32.of_int m);
  Bytes.to_string b

let test_restore_refuses_implausible_shape () =
  List.iter
    (fun (r, impl) ->
      let net =
        Network.create
          ~config:{ Network.Config.default with link_impl = Some impl }
          ~construction:Network.Msw_dominant ~output_model:Model.MSW
          (Topology.make_exn ~n:32 ~m:192 ~r ~k:2)
      in
      let state = P.Backend.encode_state (P.Backend.Net net) in
      (match P.Backend.restore state with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("intact snapshot refused: " ^ e));
      match P.Backend.restore (with_m state 13_303_818) with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.fail (Printf.sprintf "flipped m restored at r=%d" r))
    [ (32, Network.Bitset); (4, Network.Bitset); (4, Network.Reference) ];
  (* a wavelength count past the ceiling is refused too *)
  let net = make_net ~impl:Network.Reference () in
  let state = P.Backend.encode_state (P.Backend.Net net) in
  let b = Bytes.of_string state in
  Bytes.set_int32_le b 12 (Int32.of_int 100_000);
  match P.Backend.restore (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k = 100000 restored"

(* --- wal ----------------------------------------------------------------- *)

let test_wal_write_read () =
  let path = "test_wal_rw.wal" in
  let w = P.Wal.create path in
  List.iter (P.Wal.append w) sample_ops;
  Alcotest.(check int) "records" (List.length sample_ops) (P.Wal.records w);
  let end_off = P.Wal.tell w in
  P.Wal.close w;
  (match P.Wal.read path with
  | Error e -> Alcotest.fail e
  | Ok { ops; tear } ->
    Alcotest.(check bool) "no tear" true (tear = None);
    Alcotest.(check int) "count" (List.length sample_ops) (List.length ops);
    List.iter2
      (fun expected (_, got) ->
        Alcotest.(check bool)
          (Format.asprintf "op %a" P.Op.pp expected)
          true (P.Op.equal expected got))
      sample_ops ops);
  (* cut mid-record: the tail is reported torn at the record start *)
  let contents =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let last_start =
    match P.Wal.read path with
    | Ok { ops; _ } -> fst (List.nth ops (List.length ops - 1))
    | Error e -> Alcotest.fail e
  in
  let oc = open_out_bin path in
  output_string oc (String.sub contents 0 (last_start + 3));
  close_out oc;
  (match P.Wal.read path with
  | Error e -> Alcotest.fail e
  | Ok { ops; tear } ->
    Alcotest.(check int) "one fewer op" (List.length sample_ops - 1)
      (List.length ops);
    Alcotest.(check (option int)) "tear offset" (Some last_start) tear);
  P.Wal.truncate_at path last_start;
  (match P.Wal.read path with
  | Ok { tear = None; ops } ->
    Alcotest.(check int) "clean after truncate" (List.length sample_ops - 1)
      (List.length ops)
  | Ok _ -> Alcotest.fail "still torn after truncate_at"
  | Error e -> Alcotest.fail e);
  ignore end_off;
  Sys.remove path

let test_wal_detects_corruption () =
  let path = "test_wal_corrupt.wal" in
  let w = P.Wal.create path in
  List.iter (P.Wal.append w) sample_ops;
  P.Wal.close w;
  let contents =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let flipped = Bytes.of_string contents in
  let mid = String.length contents / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  (match P.Wal.read path with
  | Error e ->
    let contains_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error names an offset: %s" e)
      true (contains_sub e "at byte")
  | Ok _ -> Alcotest.fail "flipped byte went undetected");
  Sys.remove path

let test_wal_policy_validation () =
  Alcotest.(check bool) "Flush_every 0 rejected" true
    (try
       ignore (P.Wal.create ~policy:(P.Wal.Flush_every 0) "never_created.wal");
       false
     with Invalid_argument _ -> true)

(* --- store --------------------------------------------------------------- *)

let test_store_session_and_recover () =
  let wal = "test_store_session.wal" in
  let net = make_net ~impl:Network.Bitset () in
  let store = P.Store.start ~wal net in
  let log_and_apply op =
    P.Store.log store op;
    match P.Op.apply net op with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  log_and_apply (P.Op.Connect (conn (ep 1 1) [ ep 1 1; ep 4 1 ]));
  log_and_apply (P.Op.Connect (conn (ep 2 2) [ ep 5 2 ]));
  P.Store.checkpoint store net;
  log_and_apply (P.Op.Inject_fault (Fault.Middle 1));
  log_and_apply (P.Op.Connect (conn (ep 5 1) [ ep 8 1 ]));
  let digest = P.Store.digest net in
  P.Store.close store;
  (match P.Store.recover ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok r ->
    Alcotest.(check int) "digest" digest (P.Store.digest r.P.Store.network);
    Alcotest.(check int) "replayed past checkpoint" 2 r.P.Store.replayed;
    Alcotest.(check bool) "no tear" true (r.P.Store.tear = None));
  (* with every snapshot gone there is nothing to seed recovery from *)
  List.iter
    (fun seq ->
      let p = P.Store.snapshot_path ~wal ~seq in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2; 3 ];
  (match P.Store.recover ~wal () with
  | Error (P.Store.No_snapshot _) -> ()
  | Error e ->
    Alcotest.fail (Format.asprintf "wrong error: %a" P.Store.pp_recovery_error e)
  | Ok _ -> Alcotest.fail "recovered with no snapshot");
  Sys.remove wal

let test_store_falls_back_to_older_snapshot () =
  let wal = "test_store_fallback.wal" in
  let net = make_net ~impl:Network.Reference () in
  let store = P.Store.start ~wal net in
  let log_and_apply op =
    P.Store.log store op;
    ignore (P.Op.apply net op)
  in
  log_and_apply (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  P.Store.checkpoint store net;
  log_and_apply (P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]));
  P.Store.checkpoint store net;
  let digest = P.Store.digest net in
  P.Store.close store;
  (* trash the newest snapshot; seq 1 must still carry recovery *)
  let newest = P.Store.snapshot_path ~wal ~seq:2 in
  let oc = open_out_bin newest in
  output_string oc "not a snapshot at all";
  close_out oc;
  (match P.Store.recover ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok r ->
    Alcotest.(check int) "fell back" 1 r.P.Store.snapshot_seq;
    Alcotest.(check int) "digest" digest (P.Store.digest r.P.Store.network));
  Sys.remove wal;
  List.iter
    (fun seq ->
      let p = P.Store.snapshot_path ~wal ~seq in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2 ]

let props = List.map QCheck_alcotest.to_alcotest [ prop_op_roundtrip ]

let () =
  Alcotest.run "wdm_persist"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc32_known;
          Alcotest.test_case "composable" `Quick test_crc32_compose;
        ] );
      ( "wire",
        [
          Alcotest.test_case "int roundtrips + range checks" `Quick test_wire_ints;
          Alcotest.test_case "rejects corrupt sign byte" `Quick
            test_wire_int_rejects_corrupt_top_byte;
          Alcotest.test_case "header" `Quick test_wire_header;
          Alcotest.test_case "frame classification" `Quick
            test_frame_classification;
        ] );
      ( "op-codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_op_rejects_malformed;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore (bitset)" `Quick
            (test_snapshot_restore Network.Bitset);
          Alcotest.test_case "restore (reference)" `Quick
            (test_snapshot_restore Network.Reference);
          Alcotest.test_case "rejects inconsistent" `Quick
            test_restore_rejects_inconsistent;
          Alcotest.test_case "state codec roundtrip" `Quick
            test_state_codec_roundtrip;
          Alcotest.test_case "refuses implausible shape" `Quick
            test_restore_refuses_implausible_shape;
        ] );
      ( "wal",
        [
          Alcotest.test_case "write/read/tear/truncate" `Quick test_wal_write_read;
          Alcotest.test_case "detects corruption" `Quick test_wal_detects_corruption;
          Alcotest.test_case "policy validation" `Quick test_wal_policy_validation;
        ] );
      ( "store",
        [
          Alcotest.test_case "session + recover" `Quick
            test_store_session_and_recover;
          Alcotest.test_case "falls back to older snapshot" `Quick
            test_store_falls_back_to_older_snapshot;
        ] );
      ("properties", props);
    ]
