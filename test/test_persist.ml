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
let digest net = P.Backend.digest (P.Backend.Net net)

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

let make_net ?telemetry ?(k = 2) ?(strategy = "min-intersection") () =
  let topo = Topology.make_exn ~n:3 ~m:8 ~r:3 ~k in
  Network.create
    ~config:{ Network.Config.default with telemetry; strategy }
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

(* Byte offset of the snapshot's link-impl tag: n, m, r, k (u32 each),
   the construction and model bytes, x_limit (u32), then the strategy,
   one byte for the built-ins. *)
let link_impl_tag_offset = 4 + 4 + 4 + 4 + 1 + 1 + 4 + 1

let with_byte state off v =
  let b = Bytes.of_string state in
  Bytes.set_uint8 b off v;
  Bytes.to_string b

let restore_ok state =
  match P.Backend.restore state with
  | Ok (P.Backend.Net net) -> net
  | Ok (P.Backend.Mesh _) -> Alcotest.fail "restored as a mesh"
  | Error e -> Alcotest.fail ("snapshot refused: " ^ e)

let test_snapshot_restore () =
  let net = make_net () in
  populate net;
  let restored = Network.restore (Network.snapshot net) in
  Alcotest.(check int)
    "digest equal" (digest net) (digest restored);
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

(* A snapshot written at k <= 62 by a network configured for the old
   bool-array reference representation carries link-impl tag 1 where
   the default wrote 0.  The tag no longer selects anything: both
   restore to the same routes and the same link state. *)
let test_reference_tagged_snapshot () =
  let net = make_net () in
  populate net;
  let tag0 = P.Backend.encode_state (P.Backend.Net net) in
  Alcotest.(check int) "default writes tag 0" 0
    (Char.code tag0.[link_impl_tag_offset]);
  let from0 = restore_ok tag0 in
  let from1 = restore_ok (with_byte tag0 link_impl_tag_offset 1) in
  Alcotest.(check bool) "same routes" true
    (Network.active_routes from0 = Network.active_routes from1);
  let state t = Format.asprintf "%a" Network.pp_state t in
  Alcotest.(check string) "same pp_state" (state from0) (state from1);
  Alcotest.(check int) "re-encodes as tag 0" (digest from0) (digest from1)

(* [state] with the one-byte strategy tag at [off] replaced by the
   string-carrying [tag] spelling out [name]. *)
let with_named_strategy state ~off ~tag name =
  let b = Buffer.create (String.length state + 32) in
  Buffer.add_string b (String.sub state 0 off);
  P.Wire.put_u8 b tag;
  P.Wire.put_u32 b (String.length name);
  Buffer.add_string b name;
  Buffer.add_string b
    (String.sub state (off + 1) (String.length state - off - 1));
  Buffer.contents b

let strategy_offset = link_impl_tag_offset - 1

(* Mesh state: tag (u32), version, topology name (u32 length + bytes),
   k, then the strategy. *)
let mesh_strategy_offset topo = 4 + 1 + 4 + String.length topo + 1

let mesh_state strategy =
  let config = { Wdm_mesh.Mesh_network.Config.default with strategy } in
  let mesh = Result.get_ok (Wdm_mesh.Mesh_network.create ~config "nsf14") in
  ignore (Wdm_mesh.Mesh_network.connect mesh (conn (ep 1 1) [ ep 5 1; ep 9 1 ]));
  P.Backend.encode_state (P.Backend.Mesh mesh)

(* A string-tagged name is resolved at restore: an unregistered one is
   refused with an [Error] on both engines. *)
let test_unregistered_strategy_refused () =
  let net = make_net () in
  populate net;
  let fabric = P.Backend.encode_state (P.Backend.Net net) in
  (match
     P.Backend.restore
       (with_named_strategy fabric ~off:strategy_offset ~tag:3 "no-such")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fabric restored an unregistered strategy");
  match
    P.Backend.restore
      (with_named_strategy (mesh_state "first-fit")
         ~off:(mesh_strategy_offset "nsf14") ~tag:5 "no-such")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mesh restored an unregistered strategy"

(* A name that has a one-byte alias decodes from either spelling and
   always re-encodes with the alias, byte for byte. *)
let test_strategy_alias_reencodes () =
  let net = make_net ~strategy:"first-fit" () in
  populate net;
  let fabric = P.Backend.encode_state (P.Backend.Net net) in
  Alcotest.(check int) "first-fit writes tag 1" 1
    (Char.code fabric.[strategy_offset]);
  let spelled =
    with_named_strategy fabric ~off:strategy_offset ~tag:3 "first-fit"
  in
  Alcotest.(check string) "fabric re-encodes with tag 1" fabric
    (P.Backend.encode_state (P.Backend.Net (restore_ok spelled)));
  let mesh = mesh_state "most-used" in
  let off = mesh_strategy_offset "nsf14" in
  Alcotest.(check int) "most-used writes tag 1" 1 (Char.code mesh.[off]);
  match
    P.Backend.restore (with_named_strategy mesh ~off ~tag:5 "most-used")
  with
  | Ok b ->
    Alcotest.(check string) "mesh re-encodes with tag 1" mesh
      (P.Backend.encode_state b)
  | Error e -> Alcotest.fail ("mesh snapshot refused: " ^ e)

let test_unknown_link_impl_tag () =
  let net = make_net () in
  populate net;
  let state = P.Backend.encode_state (P.Backend.Net net) in
  match P.Backend.restore (with_byte state link_impl_tag_offset 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "link-impl tag 2 restored"

let test_restore_rejects_inconsistent () =
  let net = make_net () in
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
  let net = make_net () in
  populate net;
  let bytes = P.Backend.encode_state (P.Backend.Net net) in
  let net' = restore_ok bytes in
  Alcotest.(check string) "re-encodes identically" bytes
    (P.Backend.encode_state (P.Backend.Net net'));
  Alcotest.(check int) "routes survive"
    (List.length (Network.active_routes net))
    (List.length (Network.active_routes net'))

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
    (fun (r, tag) ->
      let net =
        Network.create ~construction:Network.Msw_dominant
          ~output_model:Model.MSW
          (Topology.make_exn ~n:32 ~m:192 ~r ~k:2)
      in
      let state =
        with_byte
          (P.Backend.encode_state (P.Backend.Net net))
          link_impl_tag_offset tag
      in
      (match P.Backend.restore state with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("intact snapshot refused: " ^ e));
      match P.Backend.restore (with_m state 13_303_818) with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.fail (Printf.sprintf "flipped m restored at r=%d" r))
    [ (32, 0); (4, 0); (4, 1) ];
  (* a wavelength count past the ceiling is refused too *)
  let net = make_net () in
  let state = P.Backend.encode_state (P.Backend.Net net) in
  let b = Bytes.of_string state in
  Bytes.set_int32_le b 12 (Int32.of_int 100_000);
  match P.Backend.restore (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k = 100000 restored"

(* Yen enumerates up to [k_paths] loopless paths per pair and the mesh
   caches them, so a bit-flipped [k_paths] in a snapshot (65, 2^31) must
   be refused at restore, before any pair is routed. *)
let test_mesh_k_paths_bound () =
  let module Mesh = Wdm_mesh.Mesh_network in
  let config k_paths = { Mesh.Config.default with k_paths } in
  (match Mesh.create ~config:(config 64) "nsf14" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("k_paths = 64 refused: " ^ e));
  (match Mesh.create ~config:(config 65) "nsf14" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k_paths = 65 built");
  let mesh = Result.get_ok (Mesh.create "nsf14") in
  ignore (Mesh.connect mesh (conn (ep 1 1) [ ep 9 1; ep 12 1 ]));
  let state = Mesh.snapshot mesh in
  (match P.Backend.restore (P.Backend.encode_mesh_state state) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("intact mesh snapshot refused: " ^ e));
  List.iter
    (fun k_paths ->
      let bad = P.Backend.encode_mesh_state { state with Mesh.s_k_paths = k_paths } in
      (match P.Backend.decode_mesh_state bad with
      | Ok s -> Alcotest.(check int) "field decoded" k_paths s.Mesh.s_k_paths
      | Error e -> Alcotest.fail e);
      match P.Backend.restore bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "k_paths = %d restored" k_paths)
    [ 65; 1 lsl 31 ]

(* --- state decoder mutation fuzz ------------------------------------------ *)

(* Real snapshots to damage: a k = 2 fabric and a k = 130 one (three
   words per link, routes on the top wavelengths) with routes, a
   teardown and faults in force, and an nsf14 mesh with live trees. *)
let fuzz_states () =
  let narrow = make_net () in
  populate narrow;
  let wide = make_net ~k:130 () in
  List.iter
    (fun c -> ignore (Network.connect wide c))
    [
      conn (ep 1 130) [ ep 4 130; ep 7 130 ];
      conn (ep 2 63) [ ep 5 63 ];
      conn (ep 4 62) [ ep 2 62; ep 8 62 ];
      conn (ep 9 1) [ ep 3 1 ];
    ];
  ignore (Network.disconnect wide 1);
  ignore (Network.inject_fault wide (Fault.Middle 2));
  ignore
    (Network.inject_fault wide
       (Fault.Stage1_laser { input = 1; middle = 3; wl = 100 }));
  (* string-tagged strategy names, so mutations reach name decoding
     and resolution *)
  let named strategy =
    let net = make_net ~strategy () in
    populate net;
    P.Backend.encode_state (P.Backend.Net net)
  in
  let mesh strategy =
    let config = { Wdm_mesh.Mesh_network.Config.default with strategy } in
    let mesh = Result.get_ok (Wdm_mesh.Mesh_network.create ~config "nsf14") in
    for i = 0 to 19 do
      let wl = (i mod 8) + 1 in
      ignore
        (Wdm_mesh.Mesh_network.connect mesh
           (conn (ep ((i mod 14) + 1) wl)
              [ ep ((((i * 5) + 3) mod 14) + 1) wl;
                ep ((((i * 5) + 10) mod 14) + 1) wl ]))
    done;
    P.Backend.encode_state (P.Backend.Mesh mesh)
  in
  [
    ("k=2", P.Backend.encode_state (P.Backend.Net narrow));
    ("k=130", P.Backend.encode_state (P.Backend.Net wide));
    ("annealed", named "annealed");
    ("crosstalk:first-fit:15", named "crosstalk:first-fit:15");
    ("nsf14", mesh "first-fit");
    ("nsf14 crosstalk:most-used:18", mesh "crosstalk:most-used:18");
  ]

(* In a restored fabric every hop lies inside the topology and no link
   slot carries two routes: the packed planes are flat arrays, so an
   out-of-range hop would alias another link's slot instead of failing. *)
let check_hops label net =
  let { Topology.m; r; k; _ } = Network.topology net in
  let claimed = Hashtbl.create 64 in
  let claim stage row col wl ~rows ~cols =
    if row < 1 || row > rows || col < 1 || col > cols || wl < 1 || wl > k then
      Alcotest.failf "%s: restored a hop outside the topology" label;
    if Hashtbl.mem claimed (stage, row, col, wl) then
      Alcotest.failf "%s: restored two routes on one slot" label;
    Hashtbl.add claimed (stage, row, col, wl) ()
  in
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          claim 1 route.input_switch h.middle h.stage1_wl ~rows:r ~cols:m;
          List.iter
            (fun (p, w) -> claim 2 h.middle p w ~rows:m ~cols:r)
            h.serves)
        route.hops)
    (Network.active_routes net)

(* Overwrite 1-4 random bytes of each snapshot, a few thousand times
   from a fixed seed: the decoder and restore must answer [Ok] or
   [Error], never raise, and what they accept must pass [check_hops]. *)
let test_state_mutation_fuzz () =
  let rng = Random.State.make [| 0x5eed |] in
  List.iter
    (fun (label, state) ->
      (match P.Backend.restore state with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: intact snapshot refused: %s" label e);
      for _ = 1 to 2000 do
        let b = Bytes.of_string state in
        for _ = 1 to 1 + Random.State.int rng 4 do
          Bytes.set_uint8 b
            (Random.State.int rng (Bytes.length b))
            (Random.State.int rng 256)
        done;
        match P.Backend.restore (Bytes.to_string b) with
        | Ok (P.Backend.Net net) -> check_hops label net
        | Ok (P.Backend.Mesh _) | Error _ -> ()
        | exception e ->
          Alcotest.failf "%s: restore raised %s" label (Printexc.to_string e)
      done)
    (fuzz_states ())

(* --- wire decoder mutation fuzz ------------------------------------------- *)

(* Real encodings of every request, response and replication message
   shape, from a live fabric so routes and refusals are genuine. *)
let wire_samples () =
  let net = make_net () in
  let admitted = Result.get_ok (Network.connect net (conn (ep 1 1) [ ep 4 1; ep 7 1 ])) in
  let refused =
    match Network.connect net (conn (ep 1 1) [ ep 5 1 ]) with
    | Error e -> e
    | Ok _ -> Alcotest.fail "busy source admitted"
  in
  let blocked =
    P.Resp.Refused
      (Network.Blocked
         { fanout_switches = [ 1; 3 ]; available_middles = [ 2 ]; uncovered = [ 3 ] })
  in
  let enc f v =
    let b = Buffer.create 256 in
    f b v;
    Buffer.contents b
  in
  let requests =
    List.map (fun op -> P.Resp.Admit op) sample_ops
    @ P.Resp.
        [ Get_digest; Get_stats; Promote;
          Batch [ Admit (List.hd sample_ops); Get_digest; Admit (P.Op.Disconnect 4) ] ]
  in
  let responses =
    P.Resp.
      [ Admitted { route = admitted; moved = 2 }; Refused refused; blocked;
        Released admitted; Release_failed (Network.Already_released 3);
        Fault_applied { torn_down = 1 }; Fault_cleared; Digest_is 123456789;
        Stats_json "{\"a\":1}"; Server_error "boom";
        Not_leader { leader = "unix:l.sock" }; Promoted { seq = 9 };
        Batch_reply [ Digest_is 1; Released admitted; Fault_cleared ] ]
  in
  let state = P.Backend.encode_state (P.Backend.Net net) in
  let to_follower =
    P.Repl.
      [ Init_snapshot { epoch = 2; seq = 10; state }; Init_resume { epoch = 2; seq = 10 };
        Rep_op { seq = 11; op = List.hd sample_ops }; Rep_digest { seq = 12; digest = 77 };
        Goodbye { reason = "slow follower" } ]
  in
  ( List.map (enc P.Op.encode) sample_ops,
    List.map (enc P.Resp.encode_request) requests,
    List.map (enc P.Resp.encode) responses,
    List.map (enc P.Repl.encode_to_leader)
      P.Repl.[ Subscribe { epoch = 0; last_seq = -1 }; Ack { seq = 7; digest = 42 } ],
    List.map (enc P.Repl.encode_to_follower) to_follower )

(* Overwrite 1-4 random bytes of each encoding from a fixed seed: the
   [*_string] decoders answer [Ok] or [Error], the reader decoders may
   raise only [Wire.Decode_error]. *)
let test_wire_mutation_fuzz () =
  let rng = Random.State.make [| 0xf022 |] in
  let mutate s =
    let b = Bytes.of_string s in
    for _ = 1 to 1 + Random.State.int rng 4 do
      Bytes.set_uint8 b
        (Random.State.int rng (Bytes.length b))
        (Random.State.int rng 256)
    done;
    Bytes.to_string b
  in
  let total label decode samples =
    List.iter
      (fun s ->
        for _ = 1 to 300 do
          match decode (mutate s) with
          | Ok _ | Error _ -> ()
          | exception e ->
            Alcotest.failf "%s raised %s" label (Printexc.to_string e)
        done)
      samples
  in
  let reader decode s =
    match decode (P.Wire.reader s) with
    | v -> Ok v
    | exception P.Wire.Decode_error _ -> Error ()
  in
  let ops, requests, responses, to_leader, to_follower = wire_samples () in
  total "Op.decode_string" (fun s -> Result.map ignore (P.Op.decode_string s)) ops;
  total "Resp.decode_string"
    (fun s -> Result.map ignore (P.Resp.decode_string s))
    responses;
  total "Resp.decode_request" (reader P.Resp.decode_request) requests;
  total "Repl.decode_to_leader" (reader P.Repl.decode_to_leader) to_leader;
  total "Repl.decode_to_follower" (reader P.Repl.decode_to_follower) to_follower

(* --- json and wal mutation fuzz -------------------------------------------- *)

let mutate_bytes rng s =
  let b = Bytes.of_string s in
  for _ = 1 to 1 + Random.State.int rng 4 do
    Bytes.set_uint8 b
      (Random.State.int rng (Bytes.length b))
      (Random.State.int rng 256)
  done;
  Bytes.to_string b

(* A /metrics-style registry snapshot (counters, a gauge, a histogram
   with observations) and a mesh_blocking document as [wdmnet mesh
   --json] writes it, each damaged in 1-4 bytes from a fixed seed:
   [Json.parse] answers [Ok] or [Error], never raises. *)
let test_json_mutation_fuzz () =
  let module J = Wdm_telemetry.Json in
  let module M = Wdm_telemetry.Metrics in
  let m = M.create () in
  M.add (M.counter m ~help:"Accepted connects" "connects_total") 41;
  M.set (M.gauge m ~help:"Active routes" "active_routes") 12.5;
  let h = M.histogram m ~help:"Admission latency" "connect_seconds" in
  List.iter (Wdm_telemetry.Histogram.observe h) [ 1e-6; 3e-5; 2e-3; 0.4 ];
  let metrics = J.to_string (M.to_json (M.snapshot m)) in
  let spec =
    {
      Wdm_mesh.Campaign.quick with
      Wdm_mesh.Campaign.topos = [ "janet" ];
      loads = [ 6. ];
      arrivals = 60;
    }
  in
  let cells =
    match Wdm_mesh.Campaign.run spec with
    | Ok cells -> cells
    | Error e -> Alcotest.fail e
  in
  let blocking =
    J.to_string
      (J.Obj
         [
           ("seed", J.Int spec.Wdm_mesh.Campaign.seed);
           ( "cells",
             J.List
               (List.map
                  (fun (c : Wdm_mesh.Campaign.cell) ->
                    let p = c.Wdm_mesh.Campaign.point in
                    J.Obj
                      [
                        ("topo", J.String c.Wdm_mesh.Campaign.topo);
                        ("strategy", J.String c.Wdm_mesh.Campaign.strategy);
                        ("accepted", J.Int p.Wdm_traffic.Erlang.accepted);
                        ("blocked", J.Int p.Wdm_traffic.Erlang.blocked);
                        ("blocking", J.Float p.Wdm_traffic.Erlang.blocking);
                      ])
                  cells) );
         ])
  in
  let rng = Random.State.make [| 0x1503 |] in
  List.iter
    (fun (label, doc) ->
      (match J.parse doc with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: intact document refused: %s" label e);
      for _ = 1 to 2000 do
        match J.parse (mutate_bytes rng doc) with
        | Ok _ | Error _ -> ()
        | exception e ->
          Alcotest.failf "%s: Json.parse raised %s" label (Printexc.to_string e)
      done)
    [ ("metrics", metrics); ("mesh_blocking", blocking) ]

(* WALs written by a short fabric churn and a short mesh churn, damaged
   in 1-4 bytes on disk: [Wal.read] answers [Ok] or [Error], never
   raises. *)
let test_wal_mutation_fuzz () =
  let dir = Filename.temp_file "wdm_wal_fuzz" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let record name drive =
    let path = Filename.concat dir name in
    let w = P.Wal.create path in
    drive (P.Wal.append w);
    P.Wal.close w;
    In_channel.with_open_bin path In_channel.input_all
  in
  let fabric =
    record "fabric.wal" (fun append ->
        let net = make_net () in
        let sut =
          {
            Wdm_traffic.Churn.connect =
              (fun c ->
                append (P.Op.Connect c);
                Result.map (fun r -> r.Network.id) (Network.connect net c));
            disconnect =
              (fun id ->
                append (P.Op.Disconnect id);
                ignore (Network.disconnect net id));
          }
        in
        ignore
          (Wdm_traffic.Churn.run
             (Random.State.make [| 15 |])
             ~spec:(Topology.spec (Network.topology net)) ~model:Model.MSW
             ~fanout:(Wdm_traffic.Fanout.Zipf { max = 4; s = 1.0 })
             ~steps:80 ~teardown_bias:0.3 sut))
  in
  let mesh =
    record "mesh.wal" (fun append ->
        let net =
          Result.get_ok (Wdm_mesh.Mesh_network.create "nsf14")
        in
        let sut =
          {
            Wdm_traffic.Churn.connect =
              (fun c ->
                append (P.Op.Connect c);
                Result.map
                  (fun r -> r.Wdm_mesh.Mesh_network.id)
                  (Wdm_mesh.Mesh_network.connect net c));
            disconnect =
              (fun id ->
                append (P.Op.Disconnect id);
                ignore (Wdm_mesh.Mesh_network.disconnect net id));
          }
        in
        ignore
          (Wdm_traffic.Erlang.run
             (Random.State.make [| 15 |])
             ~nodes:14
             ~fanout:(Wdm_traffic.Fanout.Zipf { max = 4; s = 1.2 })
             ~offered:20. ~arrivals:60 sut))
  in
  let damaged = Filename.concat dir "damaged.wal" in
  let rng = Random.State.make [| 0x3a1 |] in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      List.iter
        (fun (label, bytes) ->
          (match P.Wal.read (Filename.concat dir label) with
          | Ok { tear = None; ops; _ } when ops <> [] -> ()
          | _ -> Alcotest.failf "%s: intact WAL not read back whole" label);
          for _ = 1 to 300 do
            Out_channel.with_open_bin damaged (fun oc ->
                Out_channel.output_string oc (mutate_bytes rng bytes));
            match P.Wal.read damaged with
            | Ok _ | Error _ -> ()
            | exception e ->
              Alcotest.failf "%s: Wal.read raised %s" label
                (Printexc.to_string e)
          done)
        [ ("fabric.wal", fabric); ("mesh.wal", mesh) ])

(* --- wal ----------------------------------------------------------------- *)

let test_wal_write_read () =
  let path = "test_wal_rw.wal" in
  let w = P.Wal.create path in
  List.iter (P.Wal.append w) sample_ops;
  Alcotest.(check int) "records" (List.length sample_ops) (P.Wal.records w);
  let end_off = P.Wal.tell w in
  P.Wal.close w;
  (match P.Wal.read path with
  | Error e -> Alcotest.fail e.P.Wal.reason
  | Ok { ops; tear; valid_end } ->
    Alcotest.(check bool) "no tear" true (tear = None);
    Alcotest.(check int) "valid prefix is the whole file" end_off valid_end;
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
    | Error e -> Alcotest.fail e.P.Wal.reason
  in
  let oc = open_out_bin path in
  output_string oc (String.sub contents 0 (last_start + 3));
  close_out oc;
  (match P.Wal.read path with
  | Error e -> Alcotest.fail e.P.Wal.reason
  | Ok { ops; tear; valid_end } ->
    Alcotest.(check int) "one fewer op" (List.length sample_ops - 1)
      (List.length ops);
    Alcotest.(check (option int)) "tear offset" (Some last_start) tear;
    Alcotest.(check int) "valid prefix ends at the tear" last_start valid_end);
  P.Wal.truncate_at path last_start;
  (match P.Wal.read path with
  | Ok { tear = None; ops; _ } ->
    Alcotest.(check int) "clean after truncate" (List.length sample_ops - 1)
      (List.length ops)
  | Ok _ -> Alcotest.fail "still torn after truncate_at"
  | Error e -> Alcotest.fail e.P.Wal.reason);
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
  | Error { offset; reason } ->
    (* the damaged record starts at or before the flipped byte *)
    Alcotest.(check bool)
      (Printf.sprintf "error names the damaged record: %s at byte %d" reason
         offset)
      true
      (offset >= P.Wire.header_len && offset <= mid)
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
  let net = P.Backend.Net (make_net ()) in
  let store = P.Store.start_backend ~wal net in
  let log_and_apply op =
    P.Store.log store op;
    match P.Backend.apply net op with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  log_and_apply (P.Op.Connect (conn (ep 1 1) [ ep 1 1; ep 4 1 ]));
  log_and_apply (P.Op.Connect (conn (ep 2 2) [ ep 5 2 ]));
  P.Store.checkpoint_backend store net;
  log_and_apply (P.Op.Inject_fault (Fault.Middle 1));
  log_and_apply (P.Op.Connect (conn (ep 5 1) [ ep 8 1 ]));
  let digest = P.Backend.digest net in
  P.Store.close store;
  (match P.Store.recover_backend ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok r ->
    Alcotest.(check int) "digest" digest (P.Backend.digest r.P.Store.backend);
    Alcotest.(check int) "replayed past checkpoint" 2 r.P.Store.b_replayed;
    Alcotest.(check bool) "no tear" true (r.P.Store.b_tear = None));
  (* with every snapshot gone there is nothing to seed recovery from *)
  List.iter
    (fun seq ->
      let p = P.Store.snapshot_path ~wal ~seq in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2; 3 ];
  (match P.Store.recover_backend ~wal () with
  | Error (P.Store.No_snapshot _) -> ()
  | Error e ->
    Alcotest.fail (Format.asprintf "wrong error: %a" P.Store.pp_recovery_error e)
  | Ok _ -> Alcotest.fail "recovered with no snapshot");
  Sys.remove wal

let test_store_falls_back_to_older_snapshot () =
  let wal = "test_store_fallback.wal" in
  let net = P.Backend.Net (make_net ()) in
  let store = P.Store.start_backend ~wal net in
  let log_and_apply op =
    P.Store.log store op;
    ignore (P.Backend.apply net op)
  in
  log_and_apply (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  P.Store.checkpoint_backend store net;
  log_and_apply (P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]));
  P.Store.checkpoint_backend store net;
  let digest = P.Backend.digest net in
  P.Store.close store;
  (* trash the newest snapshot; seq 1 must still carry recovery *)
  let newest = P.Store.snapshot_path ~wal ~seq:2 in
  let oc = open_out_bin newest in
  output_string oc "not a snapshot at all";
  close_out oc;
  (match P.Store.recover_backend ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok r ->
    Alcotest.(check int) "fell back" 1 r.P.Store.b_snapshot_seq;
    Alcotest.(check int) "digest" digest (P.Backend.digest r.P.Store.backend));
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
          Alcotest.test_case "restore (bitset)" `Quick test_snapshot_restore;
          Alcotest.test_case "restore (reference)" `Quick
            test_reference_tagged_snapshot;
          Alcotest.test_case "unknown link-impl tag refused" `Quick
            test_unknown_link_impl_tag;
          Alcotest.test_case "unregistered strategy name refused" `Quick
            test_unregistered_strategy_refused;
          Alcotest.test_case "strategy alias re-encodes" `Quick
            test_strategy_alias_reencodes;
          Alcotest.test_case "rejects inconsistent" `Quick
            test_restore_rejects_inconsistent;
          Alcotest.test_case "state codec roundtrip" `Quick
            test_state_codec_roundtrip;
          Alcotest.test_case "refuses implausible shape" `Quick
            test_restore_refuses_implausible_shape;
          Alcotest.test_case "refuses an unbounded mesh k_paths" `Quick
            test_mesh_k_paths_bound;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "state decoders survive byte mutations" `Quick
            test_state_mutation_fuzz;
          Alcotest.test_case "wire decoders survive byte mutations" `Quick
            test_wire_mutation_fuzz;
          Alcotest.test_case "json parser survives byte mutations" `Quick
            test_json_mutation_fuzz;
          Alcotest.test_case "wal reader survives byte mutations" `Quick
            test_wal_mutation_fuzz;
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
