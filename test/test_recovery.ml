(* Lockstep crash-recovery equivalence.

   A seeded churn run under a middle-fault schedule is recorded to a
   WAL with every snapshot retained.  We then simulate a crash at every
   record boundary: truncate a copy of the WAL there, recover, and
   check that the recovered network is byte-for-byte the network an
   uninterrupted run had at that point (state digest), and that the
   next 1000 ops of a deterministic continuation produce identical hop
   checksums and blocked counts on both.  Interior byte flips must
   surface as corruption-with-offset or recover to a legitimate prefix
   state — never silently diverge.  Every recovered state is audited
   against the test oracle's rebuild from its routes.  The whole sweep
   runs twice: at k = 2 (one word per link plane) and at k = 64 (two
   words).  The groups keep their historical labels, "bitset" and
   "reference": k = 64 is a width that used to run on the bool-array
   reference engine. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Fault = Wdm_faults.Fault
module Schedule = Wdm_faults.Schedule
module Churn = Wdm_traffic.Churn
module Tel = Wdm_telemetry
module Iset = Set.Make (Int)

let n = 3
let r = 3
let m = 6
let nports = n * r
let seed = 1848
let continuation_ops = 1000

let ep port wl = Endpoint.make ~port ~wl
let digest net = P.Backend.digest (P.Backend.Net net)

let fabric (r : P.Store.backend_recovery) =
  match r.P.Store.backend with
  | P.Backend.Net net -> net
  | P.Backend.Mesh _ -> Alcotest.fail "recovered a mesh"

type variant = { label : string; k : int; steps : int }

let make_net ?telemetry v =
  Network.create
    ~config:{ Network.Config.default with telemetry }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW
    (Topology.make_exn ~n ~m ~r ~k:v.k)

(* --- file plumbing ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let snapshot_seqs wal =
  let rec go seq acc =
    let p = P.Store.snapshot_path ~wal ~seq in
    if Sys.file_exists p then go (seq + 1) (seq :: acc) else List.rev acc
  in
  go 0 []

let copy_snapshots ~from_wal ~to_wal =
  List.iter
    (fun seq ->
      write_file
        (P.Store.snapshot_path ~wal:to_wal ~seq)
        (read_file (P.Store.snapshot_path ~wal:from_wal ~seq)))
    (snapshot_seqs from_wal)

let remove_store_files wal =
  List.iter
    (fun seq -> Sys.remove (P.Store.snapshot_path ~wal ~seq))
    (snapshot_seqs wal);
  if Sys.file_exists wal then Sys.remove wal

(* --- recording ----------------------------------------------------------- *)

(* the journalled SUT wrappers, same shape as the wdmnet CLI's *)
let logged_fsut store net =
  let sut =
    {
      Churn.connect =
        (fun c ->
          P.Store.log store (P.Op.Connect c);
          match Network.connect net c with
          | Ok route -> Ok route.Network.id
          | Error e -> Error e);
      disconnect =
        (fun id ->
          P.Store.log store (P.Op.Disconnect id);
          ignore (Network.disconnect net id));
    }
  in
  {
    Churn.base = sut;
    inject =
      (fun f ->
        P.Store.log store (P.Op.Inject_fault f);
        Network.inject_fault net f);
    clear =
      (fun f ->
        P.Store.log store (P.Op.Clear_fault f);
        Network.clear_fault net f);
    reconnect =
      (fun c ->
        let outcome =
          match Network.connect_rearrangeable net c with
          | Ok (route, _) -> Ok route.Network.id
          | Error e -> Error e
        in
        P.Store.log store
          (P.Op.Repair { connection = c; rehomed = Result.is_ok outcome });
        outcome);
  }

let fault_schedule ~steps =
  Schedule.generate
    ~rng:(Random.State.make [| seed; 0xfa |])
    ~universe:(Fault.middles ~m)
    ~mtbf:150. ~mttr:80. ~steps
  |> List.map (fun { Schedule.step; action } ->
         match action with
         | Schedule.Inject fault -> (step, `Inject fault)
         | Schedule.Clear fault -> (step, `Clear fault))

let record v ~wal =
  let net = make_net v in
  let backend = P.Backend.Net net in
  let store = P.Store.start_backend ~retain:max_int ~wal backend in
  let fsut = logged_fsut store net in
  let persist =
    {
      Churn.policy = Churn.Every_n_ops 100;
      checkpoint = (fun ~ops:_ -> P.Store.checkpoint_backend store backend);
    }
  in
  let topo = Network.topology net in
  let (_ : Churn.fault_stats) =
    Churn.run_with_faults ~persist
      (Random.State.make [| seed |])
      ~spec:(Topology.spec topo) ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = nports; s = 1.1 })
      ~steps:v.steps ~teardown_bias:0.35
      ~schedule:(fault_schedule ~steps:v.steps)
      fsut
  in
  P.Store.checkpoint_backend store backend;
  let records = P.Store.wal_records store in
  P.Store.close store;
  (net, records)

(* --- deterministic continuation ------------------------------------------ *)

(* Runs [continuation_ops] RNG-free ops against [net]: an arithmetic
   walk of MSW-legal connection requests, with every third op tearing
   down the lowest-id active route.  Returns the accumulated hop
   checksum over every admitted/released route and the blocked count —
   two nets in the same state must return the same pair. *)
let continuation net =
  let k = (Network.topology net).Topology.k in
  let checksum = ref 0 in
  let blocked = ref 0 in
  let active =
    ref
      (Iset.of_list
         (List.map (fun (route : Network.route) -> route.Network.id)
            (Network.active_routes net)))
  in
  for i = 0 to continuation_ops - 1 do
    if i mod 3 = 2 && not (Iset.is_empty !active) then begin
      let lowest = Iset.min_elt !active in
      active := Iset.remove lowest !active;
      match Network.disconnect net lowest with
      | Ok route -> checksum := P.Op.route_checksum !checksum route
      | Error e -> Alcotest.fail
          ("continuation disconnect failed: "
          ^ Network.Error.disconnect_to_string e)
    end
    else begin
      let wl = (i mod k) + 1 in
      let src = ep ((i * 7 mod nports) + 1) wl in
      let fanout = (i mod 3) + 1 in
      let dest_ports =
        List.sort_uniq compare
          (List.init fanout (fun j -> ((i * 5) + (j * 11)) mod nports))
      in
      let conn =
        Connection.make_exn ~source:src
          ~destinations:(List.map (fun p -> ep (p + 1) wl) dest_ports)
      in
      match Network.connect net conn with
      | Ok route ->
        checksum := P.Op.route_checksum !checksum route;
        active := Iset.add route.Network.id !active
      | Error _ -> incr blocked
    end
  done;
  (!checksum, !blocked)

(* --- the boundary sweep --------------------------------------------------- *)

type sweep = {
  wal : string;
  contents : string;  (** the full recorded WAL *)
  boundaries : int array;  (** record start offsets, then EOF *)
  prefix_digests : int array;  (** digest after [i] ops *)
  final_digest : int;
}

let recorded : (string * sweep) list ref = ref []

let sweep_of v =
  match List.assoc_opt v.label !recorded with
  | Some s -> s
  | None ->
    let wal = Printf.sprintf "lockstep_%s.wal" v.label in
    let live_net, records = record v ~wal in
    if records < 500 then
      Alcotest.failf "recorded only %d WAL records, need >= 500" records;
    let ops =
      match P.Wal.read wal with
      | Ok { ops; tear = None; _ } -> ops
      | Ok _ -> Alcotest.fail "freshly recorded WAL reports a tear"
      | Error e -> Alcotest.fail e.P.Wal.reason
    in
    let contents = read_file wal in
    let boundaries =
      Array.of_list (List.map fst ops @ [ String.length contents ])
    in
    (* replay the ops against a fresh net, fingerprinting every prefix *)
    let ref_net = make_net v in
    let prefix_digests = Array.make (Array.length boundaries) 0 in
    prefix_digests.(0) <- digest ref_net;
    List.iteri
      (fun i (_, op) ->
        (match P.Backend.apply (P.Backend.Net ref_net) op with
        | Ok () -> ()
        | Error e -> Alcotest.failf "replay of op %d failed: %s" i e);
        prefix_digests.(i + 1) <- digest ref_net)
      ops;
    let final_digest = digest live_net in
    if prefix_digests.(Array.length boundaries - 1) <> final_digest then
      Alcotest.fail "full replay does not reproduce the recorded network";
    let s = { wal; contents; boundaries; prefix_digests; final_digest } in
    recorded := (v.label, s) :: !recorded;
    s

(* Crash at every record boundary: truncate, recover, compare digests,
   then race a 1000-op continuation against the uninterrupted network. *)
let test_every_boundary v () =
  let s = sweep_of v in
  let trunc = s.wal ^ ".trunc" in
  copy_snapshots ~from_wal:s.wal ~to_wal:trunc;
  let ref_net = make_net v in
  Array.iteri
    (fun i boundary ->
      (* ref_net holds the uninterrupted state after i ops *)
      write_file trunc (String.sub s.contents 0 boundary);
      (match P.Store.recover_backend ~wal:trunc () with
      | Error e ->
        Alcotest.failf "recovery at boundary %d (byte %d): %a" i boundary
          P.Store.pp_recovery_error e
      | Ok rec_ ->
        if digest (fabric rec_) <> s.prefix_digests.(i) then
          Alcotest.failf "digest mismatch at boundary %d (byte %d)" i boundary;
        if rec_.P.Store.b_tear <> None then
          Alcotest.failf "clean cut at boundary %d reported a tear" i;
        Oracle.audit (fabric rec_);
        let cs_rec, bl_rec = continuation (fabric rec_) in
        let cs_ref, bl_ref = continuation (Network.copy ref_net) in
        if cs_rec <> cs_ref || bl_rec <> bl_ref then
          Alcotest.failf
            "continuation diverged at boundary %d: checksum %d vs %d, blocked \
             %d vs %d"
            i cs_rec cs_ref bl_rec bl_ref);
      (* advance the uninterrupted run past op i *)
      if i < Array.length s.boundaries - 1 then
        match P.Wire.read_frame s.contents ~pos:boundary with
        | P.Wire.Frame { payload; _ } -> (
          match P.Op.decode_string payload with
          | Ok op -> ignore (P.Backend.apply (P.Backend.Net ref_net) op)
          | Error e -> Alcotest.fail e)
        | _ -> Alcotest.fail "boundary does not start a frame")
    s.boundaries;
  remove_store_files trunc

(* The acceptance criterion's telemetry leg: recover at full length,
   run the continuation on the recovered and the uninterrupted network,
   each with a fresh sink, and require identical counter values. *)
let test_counters_after_recovery v () =
  let s = sweep_of v in
  let trunc = s.wal ^ ".tel" in
  copy_snapshots ~from_wal:s.wal ~to_wal:trunc;
  write_file trunc s.contents;
  let sink_rec = Tel.Sink.create () in
  let sink_ref = Tel.Sink.create () in
  (match P.Store.recover_backend ~telemetry:sink_rec ~wal:trunc () with
  | Error e -> Alcotest.failf "%a" P.Store.pp_recovery_error e
  | Ok rec_ ->
    (* uninterrupted twin: replay all ops on a fresh instrumented net,
       then strip the replay-phase counters by snapshotting a restored
       clone instead — restore gives a clean-slate instrumented net in
       the same state *)
    let ref_net =
      Network.restore ~telemetry:sink_ref (Network.snapshot (fabric rec_))
    in
    let cs_rec, bl_rec = continuation (fabric rec_) in
    let cs_ref, bl_ref = continuation ref_net in
    Alcotest.(check int) "checksum" cs_ref cs_rec;
    Alcotest.(check int) "blocked" bl_ref bl_rec;
    let counters snap =
      List.filter_map
        (fun (name, _, v) ->
          (* persist_* differ by construction: only recovery increments
             them; the network-level counters are the contract *)
          if String.length name >= 7 && String.sub name 0 7 = "wdmnet_" then
            Some (name, v)
          else None)
        snap.Tel.Metrics.counters
    in
    let c_rec = counters (Tel.Metrics.snapshot sink_rec.Tel.Sink.metrics) in
    let c_ref = counters (Tel.Metrics.snapshot sink_ref.Tel.Sink.metrics) in
    Alcotest.(check (list (pair string int)))
      "continuation counters" c_ref c_rec);
  remove_store_files trunc

(* Interior byte flips: recovery must either name the damage (an error
   carrying the file and offset) or land on a legitimate prefix state —
   flipping a length field can only turn the tail into a torn write. *)
let test_byte_flips v () =
  let s = sweep_of v in
  let flip = s.wal ^ ".flip" in
  copy_snapshots ~from_wal:s.wal ~to_wal:flip;
  let len = String.length s.contents in
  let digests = Array.to_list s.prefix_digests in
  let offsets =
    [
      P.Wire.header_len;  (* first record's length field *)
      P.Wire.header_len + 5;  (* first record's CRC *)
      P.Wire.header_len + 9;  (* first record's payload *)
      len / 3;
      len / 2;
      (2 * len / 3) + 1;
      len - 2;
    ]
  in
  List.iter
    (fun off ->
      let b = Bytes.of_string s.contents in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
      write_file flip (Bytes.to_string b);
      match P.Store.recover_backend ~wal:flip () with
      | Error (P.Store.Corrupt { offset; _ }) ->
        if offset < P.Wire.header_len || offset > len then
          Alcotest.failf "flip at %d: implausible corruption offset %d" off
            offset
      | Error (P.Store.No_snapshot _) ->
        (* acceptable only if the flip gutted the WAL so early that no
           snapshot's offset is a boundary any more *)
        if off > len / 4 then
          Alcotest.failf "flip at %d: lost all snapshots" off
      | Ok rec_ ->
        let d = digest (fabric rec_) in
        if not (List.mem d digests) then
          Alcotest.failf
            "flip at %d: recovery silently diverged from every prefix state"
            off)
    offsets;
  remove_store_files flip

(* A cut mid-record is a torn write: recovery reports (and truncates)
   the tear and lands on the boundary before it. *)
let test_torn_tail v () =
  let s = sweep_of v in
  let torn = s.wal ^ ".torn" in
  copy_snapshots ~from_wal:s.wal ~to_wal:torn;
  let nb = Array.length s.boundaries in
  let boundary = s.boundaries.(nb / 2) in
  let i = nb / 2 in
  write_file torn (String.sub s.contents 0 (boundary + 5));
  (match P.Store.recover_backend ~wal:torn () with
  | Error e -> Alcotest.failf "%a" P.Store.pp_recovery_error e
  | Ok rec_ ->
    Alcotest.(check (option int)) "tear reported" (Some boundary)
      rec_.P.Store.b_tear;
    Alcotest.(check int) "state is the pre-tear prefix" s.prefix_digests.(i)
      (digest (fabric rec_));
    (* the tear was truncated: a second recovery is clean *)
    match P.Store.recover_backend ~wal:torn () with
    | Ok rec2 ->
      Alcotest.(check (option int)) "truncated" None rec2.P.Store.b_tear;
      Alcotest.(check int) "same state" s.prefix_digests.(i)
        (digest (fabric rec2))
    | Error e -> Alcotest.failf "%a" P.Store.pp_recovery_error e);
  remove_store_files torn

let cleanup v () =
  match List.assoc_opt v.label !recorded with
  | Some s -> remove_store_files s.wal
  | None -> ()

let for_variant v =
  [
    Alcotest.test_case "crash at every record boundary" `Slow
      (test_every_boundary v);
    Alcotest.test_case "telemetry counters after recovery" `Quick
      (test_counters_after_recovery v);
    Alcotest.test_case "interior byte flips never diverge" `Quick
      (test_byte_flips v);
    Alcotest.test_case "torn tail truncates to prefix" `Quick
      (test_torn_tail v);
    Alcotest.test_case "cleanup" `Quick (cleanup v);
  ]

let () =
  Alcotest.run "crash_recovery"
    [
      ("bitset", for_variant { label = "bitset"; k = 2; steps = 600 });
      (* the wider fabric turns more of the churn into WAL records and
         live routes; 350 steps still record well over 500 *)
      ("reference", for_variant { label = "reference"; k = 64; steps = 350 });
    ]
