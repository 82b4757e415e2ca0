(* The routing-strategy plug-in API: golden traces of the built-ins,
   plan validation, and the registry surface.

   Each built-in strategy is pinned by a golden trace: the CRC-32 of
   every connect outcome (route hops or refusal cause), the persisted
   digest and the admission counts over a seeded setup/teardown
   workload — 600 ops on one-word (k = 2) link planes, 3000 on two-word
   (k = 64) ones, and 600 Erlang arrivals on the nsf14 mesh.  The
   digest covers the codec's strategy tag, so a golden digest also pins
   the wire format. *)

open Wdm_core
module Network = Wdm_multistage.Network
module Topology = Wdm_multistage.Topology
module Mesh = Wdm_mesh.Mesh_network
module Assign = Wdm_mesh.Assign
module Churn = Wdm_traffic.Churn
module Erlang = Wdm_traffic.Erlang
module Backend = Wdm_persist.Backend
module Strategy = Wdm_core.Strategy

let ep p w = Endpoint.make ~port:p ~wl:w

(* ----- multistage golden traces ---------------------------------------- *)

(* One churn pass recording every connect outcome: the route's hops on
   admit, the refusal cause on block.  Two strategy variants behave
   identically iff their traces and final digests are equal — and
   because the churn generator only diverges after the first differing
   outcome, trace equality really does pin every decision. *)
let multistage_trace ?(k = 2) ~strategy ~steps () =
  (* m=5 is below the nonblocking bound, so the workload genuinely
     exercises refusals and the trace equality is not vacuous *)
  let topo = Topology.make_exn ~n:4 ~m:5 ~r:4 ~k in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let trace = Buffer.create 4096 in
  let sut =
    {
      Churn.connect =
        (fun c ->
          match Network.connect net c with
          | Ok route ->
            Buffer.add_string trace
              (Format.asprintf "+%a;" Network.pp_route route);
            Ok route.Network.id
          | Error e ->
            Buffer.add_string trace ("!" ^ Network.Error.cause e ^ ";");
            Error e);
      disconnect = (fun id -> ignore (Network.disconnect net id));
    }
  in
  let stats =
    Churn.run
      (Random.State.make [| 4242 |])
      ~spec:(Topology.spec topo) ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 9; s = 1.0 })
      ~steps ~teardown_bias:0.3 sut
  in
  (Buffer.contents trace, Backend.digest (Backend.Net net), stats)

(* (strategy, k, trace CRC-32, digest, accepted, blocked) *)
let multistage_golden =
  [
    ("min-intersection", 2, 1221039639, 3620425107, 193, 25);
    ("first-fit", 2, 2775863314, 206743442, 194, 21);
    ("exhaustive", 2, 1221039639, 3090092288, 193, 25);
    ("min-intersection", 64, 1455770781, 3695777431, 1583, 42);
    ("first-fit", 64, 2145110376, 3426165973, 1558, 95);
    ("exhaustive", 64, 3421544894, 1045026913, 1583, 42);
  ]

(* 32 times the endpoints at k = 64: a longer churn fills the
   wavelength planes far enough to refuse *)
let steps_for k = if k = 2 then 600 else 3000

let test_multistage_golden () =
  List.iter
    (fun (name, k, crc, digest, accepted, blocked) ->
      let tr, dg, st =
        multistage_trace ~k ~strategy:name ~steps:(steps_for k) ()
      in
      let label = Printf.sprintf "%s/k=%d" name k in
      Alcotest.(check int) (label ^ " trace") crc (Wdm_persist.Crc32.string tr);
      Alcotest.(check int) (label ^ " digest") digest dg;
      Alcotest.(check int) (label ^ " accepted") accepted st.Churn.accepted;
      Alcotest.(check int) (label ^ " blocked") blocked st.Churn.blocked)
    multistage_golden

(* The built-ins skip plan validation.  Re-registered through the public
   [Strategy.register], which validates every plan, each must still
   route its golden trace: none of its plans trips a check. *)
let test_builtins_validate () =
  List.iter
    (fun (name, k, crc, _, _, _) ->
      let builtin = Option.get (Network.Strategy.resolve name) in
      let checked = "checked-" ^ name in
      Network.Strategy.register { builtin with name = checked };
      let tr, _, _ =
        multistage_trace ~k ~strategy:checked ~steps:(steps_for k) ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%s/k=%d trace" checked k)
        crc (Wdm_persist.Crc32.string tr))
    multistage_golden

(* ----- mesh golden traces ---------------------------------------------- *)

let mesh_trace ~strategy ~arrivals =
  let config =
    {
      Mesh.Config.k = 4;
      strategy;
      mode = Wdm_mesh.Light_tree.Hierarchy;
      splitters = Mesh.Split_all;
      k_paths = 3;
    }
  in
  let net = Result.get_ok (Mesh.create ~config "nsf14") in
  let trace = Buffer.create 4096 in
  let sut =
    {
      Churn.connect =
        (fun c ->
          match Mesh.connect net c with
          | Ok route ->
            Buffer.add_string trace
              (Format.asprintf "+%a;" Mesh.pp_route route);
            Ok route.Mesh.id
          | Error e ->
            Buffer.add_string trace ("!" ^ Mesh.Error.to_string e ^ ";");
            Error e);
      disconnect = (fun id -> ignore (Mesh.disconnect net id));
    }
  in
  let point =
    Erlang.run
      (Random.State.make [| 777 |])
      ~nodes:14
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 5; s = 1.2 })
      ~offered:14. ~arrivals sut
  in
  (Buffer.contents trace, Backend.digest (Backend.Mesh net), point)

let test_mesh_golden () =
  List.iter
    (fun (name, crc, digest, accepted, blocked) ->
      let tr, dg, pt = mesh_trace ~strategy:name ~arrivals:600 in
      Alcotest.(check int) (name ^ " trace") crc (Wdm_persist.Crc32.string tr);
      Alcotest.(check int) (name ^ " digest") digest dg;
      Alcotest.(check int) (name ^ " accepted") accepted pt.Erlang.accepted;
      Alcotest.(check int) (name ^ " blocked") blocked pt.Erlang.blocked)
    [
      ("first-fit", 482807178, 1670694825, 477, 123);
      ("most-used", 2864175768, 631097624, 451, 149);
      ("least-used", 2083262193, 3255057420, 434, 166);
      ("random", 3220032555, 3831899215, 473, 127);
      (* first-fit's scan order under its own codec tag *)
      ("coloring", 482807178, 304012675, 477, 123);
    ]

(* ----- registry surface ------------------------------------------------ *)

let test_registry () =
  (* the lab strategies resolve; garbage does not *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("multistage " ^ name) true
        (Network.Strategy.resolve name <> None))
    [ "min-intersection"; "adaptive"; "annealed"; "crosstalk";
      "crosstalk:first-fit:15" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) ("mesh " ^ name) true
        (Assign.resolve_plugin name <> None))
    [ "first-fit"; "adaptive"; "annealed"; "crosstalk:most-used:18" ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Network.Strategy.find "no-such-strategy"));
  Alcotest.(check bool) "bad crosstalk rejected" true
    (Result.is_error (Assign.find_plugin "crosstalk:nope"));
  (* create refuses an unresolvable name up front *)
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
  (match
     Network.create
       ~config:{ Network.Config.default with strategy = "nope" }
       ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown name accepted by create");
  (* a plug-in probing a middle past [m] is refused, not answered from
     whichever link the packed plane would alias *)
  Network.Strategy.register
    {
      name = "probe-past-m";
      doc = "asks about a middle outside the fabric";
      select =
        (fun c ->
          ignore
            (Network.Strategy.covers c ~middle:(Network.Strategy.middles c + 1) 1);
          None);
    };
  (match
     Network.connect
       (Network.create
          ~config:{ Network.Config.default with strategy = "probe-past-m" }
          ~construction:Network.Msw_dominant ~output_model:Model.MSW topo)
       (Connection.make_exn ~source:(ep 1 1) ~destinations:[ ep 3 1 ])
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range covers answered");
  match
    Mesh.create
      ~config:
        { Mesh.Config.default with Mesh.Config.strategy = "nope" }
      "ring8"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown name accepted by mesh build"

(* A lab strategy must survive the snapshot/restore codec: new names
   take the string-carrying tag and come back routing the same. *)
let test_named_roundtrip () =
  let topo = Topology.make_exn ~n:4 ~m:8 ~r:4 ~k:2 in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy = "adaptive" }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let conn =
    Connection.make_exn ~source:(ep 1 1) ~destinations:[ ep 2 1; ep 6 1 ]
  in
  ignore (Result.get_ok (Network.connect net conn));
  let b = Backend.Net net in
  let b' = Result.get_ok (Backend.restore (Backend.encode_state b)) in
  Alcotest.(check int) "digest" (Backend.digest b) (Backend.digest b');
  match b' with
  | Backend.Net net' ->
    Alcotest.(check string) "strategy survives" "adaptive"
      (Network.strategy net')
  | Backend.Mesh _ -> Alcotest.fail "wrong backend kind"

(* ----- determinism of the lab strategies ------------------------------- *)

(* Stochastic plug-ins derive all randomness from the request key, so
   rebuilding the network and replaying the same ops reproduces routes
   exactly — the WAL-replay contract. *)
let test_annealed_deterministic () =
  let tr1, dg1, _ =
    multistage_trace ~strategy:"annealed" ~steps:400 ()
  in
  let tr2, dg2, _ =
    multistage_trace ~strategy:"annealed" ~steps:400 ()
  in
  Alcotest.(check string) "trace" tr1 tr2;
  Alcotest.(check int) "digest" dg1 dg2;
  let mtr1, mdg1, _ = mesh_trace ~strategy:"annealed" ~arrivals:400 in
  let mtr2, mdg2, _ = mesh_trace ~strategy:"annealed" ~arrivals:400 in
  Alcotest.(check string) "mesh trace" mtr1 mtr2;
  Alcotest.(check int) "mesh digest" mdg1 mdg2

(* The crosstalk decorator admits a subset of its base strategy's
   choices: everything it routes, the base routes identically or
   better. *)
let test_crosstalk_decorator () =
  let _, _, base =
    multistage_trace ~strategy:"min-intersection" ~steps:600 ()
  in
  let _, _, gated =
    multistage_trace ~strategy:"crosstalk:min-intersection:25"
      ~steps:600 ()
  in
  Alcotest.(check bool) "tighter budget blocks at least as much" true
    (gated.Churn.blocked >= base.Churn.blocked)

(* ----- strategy racing ------------------------------------------------- *)

(* [Compare.quick] races every strategy from one seed per workload.
   Mesh (Erlang) arrivals ignore admissions, so a mesh row offers every
   strategy the same stream; churn setups and teardowns follow what was
   admitted, so only a cell's own replay is pinned there. *)
let test_compare_quick () =
  let module Compare = Wdm_lab.Compare in
  let cells =
    match Compare.run Compare.quick with
    | Ok cells -> cells
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun w ->
      let label = Compare.workload_label w in
      let row = List.filter (fun c -> c.Compare.workload = label) cells in
      Alcotest.(check int) (label ^ " cells")
        (List.length Compare.quick.strategies) (List.length row);
      if Compare.workload_engine w = "mesh" then
        List.iter
          (fun c ->
            Alcotest.(check int)
              (label ^ " attempts, " ^ c.Compare.strategy)
              (List.hd row).Compare.attempts c.Compare.attempts)
          row)
    Compare.quick.workloads;
  let churn = List.hd Compare.quick.workloads in
  Alcotest.(check string) "first workload is churn" "multistage"
    (Compare.workload_engine churn);
  let strategy = List.nth Compare.quick.strategies 3 in
  let cell_of cells =
    List.find
      (fun c ->
        c.Compare.workload = Compare.workload_label churn
        && c.Compare.strategy = strategy)
      cells
  in
  let again =
    match
      Compare.run
        { Compare.quick with strategies = [ strategy ]; workloads = [ churn ] }
    with
    | Ok cells -> cell_of cells
    | Error e -> Alcotest.fail e
  in
  let first = cell_of cells in
  Alcotest.(check (list int))
    (strategy ^ " attempts/accepted/blocked")
    [ first.attempts; first.accepted; first.blocked ]
    [ again.attempts; again.accepted; again.blocked ]

(* ----- shared deterministic RNG ---------------------------------------- *)

let test_det_rng () =
  let a = Strategy.Det_rng.make ~seed:123 in
  let b = Strategy.Det_rng.make ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "stream" (Strategy.Det_rng.int a 1000)
      (Strategy.Det_rng.int b 1000)
  done;
  Alcotest.(check bool) "mix separates" true
    (Strategy.mix 1 2 <> Strategy.mix 2 1)

let () =
  Alcotest.run "wdm_strategy"
    [
      ( "golden",
        [
          Alcotest.test_case "multistage built-ins" `Quick
            test_multistage_golden;
          Alcotest.test_case "multistage built-ins pass plan validation"
            `Quick test_builtins_validate;
          Alcotest.test_case "mesh classics" `Quick test_mesh_golden;
        ] );
      ( "registry",
        [
          Alcotest.test_case "resolution and refusal" `Quick test_registry;
          Alcotest.test_case "named strategy codec roundtrip" `Quick
            test_named_roundtrip;
        ] );
      ( "lab",
        [
          Alcotest.test_case "annealed replays deterministically" `Quick
            test_annealed_deterministic;
          Alcotest.test_case "crosstalk budget only tightens" `Quick
            test_crosstalk_decorator;
          Alcotest.test_case "det rng" `Quick test_det_rng;
          Alcotest.test_case "compare quick" `Quick test_compare_quick;
        ] );
    ]
