(* The packed link planes against the independent bool-array model in
   [Oracle]: seeded churn with faults in force, on one-, two- and
   three-word planes, must route exactly as the oracle predicts from
   each pre-op state, and every state the network reports must match a
   rebuild from its routes.  Also here: the supporting data structures
   (Bitops, Event_heap, Free_pool) against naive references, and the
   fault-counter reconciliation and run_timed gauge-reset
   regressions. *)

open Wdm_core
open Wdm_multistage
module Tel = Wdm_telemetry
module Fault = Wdm_faults.Fault
module Schedule = Wdm_faults.Schedule
open Wdm_traffic

let rng seed = Random.State.make [| seed |]

(* --- Bitops vs naive references ----------------------------------------- *)

let naive_popcount x =
  let c = ref 0 in
  for i = 0 to 61 do
    if x land (1 lsl i) <> 0 then incr c
  done;
  !c

let naive_ctz x =
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  if x = 0 then 62 else go 0

let test_bitops () =
  let r = rng 42 in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "popcount %d" x)
        (naive_popcount x) (Wdm_core.Bitops.popcount x);
      Alcotest.(check int)
        (Printf.sprintf "ctz %d" x)
        (naive_ctz x) (Wdm_core.Bitops.ctz x))
    (0 :: 1 :: 2 :: 3 :: max_int :: (1 lsl 61)
    :: List.init 200 (fun _ -> Random.State.int r ((1 lsl 30) - 1)));
  (* lowest_clear reproduces the linear first-free scan *)
  for width = 1 to 8 do
    for x = 0 to (1 lsl width) - 1 do
      let naive =
        let rec go i =
          if i >= width then None
          else if x land (1 lsl i) = 0 then Some i
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check (option int))
        (Printf.sprintf "lowest_clear w=%d x=%d" width x)
        naive
        (Wdm_core.Bitops.lowest_clear ~width x)
    done
  done;
  (* iter_set visits set bits in ascending order *)
  let visited = ref [] in
  Wdm_core.Bitops.iter_set ~width:10 (fun i -> visited := i :: !visited) 0b1010010110;
  Alcotest.(check (list int)) "iter_set" [ 1; 2; 4; 7; 9 ] (List.rev !visited)

(* --- Event_heap vs sorted-list semantics -------------------------------- *)

let test_event_heap () =
  let module H = Wdm_traffic.Event_heap in
  let h = H.create () in
  Alcotest.(check bool) "empty peek" true (H.peek h = None);
  let r = rng 7 in
  (* reference: stable sorted list with strictly-less-inserts-before *)
  let reference = ref [] in
  let insert time v =
    let rec go = function
      | (t', v') :: rest when t' <= time -> (t', v') :: go rest
      | rest -> (time, v) :: rest
    in
    reference := go !reference
  in
  for i = 0 to 499 do
    (* coarse times force plenty of ties *)
    let time = float_of_int (Random.State.int r 20) in
    H.push h ~time i;
    insert time i
  done;
  Alcotest.(check int) "size" 500 (H.size h);
  List.iter
    (fun (t_ref, v_ref) ->
      match H.pop h with
      | None -> Alcotest.fail "heap drained early"
      | Some (t, v) ->
        Alcotest.(check (float 0.)) "time order" t_ref t;
        Alcotest.(check int) "FIFO on ties" v_ref v)
    !reference;
  Alcotest.(check bool) "drained" true (H.pop h = None)

(* --- Free_pool vs List.filter ------------------------------------------- *)

let test_free_pool () =
  let sp = Network_spec.make_exn ~n:5 ~k:3 in
  let universe = Network_spec.inputs sp in
  let pool = Free_pool.create universe in
  let busy = Hashtbl.create 16 in
  let reference () =
    List.filter (fun e -> not (Hashtbl.mem busy e)) universe
  in
  let r = rng 13 in
  for _ = 1 to 2000 do
    let e = List.nth universe (Random.State.int r (List.length universe)) in
    if Random.State.bool r then begin
      Free_pool.remove pool e;
      Hashtbl.replace busy e ()
    end
    else begin
      Free_pool.add pool e;
      Hashtbl.remove busy e
    end;
    Alcotest.(check int) "count" (List.length (reference ()))
      (Free_pool.free_count pool)
  done;
  Alcotest.(check bool) "contents and order" true
    (reference () = Free_pool.to_list pool);
  Alcotest.check_raises "outside universe"
    (Invalid_argument "Free_pool: endpoint outside the universe")
    (fun () -> Free_pool.remove pool (Endpoint.make ~port:99 ~wl:1))

(* --- lockstep against the oracle ------------------------------------- *)

(* A faulty_sut that, before every operation, rebuilds the test oracle
   from the network's state, predicts the outcome, applies the operation
   to the network and fails on any divergence: a different route or
   refusal, different fault victims, or a network state the prediction
   does not reproduce.  After every operation the network's reported
   link state and gauges are audited against a fresh rebuild. *)
let lockstep_sut ~sink t =
  let after o =
    Oracle.agrees o t;
    Oracle.audit ~sink t
  in
  (* [route_of] picks the admitted route out of either connect flavour;
     outcomes compare structurally, rearrangement move counts included *)
  let predict_connect via predict route_of c =
    let o = Oracle.of_network t in
    let predicted = predict o c in
    let actual = via t c in
    let show = function
      | Ok v -> Format.asprintf "%a" Network.pp_route (route_of v)
      | Error e -> Network.Error.to_string e
    in
    if predicted <> actual then
      Alcotest.failf "%a:@.library %s@.oracle  %s" Connection.pp c
        (show actual) (show predicted);
    after o;
    Result.map (fun v -> (route_of v).Network.id) actual
  in
  {
    Churn.base =
      {
        Churn.connect = predict_connect Network.connect Oracle.connect Fun.id;
        disconnect =
          (fun id ->
            ignore (Network.disconnect t id);
            Oracle.audit ~sink t);
      };
    inject =
      (fun f ->
        let o = Oracle.of_network t in
        let victims = Network.inject_fault t f in
        if victims <> Oracle.fault_victims o f then
          Alcotest.failf "victims of %s diverged" (Fault.to_string f);
        Oracle.audit ~sink t;
        victims);
    clear =
      (fun f ->
        Network.clear_fault t f;
        Oracle.audit ~sink t);
    reconnect =
      (fun c ->
        predict_connect Network.connect_rearrangeable
          Oracle.connect_rearrangeable fst c);
  }

let run_lockstep ~seed ~construction ~output_model ~strategy ~n ~m ~r ~k =
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let sink = Tel.Sink.create () in
  let t =
    Network.create
      ~config:{ Network.Config.default with strategy; telemetry = Some sink }
      ~construction ~output_model topo
  in
  (* the laser faults in the universe grow with k; so does the mean time
     between failures, keeping the fault rate near the k = 2 one *)
  let schedule =
    Schedule.generate ~rng:(rng (seed + 1000))
      ~universe:(Fault.universe ~m ~r ~k)
      ~mtbf:(60. *. float_of_int k) ~mttr:60. ~steps:400
    |> List.map (fun { Schedule.step; action } ->
           match action with
           | Schedule.Inject f -> (step, `Inject f)
           | Schedule.Clear f -> (step, `Clear f))
  in
  let s =
    Churn.run_with_faults (rng seed)
      ~spec:(Topology.spec topo) ~model:output_model
      ~fanout:(Fanout.Uniform (1, r))
      ~steps:400 ~teardown_bias:0.4 ~schedule (lockstep_sut ~sink t)
  in
  (* the workload must actually exercise the interesting paths *)
  Alcotest.(check bool) "some accepts" true (s.Churn.churn.Churn.accepted > 0);
  s

(* k = 2 fits one word per link, k = 63 is the first width that needs a
   second, and k = 130 spans three words with a partial last one. *)
let lockstep_over_k ~construction ~output_model ~strategy ~m =
  let exercised_faults = ref false in
  List.iter
    (fun (k, seeds) ->
      List.iter
        (fun seed ->
          let s =
            run_lockstep ~seed ~construction ~output_model ~strategy ~n:3 ~m
              ~r:3 ~k
          in
          if s.Churn.injected > 0 then exercised_faults := true)
        seeds)
    [ (2, [ 1; 2; 3; 4; 5; 6 ]); (63, [ 1; 2 ]); (130, [ 1; 2 ]) ];
  Alcotest.(check bool) "faults were in force" true !exercised_faults

let test_lockstep_msw () =
  lockstep_over_k ~construction:Network.Msw_dominant ~output_model:Model.MSW
    ~strategy:"min-intersection" ~m:6

let test_lockstep_maw () =
  lockstep_over_k ~construction:Network.Maw_dominant ~output_model:Model.MAW
    ~strategy:"first-fit" ~m:5

(* Past one word per link: a k = 63 fabric builds, routes on
   wavelength 63, whose bit sits alone in each link's second word, next
   to wavelength 1 in the first, and agrees with the oracle throughout. *)
let test_wide_k_fallback () =
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:63 in
  let sink = Tel.Sink.create () in
  let t =
    Network.create
      ~config:{ Network.Config.default with telemetry = Some sink }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let sut = lockstep_sut ~sink t in
  let admit c =
    match sut.Churn.base.Churn.connect c with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "refused: %a" Network.pp_error e
  in
  let ep port wl = Endpoint.make ~port ~wl in
  let conn src dests = Connection.make_exn ~source:src ~destinations:dests in
  admit (conn (ep 1 63) [ ep 3 63; ep 4 63 ]);
  admit (conn (ep 2 1) [ ep 1 1; ep 3 1 ]);
  Alcotest.(check int) "both words of one link in use" 2
    (Network.stage1_in_use t ~input_switch:1 ~middle:1);
  Alcotest.(check int) "M_1 counts both planes" 2
    (Multiset.multiplicity (Network.destination_multiset t 1) 2)

(* --- fault-counter reconciliation (duplicate injections) ----------------- *)

let faulty_sut t =
  {
    Churn.base =
      {
        Churn.connect =
          (fun c ->
            match Network.connect t c with
            | Ok route -> Ok route.Network.id
            | Error e -> Error e);
        disconnect = (fun id -> ignore (Network.disconnect t id));
      };
    inject = Network.inject_fault t;
    clear = Network.clear_fault t;
    reconnect =
      (fun c ->
        match Network.connect_rearrangeable t c with
        | Ok (route, _) -> Ok route.Network.id
        | Error e -> Error e);
  }

let test_duplicate_injection_counters () =
  let sink = Tel.Sink.create () in
  let topo = Topology.make_exn ~n:3 ~m:8 ~r:3 ~k:2 in
  let t =
    Network.create
      ~config:{ Network.Config.default with telemetry = Some sink }
      ~construction:Network.Msw_dominant
      ~output_model:Model.MSW topo
  in
  (* m1 injected twice, cleared twice; m2 injected twice, never cleared;
     the re-injections and re-clear are no-ops for the network, so the
     driver must not count them either. *)
  let schedule =
    [
      (5, `Inject (Fault.Middle 1));
      (10, `Inject (Fault.Middle 1));
      (15, `Clear (Fault.Middle 1));
      (20, `Clear (Fault.Middle 1));
      (25, `Inject (Fault.Middle 2));
      (30, `Inject (Fault.Middle 2));
    ]
  in
  let s =
    Churn.run_with_faults ~telemetry:sink (rng 3) ~spec:(Topology.spec topo)
      ~model:Model.MSW
      ~fanout:(Fanout.Uniform (1, 3))
      ~steps:60 ~teardown_bias:0.3 ~schedule (faulty_sut t)
  in
  Alcotest.(check int) "stats.injected" 2 s.Churn.injected;
  Alcotest.(check int) "stats.cleared" 1 s.Churn.cleared;
  let snap = Tel.Sink.snapshot sink in
  let c name = Option.get (Tel.Metrics.find_counter snap name) in
  Alcotest.(check int) "driver and network inject counters reconcile"
    (c "wdmnet_faults_injected_total")
    (c "churn_faults_injected_total");
  Alcotest.(check int) "driver and network clear counters reconcile"
    (c "wdmnet_faults_cleared_total")
    (c "churn_faults_cleared_total");
  Alcotest.(check int) "injects counted once" 2 (c "churn_faults_injected_total");
  Alcotest.(check int) "clears counted once" 1 (c "churn_faults_cleared_total");
  Alcotest.(check int) "m2 still in force" 1 (List.length (Network.faults t))

(* --- run_timed leaves the active gauge clean ----------------------------- *)

let test_run_timed_gauge_reset () =
  let sink = Tel.Sink.create () in
  let topo = Topology.make_exn ~n:4 ~m:10 ~r:4 ~k:2 in
  let t =
    Network.create
      ~config:{ Network.Config.default with telemetry = Some sink }
      ~construction:Network.Msw_dominant
      ~output_model:Model.MSW topo
  in
  let sut =
    {
      Churn.connect =
        (fun c ->
          match Network.connect t c with
          | Ok route -> Ok route.Network.id
          | Error e -> Error e);
      disconnect = (fun id -> ignore (Network.disconnect t id));
    }
  in
  let s =
    Churn.run_timed ~telemetry:sink (rng 5) ~spec:(Topology.spec topo)
      ~model:Model.MSW ~fanout:(Fanout.Fixed 1) ~arrival_rate:2.0
      ~mean_holding:5.0 ~horizon:50. sut
  in
  (* long holding vs the horizon: some connections must still be up *)
  Alcotest.(check bool) "connections abandoned in flight" true
    (s.Churn.completed < s.Churn.t_accepted);
  Alcotest.(check bool) "network still holds them" true
    (Network.active_routes t <> []);
  let snap = Tel.Sink.snapshot sink in
  Alcotest.(check (float 0.)) "gauge reset at run end" 0.
    (Option.get (Tel.Metrics.find_gauge snap "churn_active_connections"))

let () =
  Alcotest.run "wdm_routing_equiv"
    [
      ( "primitives",
        [
          Alcotest.test_case "bitops" `Quick test_bitops;
          Alcotest.test_case "event heap" `Quick test_event_heap;
          Alcotest.test_case "free pool" `Quick test_free_pool;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "msw-dominant, min-intersection" `Slow
            test_lockstep_msw;
          Alcotest.test_case "maw-dominant, first-fit" `Slow test_lockstep_maw;
          Alcotest.test_case "k > 62 falls back" `Quick test_wide_k_fallback;
        ] );
      ( "counters",
        [
          Alcotest.test_case "duplicate injections reconcile" `Quick
            test_duplicate_injection_counters;
          Alcotest.test_case "run_timed resets active gauge" `Quick
            test_run_timed_gauge_reset;
        ] );
    ]
