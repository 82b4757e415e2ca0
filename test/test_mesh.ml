(* Tests for the mesh RWA subsystem: the topology zoo, Yen's k-shortest
   paths against brute-force enumeration, the first-fit/graph-coloring
   equivalence on unicast traffic (which also holds the per-pair path
   cache to fresh Yen calls), golden traces of tree, sparse-splitting
   and k_paths routing, the sparse-splitting invariant on multicast
   structures with the light-tree grower held to [Mesh_oracle],
   snapshot codec round-trips, campaign reproducibility, and the mesh
   served behind the socket server with WAL recovery. *)

open Wdm_mesh
module Core = Wdm_core
module Backend = Wdm_persist.Backend
module Store = Wdm_persist.Store
module Resp = Wdm_persist.Resp
module Op = Wdm_persist.Op
module Srv = Wdm_server

let conn src dests =
  Core.Connection.make_exn
    ~source:(Core.Endpoint.make ~port:src ~wl:1)
    ~destinations:(List.map (fun p -> Core.Endpoint.make ~port:p ~wl:1) dests)

let mk_mesh ?(topo = "nsf14") ?(k = 4) ?(strategy = "first-fit")
    ?(mode = Light_tree.Hierarchy) ?(splitters = Mesh_network.Split_all)
    ?(k_paths = 3) () =
  let config = { Mesh_network.Config.k; strategy; mode; splitters; k_paths } in
  match Mesh_network.create ~config topo with
  | Ok m -> m
  | Error e -> Alcotest.fail e

(* --- topology zoo -------------------------------------------------------- *)

let test_zoo () =
  let g = Zoo.nsf14 () in
  Alcotest.(check int) "nsf nodes" 14 (Graph.n g);
  Alcotest.(check int) "nsf links" 21 (Graph.m g);
  Alcotest.(check int) "clara nodes" 13 (Graph.n (Zoo.clara ()));
  Alcotest.(check int) "janet nodes" 7 (Graph.n (Zoo.janet ()));
  (match Zoo.by_name "ring8" with
  | Ok g ->
    Alcotest.(check int) "ring nodes" 8 (Graph.n g);
    Alcotest.(check int) "ring links" 8 (Graph.m g)
  | Error e -> Alcotest.fail e);
  (match Zoo.by_name "torus3x4" with
  | Ok g ->
    Alcotest.(check int) "torus nodes" 12 (Graph.n g);
    Alcotest.(check int) "torus links" 24 (Graph.m g)
  | Error e -> Alcotest.fail e);
  match Zoo.by_name "atlantis" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown topology accepted"

(* --- Yen vs brute force --------------------------------------------------- *)

(* Every simple path src->dst by exhaustive DFS, sorted by the same
   (cost, lexicographic node sequence) order the Yen implementation
   promises. *)
let all_simple_paths g ~src ~dst =
  let acc = ref [] in
  let rec go node visited rpath cost =
    if node = dst then acc := (cost, List.rev rpath) :: !acc
    else
      List.iter
        (fun (nb, eid) ->
          if not (List.mem nb visited) then
            go nb (nb :: visited) (nb :: rpath)
              (cost +. (Graph.edge g eid).Graph.w))
        (Graph.adj g node)
  in
  go src [ src ] [ src ] 0.;
  List.sort compare !acc

let path_testable = Alcotest.(list (pair (float 1e-9) (list int)))

let test_yen_vs_brute_force () =
  let g = Zoo.janet () in
  let n = Graph.n g in
  for src = 1 to n do
    for dst = 1 to n do
      if src <> dst then begin
        let brute = all_simple_paths g ~src ~dst in
        let k = min 12 (List.length brute) in
        let expected = List.filteri (fun i _ -> i < k) brute in
        let got = Shortest.k_shortest g ~src ~dst ~k in
        Alcotest.check path_testable
          (Printf.sprintf "paths %d->%d" src dst)
          expected got
      end
    done
  done

let test_yen_respects_edge_filter () =
  let g = Zoo.janet () in
  (* ban the direct 1-2 edge if it exists; no returned path may use a
     banned edge *)
  let banned = Graph.edge_between g 1 2 in
  let use_edge id = Some id <> banned in
  let paths = Shortest.k_shortest ~use_edge g ~src:1 ~dst:2 ~k:5 in
  Alcotest.(check bool) "still connected" true (paths <> []);
  List.iter
    (fun (_, nodes) ->
      let rec arcs = function
        | a :: (b :: _ as rest) ->
          (match Graph.edge_between g a b with
          | Some id ->
            Alcotest.(check bool) "banned edge unused" true (use_edge id)
          | None -> Alcotest.fail "non-adjacent hop");
          arcs rest
        | _ -> ()
      in
      arcs nodes)
    paths

(* --- first-fit vs graph-coloring on unicast traffic ----------------------- *)

(* Greedy coloring of the active-route conflict graph, computed from the
   route records alone: over the request's k shortest paths in order
   (Yen called afresh, so the network's per-pair path cache is held to
   it), the first path on which some wavelength is carried by no active
   route sharing an edge with it, with the smallest such wavelength.
   For path requests the conflict set is exactly the union of occupancy
   on the path's edges, so both [first-fit] and its alias [coloring]
   must pick what this oracle picks. *)
let coloring_oracle net active ~src ~dst =
  let g = Mesh_network.graph net in
  let { Mesh_network.Config.k; k_paths; _ } = Mesh_network.config net in
  let rec edges_of = function
    | a :: (b :: _ as rest) -> Option.get (Graph.edge_between g a b) :: edges_of rest
    | _ -> []
  in
  if src = dst then Some ([], 1)
  else
    List.find_map
      (fun (_, nodes) ->
        let edges = edges_of nodes in
        let conflict =
          List.fold_left
            (fun acc (r : Mesh_network.route) ->
              if List.exists (fun (_, _, e) -> List.mem e edges) r.arcs then
                acc lor (1 lsl (r.wl - 1))
              else acc)
            0 active
        in
        let rec first wl =
          if wl > k then None
          else if conflict land (1 lsl (wl - 1)) = 0 then Some (edges, wl)
          else first (wl + 1)
        in
        first 1)
      (Shortest.k_shortest g ~src ~dst ~k:k_paths)

(* Drive [first-fit] and [coloring] networks with one connect/disconnect
   trace and hold every unicast admission of both to the oracle.  The
   connects walk every ordered node pair twice, each pass in a fresh
   shuffled order, so every pair is routed once with an empty cache slot
   and once from the cache. *)
let coloring_equivalence ~topo ~k_paths =
  let nets =
    [ mk_mesh ~topo ~k_paths ~strategy:"first-fit" ();
      mk_mesh ~topo ~k_paths ~strategy:"coloring" () ]
  in
  let n = Graph.n (Mesh_network.graph (List.hd nets)) in
  let rng = Random.State.make [| 42; k_paths |] in
  let shuffled () =
    List.init (n * n) (fun i -> (Random.State.bits rng, (i / n) + 1, (i mod n) + 1))
    |> List.sort compare
    |> List.map (fun (_, src, dst) -> (src, dst))
  in
  let pending = ref (shuffled () @ shuffled ()) in
  let active = ref [] in
  let step = ref 0 in
  while !pending <> [] do
    incr step;
    let label = Printf.sprintf "%s k_paths=%d step %d" topo k_paths !step in
    if Random.State.int rng 100 < 35 && !active <> [] then begin
      let r = List.nth !active (Random.State.int rng (List.length !active)) in
      active := List.filter (fun (x : Mesh_network.route) -> x != r) !active;
      List.iter
        (fun net ->
          match Mesh_network.disconnect net r.Mesh_network.id with
          | Ok released ->
            Alcotest.(check int) (label ^ ": released same wl")
              r.Mesh_network.wl released.Mesh_network.wl
          | Error _ -> Alcotest.fail (label ^ ": disconnect diverged"))
        nets
    end
    else begin
      let src, dst = List.hd !pending in
      pending := List.tl !pending;
      let expect = coloring_oracle (List.hd nets) !active ~src ~dst in
      let got =
        List.map
          (fun net ->
            match Mesh_network.connect net (conn src [ dst ]) with
            | Ok r -> Some r
            | Error _ -> None)
          nets
      in
      List.iter
        (fun r ->
          let summary (r : Mesh_network.route) =
            (List.map (fun (_, _, e) -> e) r.arcs, r.wl)
          in
          Alcotest.(check (option (pair (list int) int)))
            (label ^ ": greedy coloring")
            expect (Option.map summary r))
        got;
      match got with
      | Some r :: _ -> active := r :: !active
      | _ -> ()
    end
  done;
  List.iter
    (fun net ->
      Alcotest.(check int) "active count" (List.length !active)
        (Mesh_network.active_count net))
    nets

let test_first_fit_coloring_equivalent () =
  List.iter
    (fun topo ->
      List.iter
        (fun k_paths -> coloring_equivalence ~topo ~k_paths)
        [ 1; 3; 8 ])
    [ "nsf14"; "clara"; "janet"; "torus4x4" ]

(* --- golden traces of the non-default routing paths ----------------------- *)

(* One seeded Erlang run recording every connect outcome: the route on
   admit (wavelength, cost, arcs), the refusal with its uncovered list
   on block.  The CRC of that trace, the persisted digest and the
   admission counts pin the tree grower, sparse splitting and Yen's
   candidate count on two topologies; the values were recorded before
   the path cache and the array-based grower existed. *)
let golden_trace ~topo ~offered ~k ~mode ~splitters ~k_paths =
  let config =
    { Mesh_network.Config.k; strategy = "first-fit"; mode; splitters; k_paths }
  in
  let net =
    match Mesh_network.create ~config topo with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let trace = Buffer.create 4096 in
  let sut =
    {
      Wdm_traffic.Churn.connect =
        (fun c ->
          match Mesh_network.connect net c with
          | Ok route ->
            Buffer.add_string trace
              (Format.asprintf "+%a;" Mesh_network.pp_route route);
            Ok route.Mesh_network.id
          | Error e ->
            Buffer.add_string trace
              ("!" ^ Mesh_network.Error.to_string e ^ ";");
            Error e);
      disconnect = (fun id -> ignore (Mesh_network.disconnect net id));
    }
  in
  let point =
    Wdm_traffic.Erlang.run
      (Random.State.make [| 2718 |])
      ~nodes:(Graph.n (Mesh_network.graph net))
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 5; s = 1.2 })
      ~offered ~arrivals:600 sut
  in
  (Buffer.contents trace, Backend.digest (Backend.Mesh net), point)

(* (label, topology, offered Erlangs, k, mode, splitters, k_paths,
    trace CRC-32, digest, accepted, blocked) *)
let mesh_golden =
  let open Light_tree in
  let open Mesh_network in
  List.concat_map
    (fun (topo, offered, pins) ->
      List.map2
        (fun (label, k, mode, splitters, k_paths) (crc, digest, acc, blk) ->
          ( label, topo, offered, k, mode, splitters, k_paths,
            crc, digest, acc, blk ))
        [
          ("tree/none", 8, Tree, Split_none, 3);
          ("hierarchy/deg>=3", 8, Hierarchy, Split_degree_ge 3, 3);
          ("k_paths=1", 8, Hierarchy, Split_all, 1);
          ("k_paths=8", 8, Hierarchy, Split_all, 8);
        ]
        pins)
    [
      ( "nsf14",
        30.,
        [
          (810754413, 2221273360, 466, 134);
          (317345805, 452752728, 477, 123);
          (1872101952, 719276195, 480, 120);
          (706763285, 3379200818, 512, 88);
        ] );
      ( "torus4x4",
        60.,
        [
          (4177010094, 1911885286, 456, 144);
          (4239200289, 4228347045, 498, 102);
          (3216961828, 703195557, 456, 144);
          (2605302156, 897929853, 463, 137);
        ] );
    ]

let test_mesh_golden () =
  List.iter
    (fun (label, topo, offered, k, mode, splitters, k_paths, crc, digest, acc, blk) ->
      let tr, dg, pt = golden_trace ~topo ~offered ~k ~mode ~splitters ~k_paths in
      let label = topo ^ " " ^ label in
      Alcotest.(check int) (label ^ " trace") crc (Wdm_persist.Crc32.string tr);
      Alcotest.(check int) (label ^ " digest") digest dg;
      Alcotest.(check int) (label ^ " accepted") acc pt.Wdm_traffic.Erlang.accepted;
      Alcotest.(check int) (label ^ " blocked") blk pt.Wdm_traffic.Erlang.blocked)
    mesh_golden

(* --- sparse-splitting invariant ------------------------------------------- *)

(* A multicast-incapable node is drop-and-continue: each signal coming
   in can leave on at most one link, so its out-degree never exceeds
   its in-degree (the source's transmitter grants it one extra).  And
   in both modes an edge carries the structure at most once. *)
let check_structure ~mc ~src ~mode (route : Mesh_network.route) =
  let seen = Hashtbl.create 16 in
  let indeg = Hashtbl.create 16 and outdeg = Hashtbl.create 16 in
  let bump tbl v = Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)) in
  List.iter
    (fun (a, b, eid) ->
      if Hashtbl.mem seen eid then failwith "edge used twice";
      Hashtbl.add seen eid ();
      bump outdeg a;
      bump indeg b)
    route.Mesh_network.arcs;
  let deg tbl v = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
  Hashtbl.iter
    (fun v _ ->
      if not (List.mem v mc) then begin
        let allowance = deg indeg v + if v = src then 1 else 0 in
        if deg outdeg v > allowance then
          failwith (Printf.sprintf "MI node %d branches" v)
      end;
      if mode = Light_tree.Tree && deg indeg v > 1 then
        failwith (Printf.sprintf "tree revisits node %d" v))
    outdeg;
  Hashtbl.iter
    (fun v _ ->
      if mode = Light_tree.Tree && deg indeg v > 1 then
        failwith (Printf.sprintf "tree revisits node %d" v))
    indeg

(* On each draw the library's [Light_tree.build] is also held to the
   pre-array grower kept in [Mesh_oracle], in both modes, over a random
   edge mask: same arcs in the same order and the same cost, or the
   same uncovered list. *)
let prop_no_branching_at_mi_nodes =
  let topos = [| "nsf14"; "clara"; "janet"; "torus4x4"; "ring8" |] in
  QCheck.Test.make ~count:150 ~name:"no branching at splitting-incapable nodes"
    QCheck.(triple small_nat (int_range 1 3) bool)
    (fun (seed, fan, tree) ->
      let rng = Random.State.make [| seed; 77 |] in
      let mode = if tree then Light_tree.Tree else Light_tree.Hierarchy in
      let topo = topos.(seed mod Array.length topos) in
      let n =
        match Zoo.by_name topo with
        | Ok g -> Graph.n g
        | Error e -> failwith e
      in
      (* a random minority of nodes can split *)
      let mc_list =
        List.filter (fun _ -> Random.State.int rng 4 = 0) (List.init n succ)
      in
      let splitters = Mesh_network.Split_nodes mc_list in
      let m = mk_mesh ~topo ~k:3 ~mode ~splitters () in
      let g = Mesh_network.graph m in
      let mc = Mesh_network.mc_nodes m in
      let mc_arr = Array.init (n + 1) (fun v -> List.mem v mc) in
      let ok = ref true in
      for _ = 1 to 40 do
        let src = 1 + Random.State.int rng n in
        let dests =
          List.sort_uniq compare
            (List.init (1 + fan) (fun _ -> 1 + Random.State.int rng n))
        in
        let mask = Array.init (Graph.m g) (fun _ -> Random.State.int rng 4 > 0) in
        List.iter
          (fun mode ->
            let grow build =
              build ~mode ~mc:mc_arr ~use_edge:(fun e -> mask.(e)) g ~src ~dests
            in
            if grow Light_tree.build <> grow Mesh_oracle.build then
              QCheck.Test.fail_reportf "%s: grower differs from oracle %d->[%s]"
                topo src
                (String.concat "," (List.map string_of_int dests)))
          [ Light_tree.Tree; Light_tree.Hierarchy ];
        match Mesh_network.connect m (conn src dests) with
        | Ok route -> (
          match check_structure ~mc ~src ~mode route with
          | () -> ()
          | exception Failure msg ->
            QCheck.Test.fail_report msg)
        | Error (Mesh_network.Blocked _) -> ()
        | Error _ -> ok := false
      done;
      !ok)

(* --- snapshot codec round trip -------------------------------------------- *)

let drive m rng steps =
  let active = ref [] in
  for _ = 1 to steps do
    if Random.State.int rng 100 < 30 && !active <> [] then begin
      let i = Random.State.int rng (List.length !active) in
      let id = List.nth !active i in
      active := List.filter (fun x -> x <> id) !active;
      ignore (Mesh_network.disconnect m id)
    end
    else begin
      let src = 1 + Random.State.int rng 14 in
      let fan = 1 + Random.State.int rng 3 in
      let dests = List.init fan (fun _ -> 1 + Random.State.int rng 14) in
      match Mesh_network.connect m (conn src (List.sort_uniq compare dests)) with
      | Ok r -> active := r.Mesh_network.id :: !active
      | Error _ -> ()
    end
  done

let test_mesh_codec_roundtrip () =
  let m =
    mk_mesh ~k:6 ~strategy:"most-used"
      ~splitters:(Mesh_network.Split_degree_ge 3) ()
  in
  drive m (Random.State.make [| 7 |]) 300;
  let encoded = Backend.encode_state (Backend.Mesh m) in
  Alcotest.(check bool) "tagged as mesh" true (Backend.is_mesh_state encoded);
  match Backend.restore encoded with
  | Error e -> Alcotest.fail e
  | Ok (Backend.Net _) -> Alcotest.fail "restored as multistage"
  | Ok (Backend.Mesh m' as b') ->
    Alcotest.(check int) "same digest"
      (Backend.digest (Backend.Mesh m))
      (Backend.digest b');
    Alcotest.(check int) "same active routes" (Mesh_network.active_count m)
      (Mesh_network.active_count m');
    (* behaviorally identical afterwards: same connect outcome *)
    let c = conn 1 [ 5; 9; 12 ] in
    (match (Mesh_network.connect m c, Mesh_network.connect m' c) with
    | Ok a, Ok b ->
      Alcotest.(check int) "same wl" a.Mesh_network.wl b.Mesh_network.wl;
      Alcotest.(check bool) "same arcs" true
        (a.Mesh_network.arcs = b.Mesh_network.arcs)
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "restored mesh diverged")

let test_multistage_state_not_mesh () =
  (* dispatch safety: a multistage snapshot must not be mistaken for a
     mesh one and vice versa *)
  let topo = Wdm_multistage.Topology.make_exn ~n:4 ~m:7 ~r:4 ~k:2 in
  let net =
    Wdm_multistage.Network.create
      ~construction:Wdm_multistage.Network.Msw_dominant
      ~output_model:Core.Model.MSW topo
  in
  let s = Backend.encode_state (Backend.Net net) in
  Alcotest.(check bool) "multistage not mesh-tagged" false
    (Backend.is_mesh_state s);
  match Backend.restore s with
  | Ok (Backend.Net _) -> ()
  | Ok (Backend.Mesh _) -> Alcotest.fail "multistage restored as mesh"
  | Error e -> Alcotest.fail e

(* --- campaign reproducibility --------------------------------------------- *)

let test_campaign_reproducible () =
  let spec =
    {
      Campaign.quick with
      Campaign.topos = [ "janet"; "ring6" ];
      loads = [ 6.; 14. ];
      arrivals = 250;
    }
  in
  match (Campaign.run spec, Campaign.run spec) with
  | Ok a, Ok b ->
    Alcotest.(check int) "cell count" (2 * 2 * 2) (List.length a);
    Alcotest.(check bool) "identical tables" true (a = b);
    List.iter
      (fun (c : Campaign.cell) ->
        let p = c.Campaign.point in
        Alcotest.(check int) "arrivals conserved" p.Wdm_traffic.Erlang.arrivals
          (p.Wdm_traffic.Erlang.accepted + p.Wdm_traffic.Erlang.blocked))
      a
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- mesh behind the socket server, with WAL recovery --------------------- *)

let test_mesh_served_recovers () =
  let dir = Filename.temp_file "wdm_mesh_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wal = Filename.concat dir "mesh.wal" in
  let sock = Filename.concat dir "srv.sock" in
  let backend = Backend.Mesh (mk_mesh ~topo:"janet" ~k:4 ()) in
  let store = Store.start_backend ~wal backend in
  let srv = Srv.Server.start_backend ~store ~backend (Srv.Server.Unix_socket sock) in
  let final_digest =
    Fun.protect
      ~finally:(fun () -> Srv.Server.stop srv)
      (fun () ->
        match Srv.Client.connect (Srv.Server.address srv) with
        | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Srv.Client.close c)
            (fun () ->
              let admit op =
                match Srv.Client.request c (Resp.Admit op) with
                | Ok r -> r
                | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
              in
              (match admit (Op.Connect (conn 1 [ 3; 5 ])) with
              | Resp.Admitted _ -> ()
              | _ -> Alcotest.fail "connect refused");
              (match admit (Op.Connect (conn 2 [ 6 ])) with
              | Resp.Admitted _ -> ()
              | _ -> Alcotest.fail "connect refused");
              (match admit (Op.Disconnect 1) with
              | Resp.Released _ -> ()
              | _ -> Alcotest.fail "disconnect failed");
              (* fault ops are refused on a mesh, not crashed on *)
              (match admit (Op.Inject_fault (Wdm_faults.Fault.Middle 1)) with
              | Resp.Server_error _ -> ()
              | _ -> Alcotest.fail "fault op not refused");
              match Srv.Client.digest c with
              | Ok d -> d
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))
  in
  Store.checkpoint_backend store (Srv.Server.backend srv);
  Store.close store;
  (match Store.recover_backend ~wal () with
  | Error e ->
    Alcotest.failf "recovery failed: %a" Store.pp_recovery_error e
  | Ok r ->
    Alcotest.(check string) "mesh came back" "mesh" (Backend.kind r.Store.backend);
    Alcotest.(check int) "digest reproduced" final_digest
      (Backend.digest r.Store.backend);
    match r.Store.backend with
    | Backend.Mesh m ->
      Alcotest.(check int) "one route active" 1 (Mesh_network.active_count m)
    | Backend.Net _ -> Alcotest.fail "wrong backend kind");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let () =
  Alcotest.run "wdm_mesh"
    [
      ( "topology",
        [
          Alcotest.test_case "zoo shapes" `Quick test_zoo;
        ] );
      ( "routing",
        [
          Alcotest.test_case "yen vs brute force" `Quick test_yen_vs_brute_force;
          Alcotest.test_case "yen edge filter" `Quick
            test_yen_respects_edge_filter;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "first-fit = coloring on paths" `Quick
            test_first_fit_coloring_equivalent;
          Alcotest.test_case "golden traces" `Quick test_mesh_golden;
        ] );
      ( "splitting",
        [ QCheck_alcotest.to_alcotest prop_no_branching_at_mi_nodes ] );
      ( "persistence",
        [
          Alcotest.test_case "mesh codec roundtrip" `Quick
            test_mesh_codec_roundtrip;
          Alcotest.test_case "dispatch tags disjoint" `Quick
            test_multistage_state_not_mesh;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "seed-reproducible table" `Quick
            test_campaign_reproducible;
        ] );
      ( "server",
        [
          Alcotest.test_case "served mesh recovers" `Quick
            test_mesh_served_recovers;
        ] );
    ]
