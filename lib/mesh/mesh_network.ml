module Sink = Wdm_telemetry.Sink
module Metrics = Wdm_telemetry.Metrics
module Connection = Wdm_core.Connection
module Endpoint = Wdm_core.Endpoint

type splitters =
  | Split_all
  | Split_none
  | Split_nodes of int list
  | Split_degree_ge of int

module Config = struct
  type t = {
    k : int;
    strategy : string;
    mode : Light_tree.mode;
    splitters : splitters;
    k_paths : int;
  }

  let default =
    {
      k = 8;
      strategy = "first-fit";
      mode = Light_tree.Hierarchy;
      splitters = Split_all;
      k_paths = 3;
    }
end

type route = {
  id : int;
  connection : Connection.t;
  wl : int;
  arcs : (int * int * int) list;
  cost : float;
}

type error =
  | Source_out_of_range of Endpoint.t
  | Destination_out_of_range of Endpoint.t
  | Blocked of { uncovered : int list }

type disconnect_error = Unknown_route of int | Already_released of int

type tel = {
  connects : Metrics.counter;
  blocked : Metrics.counter;
  releases : Metrics.counter;
  active_g : Metrics.gauge;
  slots_g : Metrics.gauge;
}

(* One Yen candidate, kept compact: its cost, node sequence and the edge
   ids along it (what the wavelength scan probes). *)
type path = { p_cost : float; p_nodes : int list; p_edges : int array }

type t = {
  graph : Graph.t;
  topo_name : string;
  cfg : Config.t;
  mc : bool array;
  assign : Assign.t;
  plugin : Assign.plugin;
      (* cfg.strategy, resolved once at build time; plug-ins are pure
         so sharing the resolution is safe *)
  paths : path list option array;
      (* [(src - 1) * n + (dst - 1)]: that pair's Yen candidates, filled
         on its first unicast.  Yen sees no occupancy, so its answer
         depends only on the graph and [cfg.k_paths], both fixed for
         the network's lifetime. *)
  active : (int, route) Hashtbl.t;
  mutable next_id : int;
  mutable attempts : int;
  tel : tel option;
}

type state = {
  s_topo : string;
  s_k : int;
  s_strategy : string;
  s_mode : Light_tree.mode;
  s_k_paths : int;
  s_mc : bool array;
  s_next_id : int;
  s_attempts : int;
  s_routes : route list;
}

let make_tel = function
  | None -> None
  | Some (sink : Sink.t) ->
    let m = sink.Sink.metrics in
    Some
      {
        connects =
          Metrics.counter m ~help:"Accepted mesh connects"
            "mesh_connects_total";
        blocked =
          Metrics.counter m ~help:"Refused mesh connects"
            "mesh_connects_blocked_total";
        releases =
          Metrics.counter m ~help:"Released mesh routes"
            "mesh_releases_total";
        active_g =
          Metrics.gauge m ~help:"Active mesh routes" "mesh_active_routes";
        slots_g =
          Metrics.gauge m ~help:"Occupied edge-wavelength slots"
            "mesh_occupied_slots";
      }

let resolve_splitters graph = function
  | Split_all -> Ok (Array.make (Graph.n graph + 1) true)
  | Split_none -> Ok (Array.make (Graph.n graph + 1) false)
  | Split_degree_ge d ->
    Ok
      (Array.init
         (Graph.n graph + 1)
         (fun v -> v >= 1 && Graph.degree graph v >= d))
  | Split_nodes nodes ->
    let mc = Array.make (Graph.n graph + 1) false in
    let bad = List.find_opt (fun v -> v < 1 || v > Graph.n graph) nodes in
    (match bad with
    | Some v -> Error (Printf.sprintf "splitter node %d out of range" v)
    | None ->
      List.iter (fun v -> mc.(v) <- true) nodes;
      Ok mc)

(* Yen enumerates up to [k_paths] loopless paths per pair and the path
   cache keeps them; a corrupt snapshot field must not ask for 2^31. *)
let max_k_paths = 64

let build ?telemetry ~(cfg : Config.t) ~topo_name ~mc graph =
  if cfg.k < 1 || cfg.k > 62 then Error "wavelength count must be in 1..62"
  else if cfg.k_paths < 1 || cfg.k_paths > max_k_paths then
    Error (Printf.sprintf "k_paths must be in 1..%d" max_k_paths)
  else
    match Assign.find_plugin cfg.strategy with
    | Error _ as e -> e
    | Ok plugin ->
      Ok
        {
          graph;
          topo_name;
          cfg;
          mc;
          assign = Assign.create ~k:cfg.k ~m:(Graph.m graph);
          plugin;
          paths = Array.make (Graph.n graph * Graph.n graph) None;
          active = Hashtbl.create 64;
          next_id = 1;
          attempts = 0;
          tel = make_tel telemetry;
        }

let create ?telemetry ?(config = Config.default) name =
  match Zoo.by_name name with
  | Error _ as e -> e
  | Ok graph -> (
    match resolve_splitters graph config.splitters with
    | Error _ as e -> e
    | Ok mc -> build ?telemetry ~cfg:config ~topo_name:name ~mc graph)

let graph t = t.graph
let topology_name t = t.topo_name
let config t = t.cfg

let mc_nodes t =
  List.filter (fun v -> t.mc.(v)) (List.init (Graph.n t.graph) (fun i -> i + 1))

let active_count t = Hashtbl.length t.active

let utilization t =
  let cap = Graph.m t.graph * t.cfg.k in
  if cap = 0 then 0. else float_of_int (Assign.occupied_slots t.assign) /. float_of_int cap

let gauges t =
  match t.tel with
  | None -> ()
  | Some tel ->
    Metrics.set tel.active_g (float_of_int (Hashtbl.length t.active));
    Metrics.set tel.slots_g (float_of_int (Assign.occupied_slots t.assign))

(* ----- connect --------------------------------------------------------- *)

let path_edges g nodes =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
      match Graph.edge_between g a b with
      | Some e -> go ((a, b, e) :: acc) rest
      | None -> assert false)
    | _ -> List.rev acc
  in
  go [] nodes

let arc_edge_ids arcs = List.map (fun (_, _, e) -> e) arcs

(* The [random] strategy's rotation hash: a deterministic mix of the
   monotone attempt counter and the request, so replayed WALs make the
   same "random" choices (the counter advances on refusals too, and
   refused connects are themselves WAL-recorded). *)
let request_hash t (c : Connection.t) =
  let mix h v = (h * 1000003) lxor v in
  let h = mix 0x9e3779b9 t.attempts in
  let h = mix h c.Connection.source.Endpoint.port in
  List.fold_left
    (fun h (d : Endpoint.t) -> mix h d.Endpoint.port)
    h c.Connection.destinations

(* Candidate wavelength scan order, and a plug-in's veto of an
   otherwise-feasible assignment (e.g. the crosstalk-budget decorator). *)
let scan_order t ~hash = Assign.plugin_order t.plugin t.assign ~hash

let admits t ~edges ~wl ~fanout =
  Assign.plugin_admits t.plugin t.assign ~edges ~wl ~fanout

let unicast_paths t ~src ~dst =
  let n = Graph.n t.graph in
  let slot = ((src - 1) * n) + (dst - 1) in
  match t.paths.(slot) with
  | Some paths -> paths
  | None ->
    let paths =
      List.map
        (fun (p_cost, p_nodes) ->
          let p_edges =
            Array.of_list (arc_edge_ids (path_edges t.graph p_nodes))
          in
          { p_cost; p_nodes; p_edges })
        (Shortest.k_shortest t.graph ~src ~dst ~k:t.cfg.k_paths)
    in
    t.paths.(slot) <- Some paths;
    paths

let try_unicast t ~hash ~src ~dst =
  let order = scan_order t ~hash in
  let pick p =
    List.find_opt
      (fun wl ->
        Array.for_all (fun e -> not (Assign.used t.assign ~edge:e ~wl)) p.p_edges
        && admits t ~edges:(Array.to_list p.p_edges) ~wl ~fanout:1)
      order
  in
  let rec first = function
    | [] -> Error [ dst ]
    | p :: rest -> (
      match pick p with
      | Some wl -> Ok (path_edges t.graph p.p_nodes, wl, p.p_cost)
      | None -> first rest)
  in
  first (unicast_paths t ~src ~dst)

(* How many destinations wavelength [wl] must leave uncovered, exactly:
   a node whose every incident edge carries [wl] can be neither left
   nor reached.  An isolated source covers nothing; otherwise each
   isolated destination stays uncovered. *)
let uncovered_lower_bound t ~wl ~src ~dests ~fanout =
  let isolated v =
    List.for_all
      (fun (_, e) -> Assign.used t.assign ~edge:e ~wl)
      (Graph.adj t.graph v)
  in
  if isolated src then fanout
  else List.fold_left (fun acc d -> if isolated d then acc + 1 else acc) 0 dests

let try_multicast t ~hash ~src ~dests =
  let order = scan_order t ~hash in
  let fanout = List.length dests in
  let rec first worst = function
    | [] -> Error (match worst with [] -> dests | w -> w)
    | wl :: rest when
        worst <> []
        && uncovered_lower_bound t ~wl ~src ~dests ~fanout
           >= List.length worst ->
      (* this wavelength's refusal could not replace [worst] *)
      first worst rest
    | wl :: rest -> (
      let use_edge e = not (Assign.used t.assign ~edge:e ~wl) in
      match
        Light_tree.build ~mode:t.cfg.mode ~mc:t.mc ~use_edge t.graph ~src
          ~dests
      with
      | Ok s
        when admits t ~edges:(arc_edge_ids s.Light_tree.arcs) ~wl ~fanout ->
        Ok (s.Light_tree.arcs, wl, s.Light_tree.cost)
      | Ok _ ->
        (* feasible but vetoed by the plug-in's admission predicate:
           try the next wavelength, reporting nothing uncovered *)
        first worst rest
      | Error uncovered ->
        let worst =
          match worst with
          | [] -> uncovered
          | w when List.length uncovered < List.length w -> uncovered
          | w -> w
        in
        first worst rest)
  in
  first [] order

let connect t (c : Connection.t) =
  t.attempts <- t.attempts + 1;
  let n = Graph.n t.graph in
  let in_range (e : Endpoint.t) = e.Endpoint.port >= 1 && e.Endpoint.port <= n in
  let refuse e =
    (match t.tel with Some tel -> Metrics.inc tel.blocked | None -> ());
    Error e
  in
  if not (in_range c.Connection.source) then
    refuse (Source_out_of_range c.Connection.source)
  else
    match
      List.find_opt (fun d -> not (in_range d)) c.Connection.destinations
    with
    | Some d -> refuse (Destination_out_of_range d)
    | None -> (
      let src = c.Connection.source.Endpoint.port in
      let dests =
        List.sort_uniq compare
          (List.filter
             (fun p -> p <> src)
             (List.map
                (fun (d : Endpoint.t) -> d.Endpoint.port)
                c.Connection.destinations))
      in
      let hash = request_hash t c in
      let outcome =
        match dests with
        | [] -> Ok ([], 1, 0.)
        | [ dst ] -> try_unicast t ~hash ~src ~dst
        | dests -> try_multicast t ~hash ~src ~dests
      in
      match outcome with
      | Error uncovered -> refuse (Blocked { uncovered })
      | Ok (arcs, wl, cost) ->
        let edges = arc_edge_ids arcs in
        if edges <> [] then Assign.occupy t.assign ~edges ~wl;
        let id = t.next_id in
        t.next_id <- id + 1;
        let route = { id; connection = c; wl; arcs; cost } in
        Hashtbl.replace t.active id route;
        (match t.tel with Some tel -> Metrics.inc tel.connects | None -> ());
        gauges t;
        Ok route)

let disconnect t id =
  match Hashtbl.find_opt t.active id with
  | Some r ->
    let edges = arc_edge_ids r.arcs in
    if edges <> [] then Assign.release t.assign ~edges ~wl:r.wl;
    Hashtbl.remove t.active id;
    (match t.tel with Some tel -> Metrics.inc tel.releases | None -> ());
    gauges t;
    Ok r
  | None ->
    if id >= 1 && id < t.next_id then Error (Already_released id)
    else Error (Unknown_route id)

(* ----- snapshot / restore ---------------------------------------------- *)

let snapshot t =
  let routes =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.active []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  {
    s_topo = t.topo_name;
    s_k = t.cfg.k;
    s_strategy = t.cfg.strategy;
    s_mode = t.cfg.mode;
    s_k_paths = t.cfg.k_paths;
    s_mc = Array.copy t.mc;
    s_next_id = t.next_id;
    s_attempts = t.attempts;
    s_routes = routes;
  }

let restore ?telemetry (s : state) =
  match Zoo.by_name s.s_topo with
  | Error _ as e -> e
  | Ok graph ->
    if Array.length s.s_mc <> Graph.n graph + 1 then
      Error "mesh restore: capability array does not match topology"
    else
      let cfg =
        {
          Config.k = s.s_k;
          strategy = s.s_strategy;
          mode = s.s_mode;
          splitters = Split_all (* resolved capability is authoritative *);
          k_paths = s.s_k_paths;
        }
      in
      (match build ?telemetry ~cfg ~topo_name:s.s_topo ~mc:s.s_mc graph with
      | Error _ as e -> e
      | Ok t -> (
        match
          List.iter
            (fun r ->
              let edges = arc_edge_ids r.arcs in
              if edges <> [] then Assign.occupy t.assign ~edges ~wl:r.wl;
              Hashtbl.replace t.active r.id r)
            s.s_routes
        with
        | () ->
          t.next_id <- s.s_next_id;
          t.attempts <- s.s_attempts;
          gauges t;
          Ok t
        | exception Invalid_argument e ->
          Error (Printf.sprintf "mesh restore: %s" e)))

(* ----- printers -------------------------------------------------------- *)

let pp_error ppf = function
  | Source_out_of_range e ->
    Format.fprintf ppf "source %a outside the node range" Endpoint.pp e
  | Destination_out_of_range e ->
    Format.fprintf ppf "destination %a outside the node range" Endpoint.pp e
  | Blocked { uncovered } ->
    Format.fprintf ppf "blocked (uncovered:%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      uncovered

let pp_disconnect_error ppf = function
  | Unknown_route id -> Format.fprintf ppf "no route %d was ever allocated" id
  | Already_released id -> Format.fprintf ppf "route %d already released" id

module Error = struct
  type nonrec t = error

  let cause = function
    | Source_out_of_range _ -> "source_out_of_range"
    | Destination_out_of_range _ -> "destination_out_of_range"
    | Blocked _ -> "blocked"

  let to_string e = Format.asprintf "%a" pp_error e

  let json_endpoint (e : Endpoint.t) =
    Wdm_telemetry.Json.Obj
      [
        ("port", Wdm_telemetry.Json.Int e.Endpoint.port);
        ("wl", Wdm_telemetry.Json.Int e.Endpoint.wl);
      ]

  let to_json e =
    let open Wdm_telemetry.Json in
    Obj
      (("cause", String (cause e))
      ::
      (match e with
      | Source_out_of_range ep | Destination_out_of_range ep ->
        [ ("endpoint", json_endpoint ep) ]
      | Blocked { uncovered } ->
        [ ("uncovered", List (List.map (fun i -> Int i) uncovered)) ]))

  let disconnect_cause = function
    | Unknown_route _ -> "unknown_route"
    | Already_released _ -> "already_released"

  let disconnect_to_string e = Format.asprintf "%a" pp_disconnect_error e

  let disconnect_to_json e =
    let open Wdm_telemetry.Json in
    let id = match e with Unknown_route id | Already_released id -> id in
    Obj [ ("cause", String (disconnect_cause e)); ("id", Int id) ]
end

let pp_route ppf r =
  Format.fprintf ppf "route %d wl=%d cost=%.1f arcs=[%a]" r.id r.wl r.cost
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (a, b, _) -> Format.fprintf ppf "%d>%d" a b))
    r.arcs
