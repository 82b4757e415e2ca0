module Tel = Wdm_telemetry
module Network = Wdm_multistage.Network
module Topology = Wdm_multistage.Topology
module Model = Wdm_core.Model
module Mesh = Wdm_mesh.Mesh_network
module Mesh_assign = Wdm_mesh.Assign
module Mesh_tree = Wdm_mesh.Light_tree
module Mesh_graph = Wdm_mesh.Graph
module Zoo = Wdm_mesh.Zoo

type t = Net of Network.t | Mesh of Mesh.t

let kind = function Net _ -> "multistage" | Mesh _ -> "mesh"

let fail (r : Wire.reader) reason =
  raise (Wire.Decode_error { offset = r.Wire.pos; reason })

let put_string b s =
  Wire.put_u32 b (String.length s);
  Buffer.add_string b s

let get_string r =
  let len = Wire.get_u32 r in
  if len > 0xffff then fail r "implausible string length";
  if r.Wire.pos + len > String.length r.Wire.src then fail r "truncated string";
  let s = String.sub r.Wire.src r.Wire.pos len in
  r.Wire.pos <- r.Wire.pos + len;
  s

(* ----- multistage state codec (moved verbatim from Store) -------------- *)

let construction_tag = function
  | Network.Msw_dominant -> 0
  | Network.Maw_dominant -> 1

(* [Named] built-ins canonicalize onto the tags their enum twins have
   carried since v1, so routing through the plug-in API leaves snapshots
   — and therefore digests — byte-identical; only genuinely new plug-in
   names take the string-carrying tag 3.  Old WALs never contain tag 3
   and decode unchanged. *)
let canonical_strategy = function
  | Network.Named "min-intersection" -> Network.Min_intersection
  | Network.Named "first-fit" -> Network.First_fit
  | Network.Named "exhaustive" -> Network.Exhaustive
  | s -> s

let put_strategy b s =
  match canonical_strategy s with
  | Network.Min_intersection -> Wire.put_u8 b 0
  | Network.First_fit -> Wire.put_u8 b 1
  | Network.Exhaustive -> Wire.put_u8 b 2
  | Network.Named name ->
    Wire.put_u8 b 3;
    put_string b name

let get_strategy r =
  match Wire.get_u8 r with
  | 0 -> Network.Min_intersection
  | 1 -> Network.First_fit
  | 2 -> Network.Exhaustive
  | 3 -> Network.Named (get_string r)
  | t -> fail r (Printf.sprintf "unknown strategy tag %d" t)

let link_impl_tag = function Network.Bitset -> 0 | Network.Reference -> 1
let model_tag = function Model.MSW -> 0 | Model.MSDW -> 1 | Model.MAW -> 2

let put_route b (route : Network.route) =
  Wire.put_int b route.Network.id;
  Op.encode_connection b route.Network.connection;
  Wire.put_u32 b route.Network.input_switch;
  Wire.put_u32 b (List.length route.Network.hops);
  List.iter
    (fun (h : Network.hop) ->
      Wire.put_u32 b h.Network.middle;
      Wire.put_u32 b h.Network.stage1_wl;
      Wire.put_u32 b (List.length h.Network.serves);
      List.iter
        (fun (o, w) ->
          Wire.put_u32 b o;
          Wire.put_u32 b w)
        h.Network.serves)
    route.Network.hops

let get_route r : Network.route =
  let id = Wire.get_int r in
  if id < 0 then fail r "negative route id";
  let connection = Op.decode_connection r in
  let input_switch = Wire.get_u32 r in
  let nhops = Wire.get_u32 r in
  if nhops > 0xffff then fail r "implausible hop count";
  let hops =
    List.init nhops (fun _ ->
        let middle = Wire.get_u32 r in
        let stage1_wl = Wire.get_u32 r in
        let nserves = Wire.get_u32 r in
        if nserves > 0xffff then fail r "implausible serve count";
        let serves =
          List.init nserves (fun _ ->
              let o = Wire.get_u32 r in
              let w = Wire.get_u32 r in
              (o, w))
        in
        { Network.middle; stage1_wl; serves })
  in
  { Network.id; connection; input_switch; hops }

let encode_route = put_route
let decode_route = get_route

let encode_net_state (s : Network.snapshot) =
  let b = Buffer.create 4096 in
  let topo = s.Network.s_topology in
  Wire.put_u32 b topo.Topology.n;
  Wire.put_u32 b topo.Topology.m;
  Wire.put_u32 b topo.Topology.r;
  Wire.put_u32 b topo.Topology.k;
  Wire.put_u8 b (construction_tag s.Network.s_construction);
  Wire.put_u8 b (model_tag s.Network.s_output_model);
  Wire.put_u32 b s.Network.s_x_limit;
  put_strategy b s.Network.s_strategy;
  Wire.put_u8 b (link_impl_tag s.Network.s_link_impl);
  Wire.put_u32 b s.Network.s_rearrange_limit;
  Wire.put_int b s.Network.s_next_id;
  Wire.put_u32 b (List.length s.Network.s_routes);
  List.iter (put_route b) s.Network.s_routes;
  Wire.put_u32 b (List.length s.Network.s_faults);
  List.iter (Op.encode_fault b) s.Network.s_faults;
  Buffer.contents b

(* Ceilings on what a decoded snapshot may make [Network.restore]
   allocate, checked before it allocates anything.  [Topology.make] only
   checks [m >= n], so one flipped bit in [m] would otherwise ask for
   gigabytes of link planes — an uncatchable out-of-memory, or a silent
   near-gigabyte allocation.  A plane holds [r * m] links of
   [ceil(k / 62)] words each (packed bitset) or [k] words each (the
   bool-array reference), once per stage for busy and dead slots.  Both
   ceilings sit far above anything the tests, benches and CLI build:
   the largest served fabric (N = 1024 at Theorem 1's m) is
   32 * 192 = 6,144 words per plane. *)
let max_state_k = 4096
let max_state_link_words = 1 lsl 20

let link_words ~r ~m ~words_per_link =
  (* [r], [m] and [k] are u32s, so the product could overflow *)
  if r > max_state_link_words / m then max_int
  else if words_per_link > max_state_link_words / (r * m) then max_int
  else r * m * words_per_link

let decode_net_state_reader r : Network.snapshot =
  let n = Wire.get_u32 r in
  let m = Wire.get_u32 r in
  let rr = Wire.get_u32 r in
  let k = Wire.get_u32 r in
  let s_topology =
    match Topology.make ~n ~m ~r:rr ~k with
    | Ok t -> t
    | Error e -> fail r (Printf.sprintf "invalid topology: %s" e)
  in
  if k > max_state_k then
    fail r (Printf.sprintf "implausible wavelength count %d" k);
  let s_construction =
    match Wire.get_u8 r with
    | 0 -> Network.Msw_dominant
    | 1 -> Network.Maw_dominant
    | t -> fail r (Printf.sprintf "unknown construction tag %d" t)
  in
  let s_output_model =
    match Wire.get_u8 r with
    | 0 -> Model.MSW
    | 1 -> Model.MSDW
    | 2 -> Model.MAW
    | t -> fail r (Printf.sprintf "unknown model tag %d" t)
  in
  let s_x_limit = Wire.get_u32 r in
  let s_strategy = get_strategy r in
  let s_link_impl =
    match Wire.get_u8 r with
    | 0 -> Network.Bitset
    | 1 -> Network.Reference
    | t -> fail r (Printf.sprintf "unknown link impl tag %d" t)
  in
  let words_per_link =
    match s_link_impl with
    | Network.Bitset -> (k + 61) / 62 (* 62 slots per packed word *)
    | Network.Reference -> k
  in
  if link_words ~r:rr ~m ~words_per_link > max_state_link_words then
    fail r
      (Printf.sprintf "implausible link-plane size (r=%d m=%d k=%d)" rr m k);
  let s_rearrange_limit = Wire.get_u32 r in
  let s_next_id = Wire.get_int r in
  let nroutes = Wire.get_u32 r in
  if nroutes > 0xffffff then fail r "implausible route count";
  let s_routes = List.init nroutes (fun _ -> get_route r) in
  let nfaults = Wire.get_u32 r in
  if nfaults > 0xffffff then fail r "implausible fault count";
  let s_faults = List.init nfaults (fun _ -> Op.decode_fault r) in
  Wire.expect_end r;
  {
    Network.s_topology;
    s_construction;
    s_output_model;
    s_x_limit;
    s_strategy;
    s_link_impl;
    s_rearrange_limit;
    s_next_id;
    s_routes;
    s_faults;
  }

let decode_net_state s =
  match decode_net_state_reader (Wire.reader s) with
  | snap -> Ok snap
  | exception Wire.Decode_error { offset; reason } ->
    Error (Printf.sprintf "%s at state offset %d" reason offset)

(* ----- mesh state codec ------------------------------------------------ *)

(* A multistage state opens with its topology's n >= 1; the mesh tag is
   the impossible n = 0, then a codec version byte. *)
let mesh_tag = 0
let mesh_version = 1

(* Same canonicalization as the multistage codec: named classics keep
   their v1 tags; new plug-in names take the string-carrying tag 5. *)
let canonical_mesh_strategy = function
  | Mesh_assign.Named "first-fit" -> Mesh_assign.First_fit
  | Mesh_assign.Named "most-used" -> Mesh_assign.Most_used
  | Mesh_assign.Named "least-used" -> Mesh_assign.Least_used
  | Mesh_assign.Named "random" -> Mesh_assign.Random
  | Mesh_assign.Named "coloring" -> Mesh_assign.Coloring
  | s -> s

let put_mesh_strategy b s =
  match canonical_mesh_strategy s with
  | Mesh_assign.First_fit -> Wire.put_u8 b 0
  | Mesh_assign.Most_used -> Wire.put_u8 b 1
  | Mesh_assign.Least_used -> Wire.put_u8 b 2
  | Mesh_assign.Random -> Wire.put_u8 b 3
  | Mesh_assign.Coloring -> Wire.put_u8 b 4
  | Mesh_assign.Named name ->
    Wire.put_u8 b 5;
    put_string b name

let get_mesh_strategy r =
  match Wire.get_u8 r with
  | 0 -> Mesh_assign.First_fit
  | 1 -> Mesh_assign.Most_used
  | 2 -> Mesh_assign.Least_used
  | 3 -> Mesh_assign.Random
  | 4 -> Mesh_assign.Coloring
  | 5 -> Mesh_assign.Named (get_string r)
  | t -> fail r (Printf.sprintf "unknown mesh strategy tag %d" t)

let mesh_mode_tag = function Mesh_tree.Tree -> 0 | Mesh_tree.Hierarchy -> 1

let encode_mesh_state (s : Mesh.state) =
  let b = Buffer.create 1024 in
  Wire.put_u32 b mesh_tag;
  Wire.put_u8 b mesh_version;
  put_string b s.Mesh.s_topo;
  Wire.put_u8 b s.Mesh.s_k;
  put_mesh_strategy b s.Mesh.s_strategy;
  Wire.put_u8 b (mesh_mode_tag s.Mesh.s_mode);
  Wire.put_u32 b s.Mesh.s_k_paths;
  let n = Array.length s.Mesh.s_mc - 1 in
  Wire.put_u32 b n;
  (* capability bitmap, nodes 1..n packed LSB-first *)
  let byte = ref 0 and bits = ref 0 in
  for v = 1 to n do
    if s.Mesh.s_mc.(v) then byte := !byte lor (1 lsl !bits);
    incr bits;
    if !bits = 8 then begin
      Wire.put_u8 b !byte;
      byte := 0;
      bits := 0
    end
  done;
  if !bits > 0 then Wire.put_u8 b !byte;
  Wire.put_int b s.Mesh.s_next_id;
  Wire.put_int b s.Mesh.s_attempts;
  Wire.put_u32 b (List.length s.Mesh.s_routes);
  List.iter
    (fun (r : Mesh.route) ->
      Wire.put_int b r.Mesh.id;
      Op.encode_connection b r.Mesh.connection;
      Wire.put_u8 b r.Mesh.wl;
      Wire.put_u32 b (List.length r.Mesh.arcs);
      List.iter
        (fun (a, b', _) ->
          Wire.put_u32 b a;
          Wire.put_u32 b b')
        r.Mesh.arcs)
    s.Mesh.s_routes;
  Buffer.contents b

let decode_mesh_state_reader r : Mesh.state =
  let tag = Wire.get_u32 r in
  if tag <> mesh_tag then fail r "not a mesh state";
  let version = Wire.get_u8 r in
  if version <> mesh_version then
    fail r (Printf.sprintf "unknown mesh state version %d" version);
  let s_topo = get_string r in
  let graph =
    match Zoo.by_name s_topo with
    | Ok g -> g
    | Error e -> fail r (Printf.sprintf "invalid mesh topology: %s" e)
  in
  let s_k = Wire.get_u8 r in
  let s_strategy = get_mesh_strategy r in
  let s_mode =
    match Wire.get_u8 r with
    | 0 -> Mesh_tree.Tree
    | 1 -> Mesh_tree.Hierarchy
    | t -> fail r (Printf.sprintf "unknown mesh mode tag %d" t)
  in
  let s_k_paths = Wire.get_u32 r in
  let n = Wire.get_u32 r in
  if n <> Mesh_graph.n graph then fail r "capability bitmap size mismatch";
  let s_mc = Array.make (n + 1) false in
  let byte = ref 0 and bits = ref 0 in
  for v = 1 to n do
    if !bits = 0 then begin
      byte := Wire.get_u8 r;
      bits := 8
    end;
    s_mc.(v) <- !byte land 1 = 1;
    byte := !byte lsr 1;
    decr bits
  done;
  let s_next_id = Wire.get_int r in
  let s_attempts = Wire.get_int r in
  let nroutes = Wire.get_u32 r in
  if nroutes > 0xffffff then fail r "implausible route count";
  let s_routes =
    List.init nroutes (fun _ ->
        let id = Wire.get_int r in
        if id < 0 then fail r "negative route id";
        let connection = Op.decode_connection r in
        let wl = Wire.get_u8 r in
        let narcs = Wire.get_u32 r in
        if narcs > 0xffff then fail r "implausible arc count";
        let cost = ref 0. in
        let arcs =
          List.init narcs (fun _ ->
              let a = Wire.get_u32 r in
              let b = Wire.get_u32 r in
              match Mesh_graph.edge_between graph a b with
              | Some e ->
                cost := !cost +. (Mesh_graph.edge graph e).Mesh_graph.w;
                (a, b, e)
              | None ->
                fail r (Printf.sprintf "arc %d-%d is not a topology edge" a b))
        in
        { Mesh.id; connection; wl; arcs; cost = !cost })
  in
  Wire.expect_end r;
  { Mesh.s_topo; s_k; s_strategy; s_mode; s_k_paths; s_mc; s_next_id;
    s_attempts; s_routes }

let decode_mesh_state s =
  match decode_mesh_state_reader (Wire.reader s) with
  | state -> Ok state
  | exception Wire.Decode_error { offset; reason } ->
    Error (Printf.sprintf "%s at state offset %d" reason offset)

(* ----- dispatch -------------------------------------------------------- *)

let is_mesh_state s =
  String.length s >= 4
  &&
  match Wire.get_u32 (Wire.reader s) with
  | tag -> tag = mesh_tag
  | exception Wire.Decode_error _ -> false

let encode_state = function
  | Net net -> encode_net_state (Network.snapshot net)
  | Mesh net -> encode_mesh_state (Mesh.snapshot net)

let restore ?telemetry s =
  if is_mesh_state s then
    match decode_mesh_state s with
    | Error _ as e -> e
    | Ok state -> (
      match Mesh.restore ?telemetry state with
      | Ok net -> Ok (Mesh net)
      | Error _ as e -> e)
  else
    match decode_net_state s with
    | Error _ as e -> e
    | Ok snap -> (
      match Network.restore ?telemetry snap with
      | net -> Ok (Net net)
      | exception Invalid_argument reason -> Error reason)

let digest t = Crc32.string (encode_state t)

(* ----- replay ---------------------------------------------------------- *)

let mesh_disconnect_to_string = function
  | Mesh.Unknown_route id -> Printf.sprintf "unknown route %d" id
  | Mesh.Already_released id -> Printf.sprintf "route %d already released" id

let apply t op =
  match t with
  | Net net -> (
    match Op.apply net op with Ok _ -> Ok () | Error _ as e -> e)
  | Mesh net -> (
    match (op : Op.t) with
    | Op.Connect c | Op.Repair { connection = c; _ } -> (
      (* like Op.apply: a refused admission replays as a no-op *)
      match Mesh.connect net c with Ok _ | Error _ -> Ok ())
    | Op.Disconnect id -> (
      match Mesh.disconnect net id with
      | Ok _ -> Ok ()
      | Error e -> Error (mesh_disconnect_to_string e))
    | Op.Inject_fault _ | Op.Clear_fault _ ->
      (* never WAL-committed for a mesh: the server answers them with
         Server_error, which committed_op excludes *)
      Error "mesh backend does not support fault ops")

(* ----- mesh-to-wire adapters ------------------------------------------- *)

let net_route_of_mesh (r : Mesh.route) : Network.route =
  {
    Network.id = r.Mesh.id;
    connection = r.Mesh.connection;
    input_switch = r.Mesh.connection.Wdm_core.Connection.source.Wdm_core.Endpoint.port;
    hops =
      List.map
        (fun (a, b, _) ->
          { Network.middle = a; stage1_wl = r.Mesh.wl; serves = [ (b, r.Mesh.wl) ] })
        r.Mesh.arcs;
  }

let net_error_of_mesh : Mesh.error -> Network.error = function
  | Mesh.Source_out_of_range e ->
    Network.Invalid (Wdm_core.Assignment.Source_out_of_range e)
  | Mesh.Destination_out_of_range e ->
    Network.Invalid (Wdm_core.Assignment.Destination_out_of_range e)
  | Mesh.Blocked { uncovered } ->
    Network.Blocked
      { fanout_switches = []; available_middles = []; uncovered }

let net_disconnect_error_of_mesh :
    Mesh.disconnect_error -> Network.disconnect_error = function
  | Mesh.Unknown_route id -> Network.Unknown_route id
  | Mesh.Already_released id -> Network.Already_released id
