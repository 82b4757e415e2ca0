(* An independent model of a three-stage network, kept as the test
   oracle for [Network]'s packed link planes.

   The oracle knows nothing of [Network]'s internals.  It is rebuilt
   from what the library exposes (the configuration, the live routes,
   the faults in force and the route-id allocator, all via
   [Network.snapshot]) and re-derives everything else the slow, obvious
   way: per-link wavelength occupancy as bool arrays, busy endpoint
   lists, per-middle occupancy, the gauges.  Its list-based selectors
   replay the min-intersection and first-fit strategies, so from a
   pre-op state it predicts each connect's outcome, rearrangement
   included, for the lockstep tests to compare against the library. *)

open Wdm_core
open Wdm_multistage
module Fault = Wdm_faults.Fault
module Tel = Wdm_telemetry

type t = {
  topo : Topology.t;
  construction : Network.construction;
  output_model : Model.t;
  x_limit : int;
  strategy : [ `Min_intersection | `First_fit ];
  rearrange_limit : int;
  (* [s1.(i-1).(j-1).(w-1)]: wavelength [w] busy on input module [i] ->
     middle [j]; [s2.(j-1).(p-1).(w-1)] likewise for middle [j] ->
     output module [p].  The [_dead] twins mark slots of dead lasers. *)
  s1 : bool array array array;
  s2 : bool array array array;
  s1_dead : bool array array array;
  s2_dead : bool array array array;
  faults : Fault.t list;
  failed_middles : int list;
  failed_inputs : int list;
  failed_outputs : int list;
  dead_converters : (int * int) list;
  mutable sources : Endpoint.t list;
  mutable dests : Endpoint.t list;
  mutable routes : Network.route list;  (* ascending id *)
  mutable next_id : int;
}

let fail fmt = Format.kasprintf failwith ("oracle: " ^^ fmt)

let planes a b k =
  Array.init a (fun _ -> Array.init b (fun _ -> Array.make k false))

let range n = List.init n (fun i -> i + 1)

let set_route t (route : Network.route) busy =
  List.iter
    (fun (h : Network.hop) ->
      let s1 = t.s1.(route.input_switch - 1).(h.middle - 1) in
      if s1.(h.stage1_wl - 1) = busy then
        fail "route %d: stage-1 slot already %b" route.id busy;
      s1.(h.stage1_wl - 1) <- busy;
      List.iter
        (fun (p, w) ->
          let s2 = t.s2.(h.middle - 1).(p - 1) in
          if s2.(w - 1) = busy then
            fail "route %d: stage-2 slot already %b" route.id busy;
          s2.(w - 1) <- busy)
        h.serves)
    route.hops

let place t (route : Network.route) =
  set_route t route true;
  let c = route.connection in
  t.sources <- c.source :: t.sources;
  t.dests <- c.destinations @ t.dests;
  let rec insert = function
    | (r : Network.route) :: rest when r.id < route.id -> r :: insert rest
    | rest -> route :: rest
  in
  t.routes <- insert t.routes

let unplace t (route : Network.route) =
  set_route t route false;
  let c = route.connection in
  t.sources <- List.filter (fun e -> e <> c.source) t.sources;
  t.dests <- List.filter (fun e -> not (List.mem e c.destinations)) t.dests;
  t.routes <- List.filter (fun (r : Network.route) -> r.id <> route.id) t.routes

let of_network net =
  let s = Network.snapshot net in
  let topo = s.s_topology in
  let { Topology.m; r; k; _ } = topo in
  let strategy =
    match s.s_strategy with
    | "min-intersection" -> `Min_intersection
    | "first-fit" -> `First_fit
    | other -> fail "unsupported strategy %s" other
  in
  let t =
    {
      topo;
      construction = s.s_construction;
      output_model = s.s_output_model;
      x_limit = s.s_x_limit;
      strategy;
      rearrange_limit = s.s_rearrange_limit;
      s1 = planes r m k;
      s2 = planes m r k;
      s1_dead = planes r m k;
      s2_dead = planes m r k;
      faults = s.s_faults;
      failed_middles =
        List.filter_map (function Fault.Middle j -> Some j | _ -> None) s.s_faults;
      failed_inputs =
        List.filter_map
          (function Fault.Input_module i -> Some i | _ -> None)
          s.s_faults;
      failed_outputs =
        List.filter_map
          (function Fault.Output_module p -> Some p | _ -> None)
          s.s_faults;
      dead_converters =
        List.filter_map
          (function
            | Fault.Converter { middle; output } -> Some (middle, output)
            | _ -> None)
          s.s_faults;
      sources = [];
      dests = [];
      routes = [];
      next_id = s.s_next_id;
    }
  in
  List.iter
    (function
      | Fault.Stage1_laser { input; middle; wl } ->
        t.s1_dead.(input - 1).(middle - 1).(wl - 1) <- true
      | Fault.Stage2_laser { middle; output; wl } ->
        t.s2_dead.(middle - 1).(output - 1).(wl - 1) <- true
      | _ -> ())
    s.s_faults;
  List.iter (place t) s.s_routes;
  t

(* ----- the routing rules, over bool arrays ---------------------------- *)

(* usable = neither busy nor served by a dead laser *)
let s1_free t i j w =
  not (t.s1.(i - 1).(j - 1).(w - 1) || t.s1_dead.(i - 1).(j - 1).(w - 1))

let s2_free t j p w =
  not (t.s2.(j - 1).(p - 1).(w - 1) || t.s2_dead.(j - 1).(p - 1).(w - 1))

(* the lowest usable wavelength, by linear scan *)
let first_true f k =
  let rec go w = if w > k then None else if f w then Some w else go (w + 1) in
  go 1

let s1_first_free t i j = first_true (s1_free t i j) t.topo.k
let s2_first_free t j p = first_true (s2_free t j p) t.topo.k

let available t i src_wl j =
  (not (List.mem j t.failed_middles))
  &&
  match t.construction with
  | Network.Msw_dominant -> s1_free t i j src_wl
  | Network.Maw_dominant -> s1_first_free t i j <> None

let stage1_wl t i src_wl j =
  match t.construction with
  | Network.Msw_dominant -> Some src_wl
  | Network.Maw_dominant -> s1_first_free t i j

let covers t i src_wl j p =
  (not (List.mem p t.failed_outputs))
  &&
  match (t.construction, t.output_model) with
  | Network.Msw_dominant, _ -> s2_free t j p src_wl
  | Network.Maw_dominant, Model.MSW ->
    s2_free t j p src_wl
    && ((not (List.mem (j, p) t.dead_converters))
       || stage1_wl t i src_wl j = Some src_wl)
  | Network.Maw_dominant, (Model.MSDW | Model.MAW) -> (
    if not (List.mem (j, p) t.dead_converters) then s2_first_free t j p <> None
    else
      match stage1_wl t i src_wl j with
      | Some w1 -> s2_free t j p w1
      | None -> false)

(* The two selectors as plain list recursions: take the available middle
   covering the most uncovered modules (ties to the lower index), or
   scan middles upward keeping any that covers something new. *)
let min_intersection t i src_wl avail fanout =
  let rec go chosen uncovered remaining picks =
    if uncovered = [] then Some (List.rev chosen)
    else if picks = 0 then None
    else
      let scored =
        List.map
          (fun j -> (j, List.filter (covers t i src_wl j) uncovered))
          remaining
      in
      let best =
        List.fold_left
          (fun acc (j, cov) ->
            match acc with
            | Some (_, best) when List.length best >= List.length cov -> acc
            | _ -> Some (j, cov))
          None scored
      in
      match best with
      | None | Some (_, []) -> None
      | Some (j, cov) ->
        go ((j, cov) :: chosen)
          (List.filter (fun p -> not (List.mem p cov)) uncovered)
          (List.filter (( <> ) j) remaining)
          (picks - 1)
  in
  go [] fanout avail t.x_limit

let first_fit t i src_wl avail fanout =
  let rec go chosen uncovered remaining picks =
    match remaining with
    | _ when uncovered = [] -> Some (List.rev chosen)
    | [] -> None
    | _ when picks = 0 -> None
    | j :: rest -> (
      match List.filter (covers t i src_wl j) uncovered with
      | [] -> go chosen uncovered rest picks
      | cov ->
        go ((j, cov) :: chosen)
          (List.filter (fun p -> not (List.mem p cov)) uncovered)
          rest (picks - 1))
  in
  go [] fanout avail t.x_limit

let module_of t port = fst (Topology.switch_of_port t.topo port)

let validate t (c : Connection.t) =
  let spec = Topology.spec t.topo in
  match Assignment.validate spec t.output_model (Assignment.make [ c ]) with
  | Error e -> Error (Network.Invalid e)
  | Ok () -> (
    let dest_module (d : Endpoint.t) = module_of t d.port in
    if List.mem (module_of t c.source.port) t.failed_inputs then
      Error
        (Network.Unserviceable (Fault.Input_module (module_of t c.source.port)))
    else
      match
        List.find_opt
          (fun d -> List.mem (dest_module d) t.failed_outputs)
          c.destinations
      with
      | Some d ->
        Error (Network.Unserviceable (Fault.Output_module (dest_module d)))
      | None -> (
        if List.mem c.source t.sources then Error (Network.Source_busy c.source)
        else
          match List.find_opt (fun d -> List.mem d t.dests) c.destinations with
          | Some d -> Error (Network.Destination_busy d)
          | None -> Ok ()))

(* Predict [Network.connect] from this state, and apply the prediction
   to the model. *)
let connect t (c : Connection.t) : (Network.route, Network.error) result =
  match validate t c with
  | Error _ as e -> e
  | Ok () -> (
    let i = module_of t c.source.port and src_wl = c.source.wl in
    let fanout =
      List.sort_uniq Int.compare
        (List.map (fun (d : Endpoint.t) -> module_of t d.port) c.destinations)
    in
    let avail = List.filter (available t i src_wl) (range t.topo.m) in
    let select =
      match t.strategy with
      | `Min_intersection -> min_intersection
      | `First_fit -> first_fit
    in
    match select t i src_wl avail fanout with
    | None ->
      Error
        (Network.Blocked
           {
             fanout_switches = fanout;
             available_middles = avail;
             uncovered =
               List.filter
                 (fun p ->
                   not (List.exists (fun j -> covers t i src_wl j p) avail))
                 fanout;
           })
    | Some chosen ->
      let hop (j, serves) =
        let w1 = Option.get (stage1_wl t i src_wl j) in
        let w2 p =
          match (t.construction, t.output_model) with
          | Network.Msw_dominant, _ | Network.Maw_dominant, Model.MSW -> src_wl
          | Network.Maw_dominant, (Model.MSDW | Model.MAW) ->
            if List.mem (j, p) t.dead_converters then w1
            else Option.get (s2_first_free t j p)
        in
        {
          Network.middle = j;
          stage1_wl = w1;
          serves = List.map (fun p -> (p, w2 p)) serves;
        }
      in
      let route =
        { Network.id = t.next_id; connection = c; input_switch = i;
          hops = List.map hop chosen }
      in
      t.next_id <- t.next_id + 1;
      place t route;
      Ok route)

(* Predict [Network.connect_rearrangeable]: on a [Blocked] refusal, try
   moving one victim (fewest hops first, then lowest id, at most
   [rearrange_limit]) out of the way, keeping its id. *)
let connect_rearrangeable t c =
  match connect t c with
  | Ok route -> Ok (route, 0)
  | Error (Network.Blocked _) as blocked ->
    let victims =
      List.stable_sort
        (fun (a : Network.route) (b : Network.route) ->
          compare (List.length a.hops, a.id) (List.length b.hops, b.id))
        t.routes
      |> List.filteri (fun n _ -> n < t.rearrange_limit)
    in
    let rec attempt = function
      | [] -> blocked
      | (victim : Network.route) :: rest -> (
        unplace t victim;
        match connect t c with
        | Error _ ->
          place t victim;
          attempt rest
        | Ok route -> (
          match connect t victim.connection with
          | Ok moved ->
            unplace t moved;
            place t { moved with id = victim.id };
            Ok (route, 1)
          | Error _ ->
            unplace t route;
            place t victim;
            attempt rest))
    in
    attempt victims
  | Error _ as e -> e

(* The connections [Network.inject_fault] must tear down, ascending id. *)
let fault_victims t fault =
  let hit (r : Network.route) =
    List.exists
      (fun (h : Network.hop) ->
        match fault with
        | Fault.Middle j -> h.middle = j
        | Fault.Input_module i -> r.input_switch = i
        | Fault.Output_module p -> List.mem_assoc p h.serves
        | Fault.Stage1_laser { input; middle; wl } ->
          r.input_switch = input && h.middle = middle && h.stage1_wl = wl
        | Fault.Stage2_laser { middle; output; wl } ->
          h.middle = middle && List.mem (output, wl) h.serves
        | Fault.Converter { middle; output } ->
          h.middle = middle
          && List.exists (fun (p, w) -> p = output && w <> h.stage1_wl) h.serves)
      r.hops
  in
  if List.mem fault t.faults then []
  else
    List.filter_map
      (fun (r : Network.route) -> if hit r then Some r.connection else None)
      t.routes

(* ----- audits ---------------------------------------------------------- *)

let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

(* Everything [net] reports about its link state, checked against a
   model rebuilt from its routes and faults. *)
let audit ?sink net =
  let t = of_network net in
  let { Topology.m; r; k; _ } = t.topo in
  for i = 1 to r do
    for j = 1 to m do
      let want = count t.s1.(i - 1).(j - 1) in
      let got = Network.stage1_in_use net ~input_switch:i ~middle:j in
      if got <> want then fail "stage1_in_use in%d m%d: %d, want %d" i j got want
    done
  done;
  for j = 1 to m do
    let ms = Network.destination_multiset net j in
    for p = 1 to r do
      let want = count t.s2.(j - 1).(p - 1) in
      if Multiset.multiplicity ms p <> want then
        fail "M_%d(%d) = %d, want %d" j p (Multiset.multiplicity ms p) want
    done;
    for w = 1 to k do
      let plane = Network.destination_multiset_plane net ~middle:j ~wl:w in
      for p = 1 to r do
        let want = if t.s2.(j - 1).(p - 1).(w - 1) then 1 else 0 in
        if Multiset.multiplicity plane p <> want then
          fail "plane M_%d(%d) on l%d: want %d" j p w want
      done
    done
  done;
  let ports = float_of_int (Topology.num_ports t.topo * k) in
  let util = float_of_int (List.length t.dests) /. ports in
  let in_util = float_of_int (List.length t.sources) /. ports in
  if Network.utilization net <> util then fail "utilization";
  if Network.input_utilization net <> in_util then fail "input utilization";
  if Network.failed_middles net <> List.sort Int.compare t.failed_middles then
    fail "failed middles";
  match sink with
  | None -> ()
  | Some sink ->
    let snap = Tel.Sink.snapshot sink in
    let gauge name want =
      match Tel.Metrics.find_gauge snap name with
      | Some v when v = want -> ()
      | Some v -> fail "gauge %s = %g, want %g" name v want
      | None -> fail "gauge %s missing" name
    in
    gauge "wdmnet_utilization" util;
    gauge "wdmnet_input_utilization" in_util;
    gauge "wdmnet_active_routes" (float_of_int (List.length t.routes));
    gauge "wdmnet_faults_in_force" (float_of_int (List.length t.faults));
    for j = 1 to m do
      let occ = ref 0 in
      for i = 1 to r do
        occ := !occ + count t.s1.(i - 1).(j - 1)
      done;
      gauge (Printf.sprintf "wdmnet_stage1_occupancy{middle=\"%d\"}" j)
        (float_of_int !occ)
    done

(* After a predicted op: the model the prediction left behind must be
   the model a rebuild from the library's new state gives. *)
let agrees t net =
  let u = of_network net in
  let sorted l = List.sort compare l in
  if t.s1 <> u.s1 then fail "stage-1 planes diverged";
  if t.s2 <> u.s2 then fail "stage-2 planes diverged";
  if sorted t.sources <> sorted u.sources then fail "busy sources diverged";
  if sorted t.dests <> sorted u.dests then fail "busy destinations diverged";
  if t.routes <> u.routes then fail "routes diverged";
  if t.next_id <> u.next_id then fail "route-id allocator diverged"
