type mode = Tree | Hierarchy

let mode_to_string = function Tree -> "tree" | Hierarchy -> "hierarchy"

let mode_of_string = function
  | "tree" -> Ok Tree
  | "hierarchy" -> Ok Hierarchy
  | s -> Error (Printf.sprintf "unknown mode %S (want tree or hierarchy)" s)

type structure = {
  arcs : (int * int * int) list;
  cost : float;
}

let build ~mode ~mc ~use_edge g ~src ~dests =
  let n = Graph.n g in
  let in_t = Array.make (n + 1) false in
  (* ins counts signal arrivals at a node (the source's transmitter
     counts as one); outs counts departures.  An MI node can grow a new
     branch only while ins > outs — each arrival forwards at most once
     (drop-and-continue).  MC nodes split freely. *)
  let ins = Array.make (n + 1) 0 in
  let outs = Array.make (n + 1) 0 in
  let used_here = Array.make (Graph.m g) false in
  in_t.(src) <- true;
  ins.(src) <- 1;
  (* pending.(v): v is a destination the structure does not reach yet *)
  let pending = Array.make (n + 1) false in
  let remaining = ref 0 in
  List.iter
    (fun d ->
      if d <> src && not pending.(d) then begin
        pending.(d) <- true;
        incr remaining
      end)
    dests;
  let arcs = ref [] in
  let cost = ref 0. in
  let can_attach v = in_t.(v) && (mc.(v) || ins.(v) > outs.(v)) in
  let rec graft = function
    | a :: (b :: _ as rest) ->
      let e =
        match Graph.edge_between g a b with
        | Some e -> e
        | None -> assert false
      in
      arcs := (a, b, e) :: !arcs;
      cost := !cost +. (Graph.edge g e).Graph.w;
      used_here.(e) <- true;
      outs.(a) <- outs.(a) + 1;
      ins.(b) <- ins.(b) + 1;
      in_t.(b) <- true;
      if pending.(b) then begin
        pending.(b) <- false;
        decr remaining
      end;
      graft rest
    | _ -> ()
  in
  let skip_node =
    match mode with
    | Tree -> fun v -> in_t.(v) (* node-disjoint grafts: attach only at ends *)
    | Hierarchy -> fun _ -> false (* edge-disjoint only: cross-pair reuse *)
  in
  let use_edge' e = (not used_here.(e)) && use_edge e in
  let rec loop () =
    if !remaining = 0 then Ok { arcs = List.rev !arcs; cost = !cost }
    else begin
      let sources = ref [] in
      for v = n downto 1 do
        if can_attach v then sources := v :: !sources
      done;
      match
        Shortest.grow ~sources:!sources ~skip_node ~use_edge:use_edge'
          ~target:(fun v -> pending.(v)) g
      with
      | None ->
        Error (List.sort compare (List.filter (fun d -> pending.(d)) dests))
      | Some (_, path) ->
        graft path;
        loop ()
    end
  in
  loop ()
