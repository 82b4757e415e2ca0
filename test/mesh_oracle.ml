(* The mesh grower as it was before the library moved to array-based
   bookkeeping, kept unchanged as the test oracle for
   [Shortest.grow] and [Light_tree.build]: list-scanned targets, a
   [Hashtbl] of grafted edges, a closure per relaxed node.  The tests
   hold the library's light-trees, arcs, costs and refusal lists equal
   to what this slow, obvious version builds. *)

open Wdm_mesh

(* ----- Shortest.run / grow --------------------------------------------- *)

let run g ~sources ~skip_node ~use_edge =
  let n = Graph.n g in
  let dist = Array.make (n + 1) infinity in
  let pred = Array.make (n + 1) (-1) in (* edge id into the node *)
  let prev = Array.make (n + 1) 0 in    (* predecessor node *)
  let visited = Array.make (n + 1) false in
  List.iter (fun s -> dist.(s) <- 0.) sources;
  let rec loop () =
    let best = ref 0 in
    for v = 1 to n do
      if (not visited.(v)) && dist.(v) < infinity
         && (!best = 0 || dist.(v) < dist.(!best))
      then best := v
    done;
    if !best <> 0 then begin
      let u = !best in
      visited.(u) <- true;
      List.iter
        (fun (v, e) ->
          if (not visited.(v)) && (not (skip_node v)) && use_edge e then begin
            let d = dist.(u) +. (Graph.edge g e).Graph.w in
            if d < dist.(v) then begin
              dist.(v) <- d;
              pred.(v) <- e;
              prev.(v) <- u
            end
          end)
        (Graph.adj g u);
      loop ()
    end
  in
  loop ();
  (dist, pred, prev)

let walk_back ~prev ~pred ~sources dst =
  let rec go v acc =
    if List.mem v sources && pred.(v) = -1 then v :: acc
    else go prev.(v) (v :: acc)
  in
  go dst []

let grow ~sources ~skip_node ~use_edge ~target g =
  let dist, pred, prev = run g ~sources ~skip_node ~use_edge in
  let n = Graph.n g in
  let best = ref 0 in
  for v = 1 to n do
    if target v && dist.(v) < infinity
       && (!best = 0 || dist.(v) < dist.(!best))
    then best := v
  done;
  if !best = 0 then None
  else Some (dist.(!best), walk_back ~prev ~pred ~sources !best)

(* ----- Light_tree.build ------------------------------------------------ *)

let build ~mode ~mc ~use_edge g ~src ~dests =
  let n = Graph.n g in
  let in_t = Array.make (n + 1) false in
  (* ins counts signal arrivals at a node (the source's transmitter
     counts as one); outs counts departures.  An MI node can grow a new
     branch only while ins > outs — each arrival forwards at most once
     (drop-and-continue).  MC nodes split freely. *)
  let ins = Array.make (n + 1) 0 in
  let outs = Array.make (n + 1) 0 in
  let used_here = Hashtbl.create 16 in
  in_t.(src) <- true;
  ins.(src) <- 1;
  let covered = Array.make (n + 1) false in
  covered.(src) <- true;
  let uncovered = ref (List.filter (fun d -> d <> src) dests) in
  let arcs = ref [] in
  let cost = ref 0. in
  let can_attach v = in_t.(v) && (mc.(v) || ins.(v) > outs.(v)) in
  let graft path =
    let rec go = function
      | a :: (b :: _ as rest) ->
        let e =
          match Graph.edge_between g a b with
          | Some e -> e
          | None -> assert false
        in
        arcs := (a, b, e) :: !arcs;
        cost := !cost +. (Graph.edge g e).Graph.w;
        Hashtbl.replace used_here e ();
        outs.(a) <- outs.(a) + 1;
        ins.(b) <- ins.(b) + 1;
        in_t.(b) <- true;
        covered.(b) <- true;
        go rest
      | _ -> ()
    in
    go path
  in
  let rec loop () =
    match !uncovered with
    | [] -> Ok { Light_tree.arcs = List.rev !arcs; cost = !cost }
    | pending -> (
      let sources =
        List.filter can_attach (List.init n (fun i -> i + 1))
      in
      let skip_node v =
        match mode with
        | Light_tree.Tree -> in_t.(v) (* node-disjoint grafts: attach only at ends *)
        | Light_tree.Hierarchy -> false (* edge-disjoint only: cross-pair reuse *)
      in
      let use_edge' e = use_edge e && not (Hashtbl.mem used_here e) in
      let target v = (not covered.(v)) && List.mem v pending in
      match grow ~sources ~skip_node ~use_edge:use_edge' ~target g with
      | None -> Error (List.sort compare pending)
      | Some (_, path) ->
        graft path;
        uncovered := List.filter (fun d -> not covered.(d)) pending;
        loop ())
  in
  loop ()
