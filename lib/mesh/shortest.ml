let never _ = false
let always _ = true

(* O(n^2) selection Dijkstra: the zoo graphs are tens of nodes, and the
   plain loop has an easy determinism story (ascending node scan means
   equal distances resolve to the smallest id with no heap-order
   subtleties).  The relaxation is one recursive walk of the settled
   node's adjacency list, reading weights straight from the edge
   array: the light-tree grower runs this once per graft per tried
   wavelength. *)
let run g ~sources ~skip_node ~use_edge =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let dist = Array.make (n + 1) infinity in
  let pred = Array.make (n + 1) (-1) in (* edge id into the node *)
  let prev = Array.make (n + 1) 0 in    (* predecessor node *)
  let visited = Array.make (n + 1) false in
  List.iter (fun s -> dist.(s) <- 0.) sources;
  let rec relax u du = function
    | [] -> ()
    | (v, e) :: rest ->
      if (not visited.(v)) && (not (skip_node v)) && use_edge e then begin
        let d = du +. edges.(e).Graph.w in
        if d < dist.(v) then begin
          dist.(v) <- d;
          pred.(v) <- e;
          prev.(v) <- u
        end
      end;
      relax u du rest
  in
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
      relax u dist.(u) (Graph.adj g u);
      loop ()
    end
  in
  loop ();
  (dist, pred, prev)

(* Weights are positive, so a source keeps distance 0 and is never
   relaxed: on a reached node, no incoming edge means a source. *)
let walk_back ~prev ~pred dst =
  let rec go v acc =
    if pred.(v) = -1 then v :: acc else go prev.(v) (v :: acc)
  in
  go dst []

let shortest_path ?(skip_node = never) ?(use_edge = always) g ~src ~dst =
  if src = dst then Some (0., [ src ])
  else begin
    let dist, pred, prev =
      run g ~sources:[ src ] ~skip_node ~use_edge
    in
    if dist.(dst) = infinity then None
    else Some (dist.(dst), walk_back ~prev ~pred dst)
  end

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
  else Some (dist.(!best), walk_back ~prev ~pred !best)

(* ----- Yen ------------------------------------------------------------- *)

let path_cost g nodes =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
      match Graph.edge_between g a b with
      | Some e -> go (acc +. (Graph.edge g e).Graph.w) rest
      | None -> invalid_arg "Shortest.path_cost: not a path")
    | _ -> acc
  in
  go 0. nodes

let candidate_compare (c1, p1) (c2, p2) =
  match compare (c1 : float) c2 with 0 -> compare (p1 : int list) p2 | c -> c

let k_shortest ?(use_edge = always) g ~src ~dst ~k =
  if k < 1 then invalid_arg "Shortest.k_shortest: k must be >= 1";
  match shortest_path ~use_edge g ~src ~dst with
  | None -> []
  | Some first ->
    let a = ref [ first ] (* accepted, newest first *) in
    let b = ref [] (* candidates, sorted ascending *) in
    let rec take_prefix i = function
      | [] -> []
      | x :: rest -> if i = 0 then [] else x :: take_prefix (i - 1) rest
    in
    let rec fill count =
      if count >= k then ()
      else begin
        let _, last = List.hd !a in
        let len = List.length last in
        (* spur at every node of the previous path except the last *)
        for i = 0 to len - 2 do
          let root = take_prefix (i + 1) last in
          let spur = List.nth last i in
          (* edges leaving any accepted path that shares this root *)
          let banned_edges = Hashtbl.create 8 in
          List.iter
            (fun (_, p) ->
              if take_prefix (i + 1) p = root && List.length p > i + 1 then
                match
                  Graph.edge_between g (List.nth p i) (List.nth p (i + 1))
                with
                | Some e -> Hashtbl.replace banned_edges e ()
                | None -> ())
            !a;
          let root_nodes = take_prefix i last in
          let skip_node v = List.mem v root_nodes in
          let use_edge' e = use_edge e && not (Hashtbl.mem banned_edges e) in
          match shortest_path ~skip_node ~use_edge:use_edge' g ~src:spur ~dst with
          | None -> ()
          | Some (_, spur_path) ->
            let total = root_nodes @ spur_path in
            let cand = (path_cost g total, total) in
            if
              (not (List.exists (fun (_, p) -> p = total) !a))
              && not (List.mem cand !b)
            then b := List.sort candidate_compare (cand :: !b)
        done;
        match !b with
        | [] -> ()
        | best :: rest ->
          b := rest;
          a := best :: !a;
          fill (count + 1)
      end
    in
    fill 1;
    List.sort candidate_compare !a
