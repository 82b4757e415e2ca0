(** Multicast structures under sparse splitting.

    Nodes are either multicast-capable (MC: an optical splitter, may
    branch arbitrarily) or multicast-incapable (MI: drop-and-continue
    only — each incoming signal can be tapped locally and forwarded on
    at most one outgoing link).  Following the Zhou-Molnar-Cousin
    Light-Hierarchy papers:

    - [Tree] builds a classic light-tree: every node appears at most
      once, so an MI node's out-degree is capped at 1 and grafts may
      only attach at MC nodes or at current leaves.
    - [Hierarchy] relaxes trees to light-hierarchies: {e edges} are
      used at most once, but a node may be crossed several times via
      distinct incoming/outgoing edge pairs ("cross-pair reuse"), which
      lets routes bypass MI branching limits that would block a tree.

    Construction is Member-Only-style greedy: repeatedly graft the
    nearest uncovered destination onto the structure via the cheapest
    path from any attach-capable node, with deterministic tie-breaks
    inherited from {!Shortest}. *)

type mode = Tree | Hierarchy

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string

type structure = {
  arcs : (int * int * int) list;
      (** (from, to, edge id), in construction order — a directed
          walk-forest rooted at the source *)
  cost : float;  (** sum of arc edge weights *)
}

val build :
  mode:mode ->
  mc:bool array ->
  use_edge:(int -> bool) ->
  Graph.t ->
  src:int ->
  dests:int list ->
  (structure, int list) result
(** Covers [dests] from [src] on the subgraph passing [use_edge].
    [mc] is indexed by node (1-based; index 0 unused).  An MI source
    has a single transmitter (out-degree 1 until revisited in
    [Hierarchy] mode).  [dests] are node ids in [1..n]; a destination
    equal to [src] is covered from the start.  [Error uncovered] lists
    the destinations (in ascending order) no further graft could
    reach. *)
