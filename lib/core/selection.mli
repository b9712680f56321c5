(** Edge selections: the common result type of every spanner construction.

    A spanner is represented as the set of {e source-graph} edge ids it
    keeps.  This makes downstream operations uniform: deleting an edge
    fault set from both the graph and the spanner is a mask union, and the
    spanner-with-faults is traversed by running BFS/Dijkstra on the source
    graph with "not selected or faulted" as the blocked-edge mask. *)

type t = {
  source : Graph.t;
  selected : bool array;  (** indexed by source edge id *)
  size : int;  (** number of selected edges *)
}

(** [of_mask g mask] wraps an explicit mask (copied). *)
val of_mask : Graph.t -> bool array -> t

(** [of_ids g ids] selects the listed edge ids. *)
val of_ids : Graph.t -> int list -> t

(** [full g] selects every edge (the trivial spanner). *)
val full : Graph.t -> t

(** [union a b] selects the union of two selections over the same source
    graph.  Raises [Invalid_argument] if the sources differ physically. *)
val union : t -> t -> t

(** [ids sel] lists selected edge ids in increasing order. *)
val ids : t -> int list

(** [weight sel] is the total weight of selected edges. *)
val weight : t -> float

(** [to_subgraph sel] materializes the spanner as its own graph (see
    {!Subgraph.t} for the id maps). *)
val to_subgraph : t -> Subgraph.t

(** [blocked_edges sel extra_faults] renders "kept by the spanner minus the
    faulted edges" as a blocked-edge mask over the source graph: entry [id]
    is [true] iff the edge is {e unavailable} (unselected or faulted). *)
val blocked_edges : t -> int list -> bool array
