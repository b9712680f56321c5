(** Materialized subgraphs with vertex/edge provenance maps.

    Algorithms such as the Dinitz-Krauthgamer reduction and the LOCAL
    cluster-greedy run a spanner construction on an induced subgraph and
    then translate the chosen edges back to the parent graph; the maps
    returned here make that translation explicit.

    Every subgraph is built by {!of_ids} from ascending parent vertices
    and ascending parent edge ids.  Subgraph vertex [i] is the [i]-th
    parent vertex and subgraph edge [i] the [i]-th parent edge id, so
    both numberings keep the parent's order.  The two arrays are adopted
    as the provenance maps, not copied: do not mutate them afterwards. *)

type t = {
  graph : Graph.t;  (** the subgraph, with fresh vertex/edge numbering *)
  to_parent_vertex : int array;  (** subgraph vertex -> parent vertex *)
  to_parent_edge : int array;  (** subgraph edge id -> parent edge id *)
}

(** [of_ids g ~vertices edges] is the subgraph of [g] on [vertices]
    (ascending, distinct parent vertices) with the edges [edges]
    (ascending, distinct parent edge ids), weights carried.  It adopts
    [vertices] as [to_parent_vertex] and [edges] as [to_parent_edge].
    Raises [Invalid_argument] if an edge has an endpoint outside
    [vertices]. *)
val of_ids : Graph.t -> vertices:int array -> int array -> t

(** [induced_mask g keep] is the subgraph induced by [{ v | keep.(v) }]. *)
val induced_mask : Graph.t -> bool array -> t

(** [of_edge_subset g keep] is the spanning subgraph of [g] keeping edge
    [id] iff [keep.(id)].  Vertex numbering is preserved
    ([to_parent_vertex] is the identity). *)
val of_edge_subset : Graph.t -> bool array -> t
