(** Undirected, optionally weighted graphs with stable integer edge ids.

    This is the substrate shared by every algorithm in the library.
    Vertices are the integers [0 .. n-1], fixed at creation.  Edges are
    appended and receive consecutive ids [0 .. m-1]; ids are stable for the
    lifetime of the graph, which lets fault sets, spanner selections and
    blocked-edge masks all be represented as arrays indexed by edge id.

    Parallel edges and self-loops are rejected by {!add_edge}; spanner
    theory assumes simple graphs.  Weights default to [1.0]; a graph in
    which every weight equals [1.0] is treated as unweighted by algorithms
    that care about the distinction (see {!is_unit_weighted}).

    Adjacency is stored flat ({!Csr}: packed offset/neighbor/edge-id
    slices plus an append buffer for recent insertions), so traversal
    inner loops stream over contiguous memory rather than chasing cons
    cells.  The packed slices are [int32] Bigarrays whatever the graph's
    origin: {!Graph_binio} maps a binary file straight into them, and a
    graph built in memory packs into the same layout, with the same
    iteration order, so every selection and counter is bit-identical
    either way.  This module remains the construction and ownership
    layer: build and mutate through it, read through {!iter_neighbors}
    (or {!Csr.iter} over {!adjacency} in hot loops). *)

type edge = private {
  u : int;  (** smaller endpoint *)
  v : int;  (** larger endpoint *)
  w : float;  (** weight, [> 0] *)
  id : int;  (** position in insertion order *)
}

type t

(** {1 Construction} *)

(** [create n] is the edgeless graph on vertices [0..n-1].  Raises
    [Invalid_argument] when [n] is negative or at least
    {!Csr.max_half}, before allocating anything. *)
val create : int -> t

(** [valid_weight w] is the one weight rule: [w] is finite and [> 0].
    {!add_edge}, {!of_adjacency} and the dynamic service's inserts all
    enforce it, so [nan] and [infinity] never enter a graph. *)
val valid_weight : float -> bool

(** [add_edge g u v ~w] appends the edge [{u,v}] with weight [w] and returns
    its id.  Raises [Invalid_argument] on self-loops, out-of-range
    endpoints, weights that fail {!valid_weight}, or duplicate edges. *)
val add_edge : t -> int -> int -> w:float -> int

(** [add_edge_unit g u v] is [add_edge g u v ~w:1.0]. *)
val add_edge_unit : t -> int -> int -> int

(** [of_edges n pairs] builds a unit-weight graph from an edge list. *)
val of_edges : int -> (int * int) list -> t

(** [of_weighted_edges n triples] builds a graph from [(u, v, w)] triples. *)
val of_weighted_edges : int -> (int * int * float) list -> t

(** [of_adjacency ?weights adj] adopts a pre-built adjacency (typically
    from {!Csr.of_packed_i32} over file-mapped regions) and
    reconstructs the edge store in one linear pass — the bulk-load path
    that skips [add_edge]'s per-edge duplicate probe.  [weights.(id)]
    supplies edge weights (default all [1.0]).  Validates everything
    [add_edge] would have: raises [Invalid_argument] unless every id in
    [0, m) is exactly one undirected, non-loop, non-parallel edge whose
    weight passes {!valid_weight}. *)
val of_adjacency : ?weights:float array -> Csr.t -> t

(** [copy g] is an independent copy sharing nothing mutable with [g]. *)
val copy : t -> t

(** {1 Accessors} *)

(** [n g] is the number of vertices. *)
val n : t -> int

(** [m g] is the number of edges. *)
val m : t -> int

(** [edge g id] returns the edge with the given id.  Raises
    [Invalid_argument] if [id] is out of range. *)
val edge : t -> int -> edge

(** [endpoints g id] is [(u, v)] of edge [id]. *)
val endpoints : t -> int -> int * int

(** [weight g id] is the weight of edge [id]. *)
val weight : t -> int -> float

(** [other_endpoint g id x] is the endpoint of edge [id] different from [x].
    Raises [Invalid_argument] if [x] is not an endpoint. *)
val other_endpoint : t -> int -> int -> int

(** [degree g u] is the number of edges incident to [u]. *)
val degree : t -> int -> int

(** [mem_edge g u v] tests whether the edge [{u,v}] is present. *)
val mem_edge : t -> int -> int -> bool

(** [find_edge g u v] returns the id of edge [{u,v}] if present. *)
val find_edge : t -> int -> int -> int option

(** {1 Iteration} *)

(** [iter_edges g fn] applies [fn] to every edge in insertion order. *)
val iter_edges : t -> (edge -> unit) -> unit

(** [fold_edges g init fn] folds [fn] over edges in insertion order. *)
val fold_edges : t -> 'a -> ('a -> edge -> 'a) -> 'a

(** [edge_array g] is a fresh array of all edges in insertion order. *)
val edge_array : t -> edge array

(** [iter_neighbors g u fn] applies [fn v edge_id] for each edge incident to
    [u].  Allocation-free; preferred in inner loops. *)
val iter_neighbors : t -> int -> (int -> int -> unit) -> unit

(** [adjacency g] is the live flat adjacency ({!Csr.t}) of [g], for
    traversals that scan it with {!Csr.iter} ({!Bfs}, {!Dijkstra},
    {!Hop_dp}).  Read-only: do not mutate [g] during such a scan. *)
val adjacency : t -> Csr.t

(** [resident_bytes g] is the resident size of [g]'s adjacency storage
    in bytes (see {!Csr.resident_bytes}; the edge store is excluded). *)
val resident_bytes : t -> int

(** {1 Aggregates} *)

(** [total_weight g] is the sum of all edge weights. *)
val total_weight : t -> float


(** [is_unit_weighted g] is [true] when every edge has weight [1.0]. *)
val is_unit_weighted : t -> bool
