(** The Baswana-Sen randomized (2k-1)-spanner (Random Struct. Algorithms
    2007) — the non-fault-tolerant spanner algorithm the paper plugs into
    the Dinitz-Krauthgamer reduction for its CONGEST construction
    (Theorem 14).

    The algorithm maintains a clustering, initially all singletons.  In
    each of [k - 1] phases a [n^{-1/k}] fraction of clusters is sampled;
    a vertex of an unsampled cluster either hooks onto the lightest
    incident sampled cluster (keeping the lightest edge to every
    lighter-than-the-hook cluster) or, lacking a sampled neighbor, keeps
    the lightest edge to {e every} neighboring cluster and retires.  A
    final phase connects every vertex to each cluster it still touches.

    Expected size [O(k n^{1+1/k})]; stretch [2k - 1] with certainty
    (every discarded edge has an in-spanner detour by construction).  The
    library uses this both as a centralized baseline and, instrumented
    round-by-round, inside the distributed CONGEST implementation
    ({!Congest_bs}), which runs the same per-vertex {!scan} and {!join}
    against announced cluster views. *)

type cluster_state = {
  center_of : int array;
      (** final clustering (level [k-1]): center vertex per vertex, [-1] if
          the vertex retired from the clustering *)
  phases : int;  (** number of clustering phases performed, [k - 1] *)
}

(** [build rng ~k g] returns the spanner selection.  Requires [k >= 1];
    [k = 1] returns every edge (a 1-spanner must preserve exact
    distances). *)
val build : Rng.t -> k:int -> Graph.t -> Selection.t

(** [build_with_state rng ~k g] additionally exposes the final clustering,
    used by tests (cluster radius invariants). *)
val build_with_state : Rng.t -> k:int -> Graph.t -> Selection.t * cluster_state

(** {1 The per-vertex step}

    One vertex's move in a phase, shared with the CONGEST simulation. *)

(** Stamped per-cluster scratch: a phase costs O(m) in total, not O(n)
    per vertex. *)
type scratch

(** [scratch n] is scratch for cluster ids [0..n-1]. *)
val scratch : int -> scratch

(** [scan sc g ~alive ~cluster_of ~own ~on_own v] groups [v]'s alive
    edges (those with [alive.(id)]) by the neighbor's cluster
    [cluster_of.(y)], skipping neighbors with a negative cluster.  Per
    adjacent cluster it records the lightest edge (strict [<], so the
    first one met wins a tie) and the first neighbor met in it.  Edges
    into [own] are not grouped: [on_own y id] is called for each instead.
    Returns the adjacent clusters, most recently met first.  The
    records stay valid until the next [scan] on [sc]. *)
val scan :
  scratch ->
  Graph.t ->
  alive:bool array ->
  cluster_of:int array ->
  own:int ->
  on_own:(int -> int -> unit) ->
  int ->
  int list

(** [lightest_edge sc c] is the lightest edge id the last {!scan} met into
    cluster [c]. *)
val lightest_edge : scratch -> int -> int

(** [first_neighbor sc c] is the first neighbor the last {!scan} met in
    cluster [c]. *)
val first_neighbor : scratch -> int -> int

(** [join sc adjacent ~sampled ~keep] picks the lightest cluster of
    [adjacent] (the last {!scan}'s result) for which [sampled c] holds,
    strict [<] in list order, and returns it, or [-1] when none is
    sampled.  [keep c] is called, in list order, for every cluster whose
    lightest edge the vertex keeps besides that hook: all of them when
    none is sampled, otherwise those strictly lighter than the hook. *)
val join :
  scratch -> int list -> sampled:(int -> bool) -> keep:(int -> unit) -> int
