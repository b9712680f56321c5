(** The Thorup-Zwick (2k-1)-spanner (J. ACM 2005).

    The construction underlying the {e first} fault-tolerant spanners
    (Chechik-Langberg-Peleg-Roditty 2010 modified it to tolerate faults at
    cost ~k^f; the Dinitz-Krauthgamer reduction then subsumed that, and
    this paper's greedy subsumed DK11).  It is included both as a
    historically-faithful baseline and as an alternative plug-in for the
    DK11 reduction.

    Construction: sample a hierarchy [V = A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1}]
    (each level keeps a vertex with probability [n^{-1/k}]); the cluster
    of a center [w ∈ A_i \ A_{i+1}] is
    [C(w) = { v : d(w,v) < d(A_{i+1}, v) }], and the spanner is the union
    of shortest-path trees of all clusters.  Expected size
    [O(k n^{1+1/k})]; stretch [2k - 1] with certainty. *)

type state = {
  levels : int array;
      (** per vertex: highest hierarchy level it belongs to, in
          [0 .. k-1] *)
  cluster_count : int;  (** number of nonempty clusters *)
}

(** [build rng ~k g] returns the spanner selection.  Requires [k >= 1]. *)
val build : Rng.t -> k:int -> Graph.t -> Selection.t

(** [build_with_state] additionally exposes the sampled hierarchy. *)
val build_with_state : Rng.t -> k:int -> Graph.t -> Selection.t * state

(** {1 The hierarchy shared with {!Oracle}}

    The TZ approximate distance oracle is the same hierarchy and cluster
    computation plus bunches, so both builds run {!clusters}.  Every
    shortest-path search in it is one {!Dijkstra.seeded} call. *)

type hierarchy = {
  levels : int array;  (** as in {!state} *)
  delta : float array array;
      (** [delta.(i).(v) = d(A_i, v)] for [i] in [0 .. k], where
          [A_0 = V] (all zeros) and [A_k] is empty (all [infinity]) *)
  pivots : int array array;
      (** [pivots.(i).(v)]: the [A_i] vertex at distance [delta.(i).(v)]
          from [v] (the pivot [p_i(v)]), [-1] if none; [pivots.(0)] is the
          identity *)
}

(** [clusters rng ~k g f] samples the hierarchy [A_0 ⊇ … ⊇ A_{k-1}]
    (level [i] kept with probability [n^{-i/k}]; levels [1 .. k-1] are
    re-drawn, and as a last resort force-promoted, to be nonempty, which
    the oracle's query walk requires), computes each level's distances and
    pivots, and then grows the cluster
    [C(w) = { v : d(w, v) < d(A_{i+1}, v) }] of every centre [w] of level
    [i] in increasing [w], calling [f w members] with its truncated
    shortest-path tree as [(vertex, distance, parent_edge)] triples
    ([parent_edge = -1] at [w]; no order promised).  Each level's sources
    are seeded in decreasing vertex order, which fixes the pivot on equal
    distances.  Requires [k >= 1]. *)
val clusters :
  Rng.t ->
  k:int ->
  Graph.t ->
  (int -> (int * float * int) list -> unit) ->
  hierarchy
