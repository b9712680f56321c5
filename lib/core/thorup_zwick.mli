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

(** {1 Lower-level pieces}

    Shared with the {!Oracle} application (the TZ approximate distance
    oracle is the same hierarchy/cluster computation plus bunches). *)

(** [sample_hierarchy rng ~k ~n] draws per-vertex top levels in
    [0 .. k-1] (level [i] kept with probability [n^{-i/k}]).  Levels
    [1 .. k-1] are re-drawn (and, as a last resort, force-promoted) to be
    nonempty, which the oracle's query walk requires. *)
val sample_hierarchy : Rng.t -> k:int -> n:int -> int array

(** [cluster g ~center ~bound] grows the truncated shortest-path tree of
    [center]: the vertices [v] with [d(center, v) < bound.(v)], as
    [(vertex, distance, parent_edge)] triples ([parent_edge = -1] at the
    center). *)
val cluster : Graph.t -> center:int -> bound:float array -> (int * float * int) list
