(** The Thorup-Zwick approximate distance oracle (J. ACM 2005) — the
    flagship application the paper's introduction cites for spanners.

    Preprocesses a weighted graph into a structure of expected size
    [O(k n^{1+1/k})] answering distance queries in [O(k)] time with
    stretch at most [2k - 1]:

    - hierarchy [A_0 ⊇ … ⊇ A_{k-1}] as in {!Thorup_zwick};
    - per vertex: the pivots [p_i(v)] (nearest [A_i] vertex) and the
      bunch [B(v) = ∪_i { w ∈ A_i \ A_{i+1} : d(w,v) < d(A_{i+1}, v) }]
      with exact distances;
    - query(u, v): walk [w = p_i(u)] for growing [i], swapping [u] and
      [v] each step, until [w ∈ B(v)]; answer [d(w,u) + d(w,v)].

    The hierarchy, pivots and clusters come from {!Thorup_zwick.clusters},
    the same pass {!Thorup_zwick.build} runs, so an oracle and a spanner
    built from equal seeds share their hierarchy; [build] only files each
    cluster's members into bunches.

    Combined with a fault-tolerant spanner, this is the "routing under
    failures" stack: build the oracle over the FT spanner and the answers
    keep their guarantee relative to the spanner's (faulted) distances —
    see [examples/distance_oracle.ml]. *)

type t

(** [build rng ~k g] preprocesses [g].  Requires [k >= 1]. *)
val build : Rng.t -> k:int -> Graph.t -> t

(** [query t u v] returns an estimate [d] with
    [d_G(u,v) <= d <= (2k-1) * d_G(u,v)] ([infinity] iff disconnected). *)
val query : t -> int -> int -> float

(** [stretch_bound t] is [2k - 1]. *)
val stretch_bound : t -> float

(** [storage t] is the total number of (vertex, distance) entries held in
    bunches and pivot tables — the oracle's size, O(k n^{1+1/k}) expected. *)
val storage : t -> int
