(** The LOCAL-model fault-tolerant spanner of Section 5.1 (Theorem 12).

    Pipeline: build the padded decomposition of Theorem 11; gather each
    cluster's induced subgraph at its center by convergecast up the
    cluster BFS tree (LOCAL allows unbounded messages); have every center
    run the centralized greedy on its cluster; scatter the chosen edges
    back down.  The output is the union over all clusters of all
    partitions; w.h.p. every edge of [G] lies inside some cluster, so the
    union is an f-FT (2k-1)-spanner of [G] with
    [O(f^{1-1/k} n^{1+1/k} log n)] edges, and the round count is dominated
    by the cluster diameter, i.e. [O(log n)].

    The paper runs Algorithm 1 (the exponential greedy) at cluster centers
    — LOCAL permits unbounded local computation.  Centers here can run
    either that or the paper's own polynomial Algorithm 3/4, trading the
    extra factor [k] in cluster spanner size for tractability on large
    clusters; the default is the polynomial engine. *)

type engine =
  | Exponential  (** Algorithm 1 at the centers, as in the paper *)
  | Polynomial  (** Algorithm 3/4 at the centers (extra factor k) *)

type result = {
  selection : Selection.t;
  decomposition : Shard_partition.t;
  announce_rounds : int;  (** neighbors exchange cluster ids *)
  gather_rounds : int;  (** convergecast depth *)
  scatter_rounds : int;  (** broadcast depth *)
  total_rounds : int;
  stats : Net.stats;  (** gather/scatter traffic (unbounded messages) *)
}

(** [build rng ?engine ?beta ?partitions ?chaos ~mode ~k ~f g] runs the
    LOCAL algorithm end to end on the simulator.  [chaos] makes the
    gather/scatter network unreliable; the {!Reliable} protocol masks
    the faults, so the selection is unchanged while [stats] includes the
    retransmission traffic. *)
val build :
  Rng.t ->
  ?engine:engine ->
  ?beta:float ->
  ?partitions:int ->
  ?chaos:Chaos.plan ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  result
