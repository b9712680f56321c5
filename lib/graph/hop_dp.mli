(** Hop-constrained lightest paths (layered Bellman-Ford).

    The exponential-time greedy baseline (Algorithm 1 of the paper) must
    decide, exactly, whether some fault set [F] with [|F| <= f] destroys
    every path of weight at most [(2k-1) * w(u,v)]; so must [Prune].
    [Lbc_exact.find_cut] searches for such an [F] by branching over the
    members of a {e minimum-hop} witness path within the weight budget; on
    weighted graphs this module finds that witness.

    [min_hop_path g ~src ~dst ~budget ~max_hops] computes, among all
    [src]-[dst] paths of total weight at most [budget] and at most
    [max_hops] edges, one with the fewest hops.  The DP table is
    [dist.(h).(v)] = lightest weight of a walk from [src] to [v] using
    exactly at most [h] hops; lightest walks within a budget are simple, so
    the extracted witness is a path. *)

val min_hop_path :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  src:int ->
  dst:int ->
  budget:float ->
  max_hops:int ->
  Path.t option
