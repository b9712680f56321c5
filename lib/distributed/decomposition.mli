(** Padded low-diameter decompositions in the LOCAL model (Theorem 11).

    Built from random exponential shifts (Miller-Peng-Xu style, also
    implicit in the padded decompositions of Dinitz-Krauthgamer): every
    vertex [u] draws [delta_u ~ Exp(beta)] and every vertex joins the
    cluster of the [u] maximizing [delta_u - d_hop(u, v)].  Flooding the
    winning offers for [ceil(max delta)] rounds computes the assignment;
    an edge is cut with probability [O(beta)], cluster hop-radius is
    [max delta = O(log n / beta)] w.h.p.

    Repeating with [ell = Theta(log n)] independent partitions makes every
    edge interior to some cluster w.h.p.  All [ell] floods run
    simultaneously — LOCAL messages are unbounded, so a round carries one
    offer per partition — giving [O(log n)] rounds total, as Theorem 11
    requires.

    This module is only the flood: the clustering type, the shift
    sampling and argument validation, and the derived [covered] /
    [max_depth] / {!Shard_partition.coverage} all come from
    {!Shard_partition}, whose native fixed-point computation the flood
    must agree with. *)

(** [run rng ?beta ?partitions g] computes the decomposition by flooding
    offers through a simulated LOCAL {!Net} for [horizon] rounds (the
    LOCAL round count).  [beta] defaults to [0.25]; [partitions] defaults
    to [max 1 (ceil (2 * log2 n))]; both are validated by
    {!Shard_partition.shifts}. *)
val run : Rng.t -> ?beta:float -> ?partitions:int -> Graph.t -> Shard_partition.t
