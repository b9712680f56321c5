(** Native padded low-diameter decomposition — the shared-memory twin of
    the message-passing {!Decomposition}.

    The paper's Theorem 11 builds an f-FT spanner in the LOCAL model by
    sampling [ell = O(log n)] independent random-shift partitions
    (exponential shifts [delta_u ~ Exp(beta)]; vertex [v] joins the
    cluster of the centre maximizing [delta_u - d(u, v)] over the hop
    metric), so that w.h.p. every edge is {e interior} to some cluster of
    some partition.  {!Decomposition.run} realizes that by flooding
    offers through the simulated {!Net}; this module computes the {e same
    fixed point} directly with one {!Dijkstra.seeded} run per partition —
    hop lengths, seed keys [-delta_v] in vertex order, and an improvement
    hook that carries centre, parent and depth — with no network and no
    rounds, just the clustering the sharded builder ({!Shard_build}) fans
    out over the {!Exec} pool.

    {b Agreement with the simulation.}  Given the same [rng] seed, [beta]
    and partition count, [run] draws the same shifts as
    {!Decomposition.run} (both go through {!shifts}) and computes the
    identical assignment: each hop subtracts an exact [1.0] from the
    offer key (float subtraction of small integers is exact), and
    adoption is strict improvement in both, so [center_of], [depth_of]
    and [covered] match the simulated run bit for bit on any seeded
    graph (centre {e ties}
    are measure-zero under continuous shifts; [parent_of] may differ on
    equal-key relays, where both choices are valid shortest-path trees).
    The differential tests in [test/test_shard.ml] pin this down. *)

(** One partition: per-vertex centre, adoption parent ([-1] at centres)
    and hop depth below the centre.  {!Decomposition.run} returns the
    same type. *)
type clustering = {
  center_of : int array;
  parent_of : int array;
  depth_of : int array;
}

type t = {
  partitions : clustering array;
  covered : bool array;
      (** per source edge id: interior to some cluster of some partition *)
  beta : float;
  horizon : int;  (** [ceil (max shift)] — the simulated run's round count *)
  max_depth : int;  (** largest cluster radius over all partitions *)
}

(** [run rng ?beta ?partitions g] samples the decomposition.  [beta]
    defaults to 0.25 and must lie in (0,1); [partitions] defaults to
    [ceil (2 log2 n)] — enough for constant per-edge coverage failure
    probability. *)
val run : Rng.t -> ?beta:float -> ?partitions:int -> Graph.t -> t

(** Fraction of edges interior to at least one cluster ([1.0] on an
    edgeless graph). *)
val coverage : t -> float

(** [members c] lists the clusters of one partition as
    [(centre, members)] pairs — centres in increasing order, members in
    increasing order, every vertex in exactly one cluster. *)
val members : clustering -> (int * int list) list

(** {1 Building blocks shared with the simulated decomposition}

    {!Decomposition.run} draws its shifts and summarizes its flooded
    clusterings through these, so both worlds agree on the arguments,
    the draw order and the derived fields by construction. *)

(** Per-partition exponential shifts: [delta.(p).(v) ~ Exp(beta)], and
    [horizon = ceil (max delta)]. *)
type shifts = { beta : float; delta : float array array; horizon : int }

(** [shifts rng ?beta ?partitions g] validates the arguments as {!run}
    documents (raising [Invalid_argument]) and draws the shifts,
    partition by partition. *)
val shifts : Rng.t -> ?beta:float -> ?partitions:int -> Graph.t -> shifts

(** [assemble g sh partitions] is the decomposition with clusterings
    [partitions] (one per shift row of [sh]): [covered] and [max_depth]
    are derived from them. *)
val assemble : Graph.t -> shifts -> clustering array -> t
