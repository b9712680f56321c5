(** Decomposition-sharded spanner construction on the {!Exec} pool.

    The paper's Theorem 11 pipeline — padded partition, per-cluster
    greedy, union — run natively on shared memory, in two stages.

    The {e cluster stage} ({!clusters}) takes a decomposition: every
    cluster with at least two members becomes one work item, its member
    vertices and interior edges held as ascending parent ids, extracted
    in one edge scan per partition.  {!Exec.parallel_for} hands each item
    to a pool worker that builds the cluster's induced subgraph with
    {!Subgraph.of_ids} (the one subgraph builder, which adopts both id
    arrays as its provenance maps) and runs the pluggable greedy over it
    with a private {!Lbc.Workspace} ({!Poly_greedy.decider} for the
    polynomial engine); the kept edges map back through the adopted
    edge-id array.  The LOCAL algorithm ({!Local_spanner}) runs this
    same stage at its cluster centres, over the decomposition it flooded
    through the simulator.

    {!build} samples the decomposition with {!Shard_partition}, runs the
    cluster stage, and unions the per-cluster selections with the
    {e boundary edges} (edges interior to no cluster of any partition;
    w.h.p. a vanishing fraction) force-kept, which makes the result an
    unconditionally valid f-FT (2k-1)-spanner: a surviving covered edge
    has its detour inside the cluster that contains it, and an uncovered
    edge is its own detour.  The price is the paper's O(log n) size
    factor — every partition may keep its own copy of a detour.

    {b Determinism contract.}  The partition is sampled sequentially from
    the caller's [rng]; cluster work items are fixed before the fan-out
    and workers write their selections {e by item index}; the union runs
    in item order on the caller.  The output is therefore bit-identical
    at any pool size ({e and} for a graph built in memory and its
    binary copy), and one seed replays one build.

    Telemetry: {!build} counts [shard.clusters] (work items executed)
    and the force-kept [shard.boundary_edges] (both gated by the bench
    regression harness) inside a [shard_build] span; the cluster stage
    records a [shard.cluster_wall] log-histogram of per-cluster build
    seconds. *)

(** Per-cluster greedy: {!Poly_greedy}'s LBC oracle (the default) or the
    exponential-time optimal-size greedy ({!Exp_greedy} — tiny clusters
    only). *)
type engine = Polynomial | Exponential

(** One cluster's output from the cluster stage. *)
type cluster = {
  partition : int;  (** index into [Shard_partition.t.partitions] *)
  center : int;  (** the cluster's centre vertex *)
  kept : int list;  (** kept parent edge ids, ascending *)
}

(** [clusters ?engine ?pool ~mode ~k ~f g part] is the cluster stage:
    the greedy run on the induced subgraph of every cluster of [part]
    with at least two members, partition by partition, centres in
    increasing order.  Each subgraph numbers its vertices in ascending
    parent order and adds its edges in parent-id order.  [pool = None]
    runs the clusters inline on the caller; the output is the same at any
    pool size.  Counts nothing: the [shard.*] counters belong to
    {!build}.  Raises [Invalid_argument] if [k < 1] or [f < 0]. *)
val clusters :
  ?engine:engine ->
  ?pool:Exec.Pool.t ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  Shard_partition.t ->
  cluster array

type t = {
  selection : Selection.t;
  partition : Shard_partition.t;
  clusters : int;  (** cluster work items executed across all partitions *)
  boundary_edges : int;  (** uncovered edges force-kept into the union *)
}

(** [build ?rng ?engine ?beta ?partitions ?pool ~mode ~k ~f g] builds the
    sharded spanner: sample the decomposition, run {!clusters} over it,
    and union, force-keeping the boundary edges.  [rng] (default seed [0x5eed]) drives only the
    decomposition; [beta]/[partitions] pass through to
    {!Shard_partition.run}.  [pool = None] runs the same code on the
    caller alone — same output, no parallelism.  Raises
    [Invalid_argument] if [k < 1] or [f < 0]. *)
val build :
  ?rng:Rng.t ->
  ?engine:engine ->
  ?beta:float ->
  ?partitions:int ->
  ?pool:Exec.Pool.t ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  t
