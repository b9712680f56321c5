(** Algorithms 3 and 4 of the paper: the polynomial-time modified greedy —
    the headline contribution (Theorem 2).

    The exponential "does some fault set of size [f] disconnect all short
    detours?" test of Algorithm 1 is replaced by one call to the
    Length-Bounded Cut gap procedure {!Lbc.decide} with [t = 2k - 1] and
    [alpha = f]; the candidate edge is added exactly when that call answers
    [Yes].

    Guarantees (for either fault mode):
    - {b Correctness} (Theorems 5 and 10): the output is an f-fault-
      tolerant (2k-1)-spanner.  For weighted graphs the only use of the
      weights is the nondecreasing processing order — the short-detour
      test itself is purely hop-based, and the ordering argument converts
      hop bounds back into weighted stretch.
    - {b Size} (Theorem 8): at most [O(k f^{1-1/k} n^{1+1/k})] edges, for
      {e any} processing order.
    - {b Time} (Theorem 9): [O(m k f^{2-1/k} n^{1+1/k})].

    Because Theorem 8 holds for arbitrary orders, the [order] parameter is
    exposed: the weighted algorithm (Algorithm 4) is [`By_weight], the
    unweighted one (Algorithm 3) accepts anything.  Processing out of
    weight order on a weighted graph voids the stretch guarantee — the
    ordering-sensitivity experiment (E10) does exactly that on unit-weight
    graphs, where every order is valid. *)

type order = Engine.order =
  | By_weight  (** nondecreasing weight — Algorithm 4, the default *)
  | Input_order  (** edge-id order *)
  | Reverse_weight  (** nonincreasing weight (ablation only) *)
  | Shuffled of Rng.t  (** uniformly random order (ablation) *)
  | Explicit of int array  (** a permutation of edge ids *)

(** [decider ~ws ~mode ~k ~f] is the Algorithm 3 decision oracle as an
    {!Engine.decider}: one {!Lbc.decide} call per candidate with
    [t = 2k - 1] and [alpha = f], recording [Keep { cut }] on [Yes].  It
    decides with the caller's workspace [ws], so concurrent deciders
    (one per worker) need one workspace each.  {!build} and
    {!Shard_build}'s clusters both decide through it. *)
val decider :
  ws:Lbc.Workspace.t -> mode:Fault.mode -> k:int -> f:int -> Engine.decider

type trace = {
  lbc_calls : int;  (** = m *)
  bfs_rounds : int;  (** exact total BFS invocations inside LBC *)
  yes_answers : int;  (** = spanner size *)
}
(** The trace is a delta of the telemetry counters [lbc.calls],
    [lbc.bfs_rounds] and [lbc.yes] across the build (see {!Obs}); if
    collection is disabled via [Obs.set_enabled false], the trace reads
    all zeros.  Every build additionally records the [poly_greedy.build]
    span and the [poly_greedy.edges_considered] (+m per build) /
    [poly_greedy.edges_added] counters, whatever its [batch] and [pool]. *)

(** [build ?order ?batch ?pool ~mode ~k ~f g] runs the modified greedy.
    Requires [k >= 1], [f >= 0] ([f = 0] degenerates to the classic
    greedy test) and [batch >= 1].

    {b Blocks} — the parallelization probe the paper's conclusion asks
    about.  Every decision depends on all earlier additions, which is
    what makes the greedy hard to parallelize.  [batch] (default [1], the
    fully sequential Algorithm 3) relaxes that: edges are decided in
    blocks of [batch] against the {e same} partial spanner, then every
    YES edge of the block is added at once.  Correctness is unaffected:
    an edge rejected against [H_r] stays rejected for [H_final ⊇ H_r],
    because Theorem 4's NO guarantee ("every length-(2k-1) cut of [H_r]
    for [u,v] exceeds [f]") is monotone under edge additions.  What
    degrades is the {e size}: edges of one block cannot see each other,
    so with [batch >= m] the output is the whole graph.  Experiment E12
    measures that trade-off.

    {b Pool.}  With [pool], each block's decisions fan out over the
    pool's domains via {!Exec.parallel_for}; [H] is read-only during a
    decision phase, and each worker decides with its own {!decider} and
    {!Lbc.Workspace} ({!Exec.Worker_local}).  Verdicts are written by
    index, so the selection is {b bit-identical} to the pool-less build
    with the same [batch], for every domain count and steal order. *)
val build :
  ?order:order ->
  ?batch:int ->
  ?pool:Exec.Pool.t ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  Selection.t

(** [build_traced] additionally reports work counters for the running-time
    experiments. *)
val build_traced :
  ?order:order ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  Selection.t * trace

type certificate = {
  edge : Graph.edge;  (** the edge the greedy added *)
  cut : int list;
      (** the YES certificate of {!Lbc.decide} at the moment of addition:
          a length-(2k-1) cut for the edge's endpoints in the partial
          spanner, of size at most [(2k-1) f].  In VFT mode these are
          vertex ids; in EFT mode, edge ids {e of the partial spanner at
          that moment} (which equals the final spanner restricted to
          earlier additions). *)
}

(** [build_with_certificates] records, for every added edge, the fault-set
    certificate the LBC call produced.  These are exactly the sets [F_e]
    from which Lemma 6 assembles the (2k)-blocking set; the {!Blocking}
    module consumes them. *)
val build_with_certificates :
  ?order:order ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  Selection.t * certificate list
