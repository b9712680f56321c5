(** Batched (round-parallel) modified greedy — the parallelization probe
    the paper's conclusion asks about.

    The conclusion notes that the greedy "tends to be difficult to
    parallelize" because every decision depends on all earlier additions.
    The natural relaxation processes edges in batches: all edges of a
    batch are decided {e against the same} partial spanner (those LBC
    calls are embarrassingly parallel), then every YES edge of the batch
    is added at once.

    Correctness is unaffected: an edge rejected in batch [r] was rejected
    against [H_r ⊆ H_final], and Theorem 4's NO guarantee ("every
    length-(2k-1) cut of [H_r] for [u,v] exceeds [f]") is monotone under
    edge additions, so it holds for [H_final] too.  What degrades is the
    {e size}: edges of one batch cannot see each other, so mutual detours
    are missed — with a single batch the output is the whole graph.  The
    E12 experiment measures that size/parallelism trade-off. *)

type result = Engine.result = {
  selection : Selection.t;
  batches : int;  (** sequential rounds executed *)
  max_batch : int;  (** largest batch size (parallelism exposed) *)
}

(** [build ?order ?pool ~mode ~k ~f ~batch g] runs the batched greedy with
    batches of [batch] edges ([batch = 1] is exactly {!Poly_greedy.build};
    [batch >= m] decides every edge against the empty spanner).  Requires
    [batch >= 1].

    With [pool], the decision phase of each batch fans out over the
    pool's domains via {!Exec.parallel_for} with dynamic chunking (the
    partial spanner is read-only during a decision phase, so the LBC
    calls are data-race-free by construction; each worker decides with
    its own {!Poly_greedy.decider} and {!Lbc.Workspace}, created for this
    build via {!Exec.Worker_local} and reused across its batches).  Verdicts are written by index, so the
    selection is {b bit-identical} to the [pool]-less build with the same
    parameters, for every domain count and steal order — the tests assert
    this and the bench counter gate relies on it. *)
val build :
  ?order:Poly_greedy.order ->
  ?pool:Exec.Pool.t ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  batch:int ->
  Graph.t ->
  result
