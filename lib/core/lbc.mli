(** Algorithm 2 of the paper: the gap decision procedure [LBC(t, alpha)]
    for Length-Bounded Cut.

    Input: a graph, terminals [u, v], a hop bound [t] and a budget [alpha].
    A {e length-t-cut} is a set [F] of non-terminal vertices (VFT) or edges
    (EFT) whose removal leaves no [u]-[v] path of at most [t] hops.  The
    exact problem is NP-hard (Baier et al. 2006); the paper instead decides
    a gap version with the classic "frequency" Hitting-Set argument
    (Theorem 4):

    - if some length-t-cut of size [<= alpha] exists, the answer is [Yes];
    - if every length-t-cut has size [> alpha * t], the answer is [No];
    - in between, either answer may be returned.

    The procedure runs at most [alpha + 1] hop-bounded BFS rounds; each
    round either certifies [Yes] (no short path remains) or removes one
    short path wholesale.  Total cost [O((m + n) * alpha)].

    A [Yes] answer carries the accumulated removal set as a certificate:
    it is a genuine length-t-cut of size at most [alpha * (t-1)] in VFT
    mode ([alpha * t] in EFT mode), which is exactly the slack the greedy
    analysis absorbs (Lemma 6 uses cut size [<= (2k-1) f]). *)

module Workspace : sig
  (** Reusable scratch space (BFS arrays plus fault masks).  One workspace
      serves any number of sequential calls, growing as graphs grow.  A
      workspace must not be shared between concurrent calls: give each
      domain its own (as {!Batch_greedy.build} does with a pool). *)
  type t

  val create : unit -> t
end

type verdict =
  | Yes of { cut : int list }
      (** a length-t-cut: vertex ids (VFT) or edge ids (EFT) *)
  | No of { paths_seen : int }
      (** [alpha + 1] disjoint-ish short paths were consumed *)

val pp_verdict : Format.formatter -> verdict -> unit

(** [decide ?ws ?edge ?exclude ~mode g ~u ~v ~t ~alpha] runs Algorithm 2.
    Requirements: [u <> v], [t >= 1], [alpha >= 0].  The graph may lack
    the edge [{u,v}] (in the greedy it always does — the candidate edge
    is not yet added).

    [exclude] (default [[]]) lists edge ids of [g] the search must never
    traverse, in either mode — the verdict is then about [g] minus those
    edges.  {!Dynamic} uses it to probe "does the spanner still span
    [{u,v}] without edge [e]?" without materializing [g \ e]; excluded
    ids never appear in a [Yes] certificate.

    When [ws] is omitted a fresh workspace is created for the call, so
    workspace-less calls are reentrant and domain-safe; hot loops should
    still pass a reused [ws].  With one, a call allocates only a few
    words per BFS round plus its verdict: paths are blocked straight
    from the BFS parent arrays, and the certificate list is built only
    for a [Yes].

    Every call reports to the telemetry layer (unless {!Obs.set_enabled}
    is off): counters [lbc.calls], [lbc.yes], [lbc.no] and
    [lbc.bfs_rounds] (exact BFS invocations), plus histograms
    [lbc.rounds_per_call] and [lbc.cut_size].  While {!Obs_trace} is
    collecting, the call additionally emits an [Lbc_begin]/[Lbc_end]
    event pair; [edge] (default [-1]) labels those events with the
    caller's candidate-edge id in the {e source} graph — the decision
    itself never reads it. *)
val decide :
  ?ws:Workspace.t ->
  ?edge:int ->
  ?exclude:int list ->
  mode:Fault.mode ->
  Graph.t ->
  u:int ->
  v:int ->
  t:int ->
  alpha:int ->
  verdict
