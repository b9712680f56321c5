(** The unified greedy engine.

    Every greedy spanner construction in this library — {!Classic_greedy},
    {!Poly_greedy}, {!Exp_greedy} — is the same loop with
    a different decision oracle: order the edges, judge each candidate
    against the partial spanner [H], commit the accepted ones.  This
    module owns that scaffolding (ordering, the decide→commit loop,
    selection bookkeeping, per-edge trace emission) so the variants reduce
    to their decision procedures and their own telemetry.

    The loop is batched: edges are decided in blocks of [batch] against a
    {e frozen} [H], then the accepted block members are committed together
    ([batch = 1] is the fully sequential greedy — each decision sees every
    earlier commit).  The decider for a block may fan out over the
    persistent domain pool via {!Exec.parallel_for}, as
    [Poly_greedy.build ?pool] does; [H] is read-only during a decision
    phase, so block decisions are data-race-free by construction, and
    deciders that record verdicts by index inherit {!Exec}'s determinism
    contract (bit-identical decisions at every domain count).

    The engine carries no counters of its own: each variant keeps its
    historical [Obs] series by incrementing them inside its decider /
    [on_add] hooks, which keeps metrics reports and the bench
    regression gate comparable across the refactor. *)

(** Edge processing order.  {!Poly_greedy.order} re-exports this type; see
    its documentation for which orders preserve which guarantees. *)
type order =
  | By_weight  (** nondecreasing weight — the classic greedy order *)
  | Input_order  (** edge-id (insertion) order *)
  | Reverse_weight  (** nonincreasing weight (ablation only) *)
  | Shuffled of Rng.t  (** uniformly random order (ablation) *)
  | Explicit of int array  (** a permutation of edge ids *)

(** The verdict a decider records for one candidate edge.  [Keep]'s [cut]
    is the decision certificate (the LBC fault set for {!Poly_greedy};
    [[]] when the oracle has none), passed through to [on_add]. *)
type decision = Keep of { cut : int list } | Skip

type decider = Graph.t -> Graph.edge array -> decision array -> int -> int -> unit
(** [decide h edges decisions lo hi] judges [edges.(lo..hi-1)] against the
    frozen partial spanner [h], recording verdicts in
    [decisions.(lo..hi-1)] (pre-filled with [Skip]).  [h] must not be
    mutated; writes to disjoint index ranges may run concurrently. *)

type result = {
  selection : Selection.t;  (** the kept edges, over the source graph *)
}

(** [ordered_edges ?caller order g] is the edge array of [g] arranged per
    [order].  [Explicit] must be a permutation of the edge ids; violations
    raise [Invalid_argument] prefixed with [caller] (default ["Engine"]). *)
val ordered_edges : ?caller:string -> order -> Graph.t -> Graph.edge array

(** [run ?order ?caller ?span ?batch ?on_add ?trace ~decide g]
    drives the greedy over [g]:

    - [order] (default [By_weight]) fixes the processing order;
    - [span] (default none) wraps the whole build in {!Obs.with_span};
    - [batch] (default [1]) is the decision block size;
    - [on_add e cut] runs for each kept edge, before it enters [H];
    - [trace] (default [true]) emits an {!Obs_trace.Greedy_edge} event per
      decided edge while tracing is on.

    Raises [Invalid_argument] (prefixed with [caller]) if [batch < 1] or
    the order is an invalid explicit permutation. *)
val run :
  ?order:order ->
  ?caller:string ->
  ?span:string ->
  ?batch:int ->
  ?on_add:(Graph.edge -> int list -> unit) ->
  ?trace:bool ->
  decide:decider ->
  Graph.t ->
  result
