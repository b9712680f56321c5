(** Dynamic fault-tolerant spanner service: arbitrary-order updates,
    deletion repair, and a concurrent batched query plane.

    Insertion-only maintenance exploits that Theorem 8's size bound is
    order-free and that a NO verdict of Algorithm 2 is monotone under
    edge additions — but it only ever {e grows}.  This module is the
    full service shape:
    a {!t} handle absorbs edge insertions in {e any} order, edge and
    vertex {e deletions} with targeted local repair, and answers batches
    of fault-masked distance queries [d_{H\F}(u,v)] between update
    batches, fanned out over an {!Exec.Pool.t}.

    {2 Maintenance invariant}

    The handle maintains the modified-greedy invariant over the live
    graph [G] and spanner [H ⊆ G]: every live non-spanner edge [{a,b}]
    has received a NO verdict from [Lbc.decide] against some subgraph of
    the {e current} [H] (so [H \ F] keeps a [≤ 2k-1]-hop [a]-[b] detour
    for every fault set [F] of size [≤ f] — Theorem 5's argument).

    - {e Insert}: decide the new edge against [H]; YES keeps it.
      Rejections elsewhere stay valid (NO is monotone under additions).
    - {e Delete}: removing a {e non}-spanner edge only removes
      constraints.  Removing a spanner edge [{u,v}] can invalidate NO
      verdicts — but only of edges with an endpoint within [2k-1] hops
      of [u] or [v] in the {e old} [H] (any lost detour passed through
      [{u,v}]).  Repair therefore walks that neighborhood (its size is
      the [dynamic.repair.touched_vertices] counter — the locality
      measure), re-decides exactly the live non-spanner edges anchored
      there in nondecreasing weight order, and re-admits on YES.  No
      full rebuild happens, ever.
    - {e Shed}: after repair, spanner edges anchored in the repaired
      region are probed with [Lbc.decide ~exclude:e] — a NO means
      [H \ e] already spans the edge's endpoints [alpha+1] ways over, so
      [e] is redundant and is dropped (heaviest first, one pass, no
      cascade); a final add-only re-check over the shed neighborhoods
      restores the invariant.  The pass promises validity, not size:
      that re-check may re-admit more edges than were shed.

    {2 Weights}

    On unit-weight graphs the maintained [H] carries the full
    (2k-1)-stretch guarantee for any op sequence.  With general weights
    the guarantee additionally needs nondecreasing insertion weights
    (Theorem 10); out-of-order weighted insertions keep [H] a valid
    {e hop}-spanner but the weighted stretch may exceed [2k-1] —
    {!weight_monotone} reports which regime the handle is in.

    {2 Epochs and queries}

    Every mutating {!apply} bumps the handle's epoch.  {!query_batch}
    captures one immutable snapshot (the live graph plus the kept-edge
    mask) before fanning out, so a batch never observes a half-applied
    update; results land by query index, making the answers bit-identical
    at every pool size.  Re-entrant calls ({!apply} inside {!apply}, or
    {!query_batch} during {!apply}) are rejected. *)

type t

(** One update operation.  Vertices are the seed graph's [0..n-1] and
    stay fixed: [Delete_vertex] retires a vertex (with every live edge
    on it) permanently. *)
type op =
  | Insert of { u : int; v : int; w : float }
  | Delete_edge of { u : int; v : int }
  | Delete_vertex of int

(** Handle options; {!opts} is the only way to build them, so every
    value is validated. *)
type opts = private {
  mode : Fault.mode;
  k : int;  (** stretch parameter: the spanner has stretch [2k-1] *)
  f : int;  (** faults tolerated *)
  pool : Exec.Pool.t option;
      (** query-plane executor; [None] answers batches sequentially *)
}

(** [opts ?mode ?k ?f ?pool ()] builds options; the defaults are
    [{mode = VFT; k = 2; f = 1; pool = None}].  Raises [Invalid_argument] if [k < 1] or [f < 0]. *)
val opts :
  ?mode:Fault.mode ->
  ?k:int ->
  ?f:int ->
  ?pool:Exec.Pool.t ->
  unit ->
  opts

(** [create ?opts g] starts a handle over the vertices of [g], seeded
    by one sequential [Poly_greedy.build ~mode ~k ~f g] (the default
    [By_weight] order, no batching, no pool).  The handle records [g]'s
    edges in [g]'s id order with that build's verdicts, so
    [snapshot (create g)] has the same edge ids as [g] and a
    [selected] array bit-identical to [Poly_greedy.build]'s, for every
    [g].  [g] itself is not retained or mutated. *)
val create : ?opts:opts -> Graph.t -> t

(** Per-{!apply} accounting.  [touched_vertices] is the total size of
    the repair neighborhoods this batch walked — the locality measure
    (compare it to {!n}). *)
type stats = {
  inserted : int;  (** [Insert] ops applied *)
  kept : int;  (** inserts admitted into the spanner *)
  deleted_edges : int;  (** live edges removed (incident ones included) *)
  deleted_vertices : int;
  touched_vertices : int;  (** repair-neighborhood vertices visited *)
  rechecked : int;  (** candidate edges re-decided during repair *)
  readded : int;  (** candidates re-admitted on YES *)
  shed : int;  (** spanner edges dropped as redundant *)
  epoch : int;  (** handle epoch after this batch *)
}

val pp_stats : Format.formatter -> stats -> unit

(** [apply t ops] applies the operations in order (consecutive deletions
    coalesce into one repair) and returns the batch accounting.  Raises
    [Invalid_argument] on out-of-range or retired vertices, self-loops,
    duplicate live edges, weights that fail {!Graph.valid_weight},
    deleting an absent edge,
    or re-entrant use. *)
val apply : t -> op list -> stats

type query_result = {
  qu : int;
  qv : int;
  distance : float;  (** [d_{H\F}(qu,qv)]; [infinity] when disconnected *)
  hops : int;  (** hop count of the answering path; [-1] when disconnected *)
}

val pp_query_result : Format.formatter -> query_result -> unit

(** [query_batch t ~faults pairs] answers [d_{H\F}(u,v)] for every pair
    against one immutable snapshot of the current epoch, in parallel on
    [opts.pool] when given.  [faults] uses {!snapshot}[ t]'s source
    graph for edge ids (EFT); a faulted or retired endpoint answers as
    disconnected.  Each query's latency feeds the
    [dynamic.query_latency] log-linear histogram.  Raises
    [Invalid_argument] on out-of-range endpoints or re-entrant use. *)
val query_batch : t -> faults:Fault.t -> (int * int) array -> query_result array

(** [snapshot t] materializes the current epoch: the live graph (the
    seed's edges in [g]'s id order, then insertions in arrival order,
    skipping the deleted ones — so a given op history always yields the
    same ids) with the spanner as its selection.  Cached per epoch. *)
val snapshot : t -> Selection.t

(** {1 Accessors} *)

val n : t -> int

(** [size t] is the number of spanner edges; [live_edges t] the number
    of live source edges. *)
val size : t -> int

val live_edges : t -> int

(** [epoch t] starts at [0] and increments on every mutating
    {!apply}. *)
val epoch : t -> int

(** [weight_monotone t] is [true] while every insertion so far arrived
    in nondecreasing weight order (the weighted-stretch regime —
    Theorem 10). *)
val weight_monotone : t -> bool
