(** Fault-tolerant spanner verification.

    Checking Definition 1 directly quantifies over every fault set and
    every vertex pair.  Lemma 3 of the paper cuts the pair quantifier down
    to {e edges} of the source graph: [H] is an f-FT t-spanner iff for
    every fault set [F] and every surviving edge [{u,v}] of [G],
    [d_{H\F}(u,v) <= t * d_{G\F}(u,v)].  (The lemma states it for edges
    that are shortest paths; checking all surviving edges is equivalent
    and simpler.)  The check is therefore edge-local: a surviving edge
    [{u,v}] only asks whether [d_{H\F}(u,v) <= t * w(u,v)], a question
    about the ball of radius [t * w(u,v)] around [u].  The batteries
    evaluate a fault set source by source (surviving sources in index
    order, their edges to higher-numbered surviving neighbours in
    adjacency order).  The {e candidates} of a source are the edges H
    drops (every surviving edge when [t < 1]): a kept surviving edge has
    [d_{H\F} <= w], so it cannot break the bound.  One search in [H\F]
    from the source, bounded by the largest candidate's [t * w], decides
    them all: a hop ball on a unit-weight graph, a Dijkstra cut off at
    that radius otherwise.  [G\F] is searched only for a candidate that
    fails, to see whether the edge realizes the faulted distance: on a
    unit-weight graph that distance is 1 and needs no search, otherwise
    one search cut off at [w(u,v)].  A reported violation also pays for
    one unbounded search, to fill in [d_spanner].  A fault set
    therefore costs one bounded search per source with a candidate,
    against two full searches per source for a sweep that computes both
    distances everywhere.  The hop balls share one workspace per fault
    evaluation and allocate nothing per source.  Every distance the
    bounds admit is the full search's, bit for bit (float addition of
    positive lengths is monotone), so reports are exactly those of a
    sweep over all sources.  {!max_stretch_under_fault} needs the exact
    ratio on every surviving edge, so it keeps one unbounded search in
    [H\F] per source; it searches [G\F] only on weighted graphs, cut
    off at the source's heaviest surviving edge.

    The fault-set quantifier is genuinely exponential; the module offers
    - {!exhaustive}: all fault sets up to size [f] (small inputs —
      it refuses absurd instance sizes);
    - {!random}: uniform fault sets, plus
    - {!adversarial}: fault sets packed around a single edge's
      neighborhood, which is what actually breaks non-fault-tolerant
      spanners in practice.

    Every battery reads its tunables — pool, trial count, sampling rng,
    exhaustive cap — from one {!config} record (the builder's defaults
    cover the common case).

    Fault batteries are embarrassingly parallel — one fault's evaluation
    touches only its own masks and search scratch over the read-only
    source graph — so the samplers and {!stretch_many}
    accept a [config.pool] ({!Exec.Pool.t}) to fan the sweep out over
    domains.  With or without a pool, a sampled battery is one path: it
    draws all [trials] faults from the rng in sample order, evaluates
    them by index, and reports the first violation in sample order, so
    every figure is identical at every domain count.  A battery
    therefore evaluates {e every} sampled fault even when an early one
    already violates ([checked] still counts to the first violation).
    {!exhaustive} alone streams its fault sets and stops at the first
    violation, because up to [max_sets] of them cannot be pre-drawn. *)

type violation = {
  fault : Fault.t;
  u : int;
  v : int;
  d_source : float;  (** distance in G \ F *)
  d_spanner : float;  (** distance in H \ F *)
}

val pp_violation : Format.formatter -> violation -> unit

type report = {
  checked : int;  (** number of fault sets examined *)
  violation : violation option;  (** first violation found, if any *)
}

(** [ok report] is [true] when no violation was found. *)
val ok : report -> bool

(** {1 Configuration}

    Every battery takes one {!config} instead of a spread of labelled
    optional arguments.  Build it with the {!config} builder and override
    what the call site cares about. *)

type config = {
  pool : Exec.Pool.t option;
      (** fan fault evaluations out over this pool; [None] = sequential *)
  trials : int;  (** sampled fault sets per battery (default 200) *)
  rng : Rng.t option;
      (** explicit sampling stream, shared across successive batteries —
          the CLI threads one through adversarial, then random, then the
          profile, so the chain's figures are a function of one seed;
          [None] gives each battery a fresh stream from a fixed seed *)
  max_sets : float;
      (** refusal cap for {!exhaustive} (default [2e6]) *)
}

(** [config ?pool ?trials ?rng ?max_sets ()] builds a config from the
    defaults [{pool = None; trials = 200; rng = None; max_sets = 2e6}].  Raises [Invalid_argument] if [trials < 1] or
    [max_sets <= 0]. *)
val config :
  ?pool:Exec.Pool.t ->
  ?trials:int ->
  ?rng:Rng.t ->
  ?max_sets:float ->
  unit ->
  config

(** [exhaustive ?cfg sel ~mode ~stretch ~f] enumerates every fault set of
    size [<= f].  Raises [Invalid_argument] if there are more than
    [cfg.max_sets] of them. *)
val exhaustive :
  ?cfg:config -> Selection.t -> mode:Fault.mode -> stretch:float -> f:int -> report

(** [random ?cfg sel ~mode ~stretch ~f] samples [cfg.trials] uniform
    fault sets. *)
val random :
  ?cfg:config -> Selection.t -> mode:Fault.mode -> stretch:float -> f:int -> report

(** [adversarial ?cfg sel ~mode ~stretch ~f] samples [cfg.trials] fault
    sets concentrated around random edges (see
    {!Fault.random_adversarial}). *)
val adversarial :
  ?cfg:config -> Selection.t -> mode:Fault.mode -> stretch:float -> f:int -> report

(** Aggregate stretch statistics over sampled fault sets. *)
type profile = {
  samples : int;  (** fault sets measured *)
  mean : float;  (** mean of the per-fault worst stretch *)
  p95 : float;  (** 95th percentile of the per-fault worst stretch *)
  worst : float;  (** overall worst stretch observed *)
  disconnections : int;  (** fault sets under which some surviving pair was
                             disconnected in the spanner but not in the
                             source graph *)
}

val pp_profile : Format.formatter -> profile -> unit

(** [profile ?cfg sel ~mode ~f] samples [cfg.trials] fault sets
    (alternating uniform and adversarial) and aggregates
    {!max_stretch_under_fault} over them — the empirical counterpart of
    the worst-case stretch guarantee. *)
val profile : ?cfg:config -> Selection.t -> mode:Fault.mode -> f:int -> profile

(** [max_stretch_under_fault sel fault] measures the worst ratio
    [d_{H\F}(u,v) / d_{G\F}(u,v)] over surviving source edges [{u,v}]
    (1.0 when every surviving edge is kept; [infinity] if some pair is
    disconnected in [H\F] but connected in [G\F]). *)
val max_stretch_under_fault : Selection.t -> Fault.t -> float

(** [stretch_many ?cfg sel faults] is
    [Array.map (max_stretch_under_fault sel) faults], fanned out over
    [cfg.pool] when given — the bulk battery behind
    [ftspan verify --jobs] and the fault-injection example.
    [faults.(i)]'s stretch lands at index [i], so the result is
    independent of the domain count. *)
val stretch_many : ?cfg:config -> Selection.t -> Fault.t array -> float array
