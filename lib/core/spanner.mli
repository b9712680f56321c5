(** Facade: one entry point over every spanner construction in the library.

    Use this module when you just want a fault-tolerant spanner and a
    uniform way to compare algorithms; drop down to the per-algorithm
    modules ({!Poly_greedy}, {!Exp_greedy}, {!Dk11}, {!Baswana_sen},
    {!Classic_greedy}) for their specific options. *)

type algorithm =
  | Greedy_poly  (** Algorithms 3/4 — the paper's contribution (default) *)
  | Greedy_exponential  (** Algorithm 1 — BDPW18/BP19 baseline *)
  | Dinitz_krauthgamer  (** DK11 reduction over Baswana-Sen *)

val algorithm_name : algorithm -> string
val all_algorithms : algorithm list

type params = {
  k : int;  (** stretch parameter: the spanner has stretch [2k - 1] *)
  f : int;  (** number of faults tolerated *)
  mode : Fault.mode;
}

(** [stretch params] is [2k - 1] as a float. *)
val stretch : params -> float

(** Execution options, threaded through {!build} so every facade caller
    (CLI, bench, examples) reaches the batched/parallel greedy without
    dropping to {!Batch_greedy} directly.

    - [order]: edge processing order for the greedy family ([None] = the
      algorithm's default, nondecreasing weight);
    - [batch]: decision block size ([1] = the fully sequential greedy);
    - [pool]: a persistent {!Exec.Pool.t} the per-batch decision phase
      fans out over.

    Without [shard], only [Greedy_poly] consumes [batch]/[pool]:
    [batch > 1] or a [pool] routes the build through [Batch_greedy.build]
    (whose selection is bit-identical at every domain count for a fixed
    [batch], but grows with [batch] — the E12 trade-off); the defaults
    reproduce the historical [Poly_greedy.build] path exactly, telemetry
    included.  The randomized algorithms ignore the options.

    [shard = true] selects the decomposition-sharded construction
    instead (the paper's Theorem 11 run natively — an O(log n) size
    factor for cluster-level parallelism): the greedy algorithms route
    through {!Shard_build} (engine picked by [algorithm]), and
    [Dinitz_krauthgamer] routes through {!Dk11} with its iterations
    fanned out as [parallel_for] items.  Either way the
    selection is bit-identical at every [pool] size, including no pool
    at all; [order]/[batch] are ignored under [shard]. *)
type options = {
  order : Engine.order option;
  batch : int;
  pool : Exec.Pool.t option;
  shard : bool;
}

(** [default_options] is
    [{order = None; batch = 1; pool = None; shard = false}] — the
    sequential build. *)
val default_options : options

(** [options ?order ?batch ?pool ?shard ()] builds an options record from
    the defaults.  Raises [Invalid_argument] if [batch < 1]. *)
val options :
  ?order:Engine.order ->
  ?batch:int ->
  ?pool:Exec.Pool.t ->
  ?shard:bool ->
  unit ->
  options

(** [build ?rng ?algorithm ?options params g] constructs an
    f-fault-tolerant (2k-1)-spanner of [g].  [rng] is required only by
    randomized algorithms (defaults to a fixed seed); [options] defaults
    to {!default_options} (the sequential build). *)
val build :
  ?rng:Rng.t ->
  ?algorithm:algorithm ->
  ?options:options ->
  params ->
  Graph.t ->
  Selection.t

type summary = {
  algorithm : string;
  params : params;
  n : int;
  m_source : int;
  m_spanner : int;
  weight_source : float;
  weight_spanner : float;
  bound_ratio : float;
      (** spanner size divided by the paper's size bound for that
          algorithm — flat across [n] when the shape matches *)
}

(** [summarize ~algorithm params sel] computes the comparison record the
    experiment tables print. *)
val summarize : algorithm:algorithm -> params -> Selection.t -> summary

val pp_summary : Format.formatter -> summary -> unit
