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
    dropping to {!Poly_greedy} directly.

    - [order]: edge processing order for the greedy family ([None] = the
      algorithm's default, nondecreasing weight);
    - [batch]: decision block size ([1] = the fully sequential greedy);
    - [pool]: a persistent {!Exec.Pool.t} the per-batch decision phase
      fans out over.

    Without [shard], [Greedy_poly] passes [order]/[batch]/[pool] to
    {!Poly_greedy.build}, whose selection is bit-identical at every
    domain count for a fixed [batch] but grows with [batch] (the E12
    trade-off); the defaults are the sequential Algorithm 3/4.  [Dinitz_krauthgamer] always fans its iterations out over
    the [pool] (see {!Dk11.build}); its selection is the same at every
    pool size and without one.

    [shard = true] selects the decomposition-sharded construction for
    the greedy algorithms instead (the paper's Theorem 11 run natively —
    an O(log n) size factor for cluster-level parallelism): they route
    through {!Shard_build} (engine picked by [algorithm]), whose
    selection is bit-identical at every [pool] size, including no pool
    at all; [order]/[batch] are ignored under [shard].  [shard] does not
    affect [Dinitz_krauthgamer]. *)
type options = {
  order : Engine.order option;
  batch : int;
  pool : Exec.Pool.t option;
  shard : bool;
}

(** [options ?order ?batch ?pool ?shard ()] builds an options record from
    the defaults [{order = None; batch = 1; pool = None; shard = false}]
    — the sequential build.  Raises [Invalid_argument] if [batch < 1]. *)
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
    to [options ()] (the sequential build). *)
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
