(** Deterministic pseudo-random number generation.

    Every randomized component of the library (graph generators, the
    Dinitz-Krauthgamer reduction, network decompositions, fault samplers)
    threads an explicit [Rng.t] so that experiments are reproducible from a
    single integer seed.  The implementation wraps the standard library's
    splittable [Random.State] and adds the samplers the spanner algorithms
    need. *)

type t

(** [create ~seed] returns a generator determined entirely by [seed]. *)
val create : seed:int -> t

(** [split rng] returns a fresh generator whose stream is a deterministic
    function of [rng]'s current state, advancing [rng].  Use it to hand
    independent streams to sub-components without coupling their
    consumption patterns. *)
val split : t -> t

(** [int rng bound] draws uniformly from [0, bound-1].  [bound] must be
    positive. *)
val int : t -> int -> int

(** [float rng bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

(** [bool rng] draws a fair coin. *)
val bool : t -> bool

(** [bernoulli rng ~p] returns [true] with probability [p] (clamped to
    [0,1]). *)
val bernoulli : t -> p:float -> bool

(** [exponential rng ~rate] draws from the exponential distribution with the
    given rate (mean [1/rate]).  Used by random-shift decompositions. *)
val exponential : t -> rate:float -> float

(** [uniform_weight rng ~lo ~hi] draws a weight uniformly from [[lo, hi]]. *)
val uniform_weight : t -> lo:float -> hi:float -> float

(** [shuffle rng a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [permutation rng n] returns a uniformly random permutation of
    [0..n-1]. *)
val permutation : t -> int -> int array

(** [sample_without_replacement rng ~k ~n] returns [k] distinct values drawn
    uniformly from [0..n-1], in increasing order.  Requires [0 <= k <= n]. *)
val sample_without_replacement : t -> k:int -> n:int -> int list
