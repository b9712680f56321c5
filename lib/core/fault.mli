(** Fault model: vertex faults (VFT) and edge faults (EFT).

    A fault set is a set of at most [f] vertices, or at most [f] edges, that
    an adversary deletes.  Every construction and checker in this library is
    parameterized by the {!mode}; the paper proves its results for vertex
    faults and notes the edge-fault case is essentially identical
    (Definition 1), which is mirrored here by a single code path branching
    only where the two models genuinely differ. *)

type mode = VFT  (** vertex faults *) | EFT  (** edge faults *)

type t = {
  mode : mode;
  members : int list;  (** vertex ids (VFT) or edge ids (EFT), distinct *)
}

val pp_mode : Format.formatter -> mode -> unit
val pp : Format.formatter -> t -> unit

(** [empty mode] is the fault-free set — handy for [f = 0] checks. *)
val empty : mode -> t

(** [of_vertices vs] / [of_edges es] build fault sets (deduplicating). *)
val of_vertices : int list -> t

val of_edges : int list -> t

(** [masks g fault] renders the fault set as the pair
    [(blocked_vertices, blocked_edges)] expected by the search routines:
    exactly one of the two is [Some]. *)
val masks : Graph.t -> t -> bool array option * bool array option

(** {1 Sampling and enumeration} *)

(** [random rng mode g ~f] draws a uniformly random fault set of size
    [min f (universe size)]; in VFT mode the universe is all vertices, in
    EFT mode all edge ids. *)
val random : Rng.t -> mode -> Graph.t -> f:int -> t

(** [random_adversarial rng mode g ~f] draws a fault set biased toward
    breaking spanners: it picks a random edge [{u,v}] of [g] and samples
    faults from the joint neighborhood of [u] and [v] (VFT) or from their
    incident edges (EFT).  Random uniform faults almost never hit all short
    detours at realistic sizes; this sampler does. *)
val random_adversarial : Rng.t -> mode -> Graph.t -> f:int -> t

(** [enumerate mode g ~f fn] applies [fn] to every fault set of size at most
    [f] (including the empty set).  Exponential: intended for exhaustive
    verification on small instances. *)
val enumerate : mode -> Graph.t -> f:int -> (t -> unit) -> unit

(** [count_subsets ~universe ~f] is [sum_{i<=f} C(universe, i)] as a float —
    used to refuse absurd exhaustive checks. *)
val count_subsets : universe:int -> f:int -> float
