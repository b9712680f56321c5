(** Simple paths extracted by the search routines.

    A path records both its vertex sequence and the ids of the edges it
    traverses; the greedy fault-tolerant spanner algorithms need both (the
    vertex version of Length-Bounded Cut blocks interior vertices, the edge
    version blocks edge ids). *)

type t = {
  vertices : int list;  (** [src; ...; dst], length [hops + 1] *)
  edges : int list;  (** edge ids in traversal order, length [hops] *)
}

(** [hops p] is the number of edges on [p]. *)
val hops : t -> int

(** [interior p] is the vertex list with both endpoints removed — exactly
    the vertices a length-bounded {e vertex} cut is allowed to delete. *)
val interior : t -> int list

(** [weight g p] is the total weight of [p]'s edges in graph [g]. *)
val weight : Graph.t -> t -> float

(** [is_valid g p] checks that consecutive vertices are joined by the listed
    edges of [g] and that the path is non-empty and self-consistent. *)
val is_valid : Graph.t -> t -> bool
