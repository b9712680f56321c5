(** Descriptive statistics over graphs, used by the experiment harness. *)

type t = {
  n : int;
  m : int;
  min_degree : int;
  max_degree : int;
  avg_degree : float;
  density : float;  (** m / C(n,2), 0 for n < 2 *)
  total_weight : float;
  components : int;
}

val compute : Graph.t -> t

(** [diameter g] is the largest finite hop eccentricity, [None] when [g] is
    edgeless or disconnected pairs dominate (we report the max over the
    largest component). *)
val diameter : Graph.t -> int

val pp : Format.formatter -> t -> unit
