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

(** [diameter g] is the largest finite hop distance between two vertices
    of [g]: [0] when [g] is edgeless, the largest component diameter when
    it is disconnected.  One {!Bfs.ball} per vertex on a single workspace:
    [O(n * m)] time, [O(n)] scratch per call. *)
val diameter : Graph.t -> int

val pp : Format.formatter -> t -> unit
