(** Connected components (optionally under fault masks). *)

(** [labels ?blocked_vertices ?blocked_edges g] assigns each vertex a
    component label in [0 .. count-1]; blocked vertices get [-1].  Labels
    follow the lowest vertex of each component.  One {!Bfs.seeded}
    expansion per component on one workspace: [O(n + m)] time and [O(n)]
    scratch allocated once per call. *)
val labels :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  int array * int

(** [count g] is the number of connected components. *)
val count : Graph.t -> int

(** [is_connected g] tests global connectivity (vacuously true for
    [n <= 1]). *)
val is_connected : Graph.t -> bool
