(** Girth of unweighted graphs.

    The size analysis of every greedy spanner rests on the Moore bound:
    a graph with girth greater than [2k] has at most [O(n^{1+1/k})] edges.
    The classic greedy (2k-1)-spanner has girth exceeding [2k] by
    construction — a property the test suite checks with this module. *)

(** [girth g] is the length of a shortest cycle of [g] (ignoring weights),
    or [None] if [g] is a forest.  Runs BFS ({!Bfs.seeded}) from every
    vertex, none on a forest: exact in [O(n * m)] time, with [O(n)]
    scratch allocated once per call, not per source. *)
val girth : Graph.t -> int option

(** [girth_exceeds g ~bound] is [true] iff [g] has no cycle of length
    [<= bound].  Faster than {!girth} when [bound] is small because each
    BFS is truncated at depth [bound/2 + 1].  Same scratch as {!girth}. *)
val girth_exceeds : Graph.t -> bound:int -> bool
