(** Weighted shortest paths under fault masks — the one lazy-deletion
    Dijkstra loop of the library.

    The single-source entry points serve the classic (non-fault-tolerant)
    greedy spanner, the exponential-time greedy baseline, the verifier and
    the dynamic service's queries, all of which need weighted distances in
    a graph with some vertices/edges removed.  {!seeded} exposes the same
    loop with several seeds, arbitrary edge lengths, an admission bound and
    an improvement hook: Thorup–Zwick's level distances and cluster growth,
    the distance oracle's pivots and {!Shard_partition}'s random-shift
    clustering all run through it.

    Masks follow {!Bfs.blocked}: a blocked vertex is never entered
    (a blocked seed or source is dropped) and a blocked edge is never
    relaxed.

    Counters: each single-source call ({!distances}, {!distance_upto},
    {!shortest_path}) adds one to [dijkstra.runs], its settled vertices to
    [dijkstra.nodes_settled] and the adjacency entries it scans to
    [dijkstra.edges_relaxed].  {!seeded} counts nothing; its callers'
    work shows up under their own layers. *)

(** [seeded ?blocked_vertices ?blocked_edges ?admit ?on_improve ?length g
    seeds] returns, for every vertex [v], the least [key + len(P)] over the
    pairs [(s, key)] of [seeds] and the paths [P] from [s] to [v] whose
    edges [id] have length [length id] (default: the edge's weight)
    ([infinity] when there is none).  Lengths must be positive.

    - [admit y d] (default: always) is the admission bound: [y] takes the
      tentative key [d] only if it holds, so vertices it rejects on every
      path stay at [infinity].  Seeds are not subject to it.
    - [on_improve y x id] (default: nothing) fires each time [y]'s key
      strictly improves through edge [id] from the settled vertex [x], in
      the order the improvements happen; it does not fire for seeds.  The
      last call for [y] names its parent in a shortest-path forest rooted
      at the seeds, through a tight edge.

    {b Tie contract.}  Seeds are pushed in list order (a repeated seed
    keeps its smallest key), a settled vertex scans its neighbours newest
    first ({!Csr.iter}), and a key moves only on strict improvement.  The
    heap therefore sees the same pushes and pops as any loop following
    these rules, so forests, hooks and equal-key choices are reproducible
    across runs and callers. *)
val seeded :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  ?admit:(int -> float -> bool) ->
  ?on_improve:(int -> int -> int -> unit) ->
  ?length:(int -> float) ->
  Graph.t ->
  (int * float) list ->
  float array

(** [distances ?blocked_vertices ?blocked_edges ?cutoff g src] returns
    weighted distances from [src]; unreachable (or blocked) vertices get
    [infinity].  With [cutoff], vertices are admitted only at keys
    [<= cutoff] (the admission bound of {!seeded}): every vertex at
    distance [<= cutoff] still gets its exact distance, bit for bit, and
    every other one gets [infinity]. *)
val distances :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  ?cutoff:float ->
  Graph.t ->
  int ->
  float array

(** [distance_upto ?blocked_vertices ?blocked_edges g ~src ~dst ~cutoff]
    returns [Some d] if the shortest-path distance [d] from [src] to [dst]
    satisfies [d <= cutoff], and [None] otherwise.  Vertices beyond
    [cutoff] are never admitted and the search stops once [dst] settles,
    which makes the greedy spanner's "is this edge already spanned?" test
    cheap on sparse partial spanners. *)
val distance_upto :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  src:int ->
  dst:int ->
  cutoff:float ->
  float option

(** [shortest_path ?blocked_vertices ?blocked_edges g ~src ~dst] returns a
    lowest-weight path, if one exists. *)
val shortest_path :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  src:int ->
  dst:int ->
  Path.t option
