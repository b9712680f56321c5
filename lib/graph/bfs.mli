(** Breadth-first search under fault masks.

    These routines power Algorithm 2 of the paper (the Length-Bounded Cut
    approximation), whose inner loop is "find a path of at most [t] hops
    from [u] to [v] avoiding the current fault set".  Fault sets are
    represented as boolean masks indexed by vertex or edge id, so a single
    BFS costs [O(m + n)] regardless of the mask.

    The hop-bounded search accepts a reusable {!Workspace.t}: the greedy
    spanner algorithm performs [Theta(m * f)] searches, and reusing scratch
    arrays (with stamp-based visited marks, so nothing is cleared between
    calls) keeps each search allocation-free.

    Counters: every search adds one to [bfs.searches], its dequeued
    vertices to [bfs.nodes_scanned] and the adjacency entries it reads to
    [bfs.edges_scanned].  A hop-bounded search reads [dst]'s adjacency
    once up front and never expands the last level, so vertices at depth
    [max_hops] are neither dequeued nor counted. *)

(** [blocked mask i] is the fault-mask rule every masked traversal
    ({!Bfs}, {!Dijkstra}, {!Hop_dp}, {!Components}) reads: [i] is
    blocked iff [i < Array.length mask] and [mask.(i)].  A mask may be
    shorter than the id range (later ids are open) or longer (extra
    entries are never read); [[||]] blocks nothing. *)
val blocked : bool array -> int -> bool

module Workspace : sig
  type t

  (** [create ()] allocates an empty workspace; it grows lazily to fit the
      largest graph it is used with.  A workspace must not be shared
      between concurrent searches. *)
  val create : unit -> t

  (** After a successful {!search}, [parent ws x] is the predecessor of
      [x] on the found path and [parent_edge ws x] the id of the edge
      between them, for every path vertex [x] other than [src]: climbing
      from [dst] walks the path back to [src]. *)
  val parent : t -> int -> int

  val parent_edge : t -> int -> int

  (** After a {!ball}, [depth ws x] is [x]'s hop distance from [src] if
      [x] lies in the ball, and [-1] otherwise. *)
  val depth : t -> int -> int
end

(** [search ws ~blocked_vertices ~blocked_edges g ~src ~dst ~max_hops] is
    the allocation-free core of {!hop_bounded_path}: [true] iff a path of
    at most [max_hops] hops exists, in which case it is left in [ws] for
    {!Workspace.parent} to climb.  The masks follow the
    {!hop_bounded_path} conventions; pass [[||]] for "no mask". *)
val search :
  Workspace.t ->
  blocked_vertices:bool array ->
  blocked_edges:bool array ->
  Graph.t ->
  src:int ->
  dst:int ->
  max_hops:int ->
  bool

(** [ball ws ~blocked_vertices ~blocked_edges g ~src ~max_hops] runs a
    BFS from [src] that never expands the last level: afterwards
    {!Workspace.depth} gives the exact hop distance of every vertex at
    most [max_hops] hops from [src] and [-1] for every other one (for
    all of them if [src] is blocked).  Like {!search} it allocates
    nothing once [ws] fits [g], and only the vertices it expands count
    under [bfs.nodes_scanned].  The masks follow {!search}. *)
val ball :
  Workspace.t ->
  blocked_vertices:bool array ->
  blocked_edges:bool array ->
  Graph.t ->
  src:int ->
  max_hops:int ->
  unit

(** [hop_bounded_path ?ws ?blocked_vertices ?blocked_edges g ~src ~dst
    ~max_hops] returns a path from [src] to [dst] with a minimum number of
    hops, provided that minimum is at most [max_hops]; [None] otherwise.

    A vertex [x] with [blocked_vertices.(x) = true] is never visited (if
    [src] or [dst] is blocked the result is [None]); an edge [id] with
    [blocked_edges.(id) = true] is never traversed.  Masks may be longer
    than [n g] / [m g]; extra entries are ignored.

    Without [ws] the search uses a workspace private to the calling
    domain, so workspace-less calls from several domains do not race. *)
val hop_bounded_path :
  ?ws:Workspace.t ->
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  src:int ->
  dst:int ->
  max_hops:int ->
  Path.t option

(** [distances ?blocked_vertices ?blocked_edges g src] returns the array of
    hop distances from [src]; unreachable (or blocked) vertices get [-1]. *)
val distances :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  int ->
  int array

(** [eccentricity g u] is the largest hop distance from [u] to any vertex
    reachable from [u]. *)
val eccentricity : Graph.t -> int -> int
