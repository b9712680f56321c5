(** Breadth-first search under fault masks.

    These routines power Algorithm 2 of the paper (the Length-Bounded Cut
    approximation), whose inner loop is "find a path of at most [t] hops
    from [u] to [v] avoiding the current fault set".  Fault sets are
    boolean masks indexed by vertex or edge id, so a BFS costs [O(m + n)]
    regardless of the mask.

    Two queue loops, both on a reusable {!Workspace.t} with stamp-based
    marks that are never cleared, so neither allocates once the
    workspace fits the graph: each expanded vertex is one {!Csr.iter}
    over the graph's [int32] adjacency.  {!search} is the point-to-point path of
    {!hop_bounded_path} and every LBC call; {!seeded} is the one level
    expansion from a seed set, behind {!ball}, {!distances},
    {!Components}, {!Girth}, {!Stats.diameter} and the dynamic repair.

    Counters: {!search}, {!ball} and {!distances} add one to
    [bfs.searches], the vertices they expand to [bfs.nodes_scanned] and
    the adjacency entries they read to [bfs.edges_scanned] ([search]
    also reads [dst]'s adjacency once; neither expands the last level).
    {!seeded} counts nothing; its callers count under their own layers. *)

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

  (** After a {!seeded} or {!ball}, [depth ws x] is [x]'s hop distance
      to the seeds if [x] was reached and [-1] otherwise, and
      [parent_edge ws x] the BFS tree edge that reached it ([-1] for a
      seed).  [reached ws i], for [i] below the count {!seeded}
      returned, is the [i]-th reached vertex in BFS order. *)
  val depth : t -> int -> int

  val reached : t -> int -> int
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

(** [seeded ws ?blocked_vertices ?blocked_edges g seeds ~max_hops] runs
    one BFS from all of [seeds] (depth 0, in list order; blocked and
    repeated seeds are skipped), expanding every vertex at depth
    [< max_hops], and returns the number of vertices reached.  Masks
    follow {!hop_bounded_path}. *)
val seeded :
  Workspace.t ->
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  int list ->
  max_hops:int ->
  int

(** [ball ws ~blocked_vertices ~blocked_edges g ~src ~max_hops] is
    {!seeded} from [src] alone plus the [bfs.*] accounting: afterwards
    {!Workspace.depth} is exact for every vertex at most [max_hops] hops
    from [src] and [-1] elsewhere.  It allocates nothing once [ws] fits
    [g]. *)
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
    hop distances from [src]; unreachable (or blocked) vertices get [-1].
    It is {!ball} to depth [n] on a workspace private to the calling
    domain. *)
val distances :
  ?blocked_vertices:bool array ->
  ?blocked_edges:bool array ->
  Graph.t ->
  int ->
  int array
