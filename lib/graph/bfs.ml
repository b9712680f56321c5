(* The one reading of a fault mask, shared by every masked traversal in
   the library; the hot loops below call it within this module, where it
   is a direct call.  Traversals resolve an absent mask to [[||]] once,
   so the per-edge test never matches an option. *)
let blocked mask i = i < Array.length mask && mask.(i)

module Workspace = struct
  type t = {
    mutable seen : int array;  (* stamp marking, never cleared *)
    (* [search] only, sized on its first use ([with_near]) *)
    mutable near : int array;  (* stamp: unblocked neighbour of [dst] *)
    mutable near_edge : int array;  (* ... and the edge that reaches it *)
    mutable parent_edge : int array;
    mutable parent_vertex : int array;
    mutable depth : int array;
    mutable queue : int array;
    mutable stamp : int;
    (* Per-search state read by the two scan callbacks below, which are
       built once per workspace rather than once per search. *)
    mutable bv : bool array;
    mutable be : bool array;
    mutable cur : int;  (* vertex whose adjacency is being scanned *)
    mutable tail : int;
    visit : int -> int -> unit;
    mark_near : int -> int -> unit;
  }

  (* [mark_near]: graphs are simple, so each neighbour has one edge to
     [dst]; keeping the first unblocked one in scan order would still
     match the full scan if they were not (both adjacency lists run
     newest-first). *)
  let create () =
    let rec ws =
      {
        seen = [||];
        near = [||];
        near_edge = [||];
        parent_edge = [||];
        parent_vertex = [||];
        depth = [||];
        queue = [||];
        stamp = 0;
        bv = [||];
        be = [||];
        cur = 0;
        tail = 0;
        visit =
          (fun y id ->
            if
              ws.seen.(y) <> ws.stamp
              && (not (blocked ws.be id))
              && not (blocked ws.bv y)
            then begin
              ws.seen.(y) <- ws.stamp;
              ws.depth.(y) <- ws.depth.(ws.cur) + 1;
              ws.parent_edge.(y) <- id;
              ws.parent_vertex.(y) <- ws.cur;
              ws.queue.(ws.tail) <- y;
              ws.tail <- ws.tail + 1
            end);
        mark_near =
          (fun y id ->
            if
              ws.near.(y) <> ws.stamp
              && (not (blocked ws.be id))
              && not (blocked ws.bv y)
            then begin
              ws.near.(y) <- ws.stamp;
              ws.near_edge.(y) <- id
            end);
      }
    in
    ws

  (* Growing restarts the stamps, so it drops [near] as well: its stale
     stamps could match the new ones. *)
  let ensure ws n =
    if Array.length ws.seen < n then begin
      let cap = max n (2 * Array.length ws.seen) in
      ws.seen <- Array.make cap 0;
      ws.near <- [||];
      ws.near_edge <- [||];
      ws.parent_edge <- Array.make cap (-1);
      ws.parent_vertex <- Array.make cap (-1);
      ws.depth <- Array.make cap 0;
      ws.queue <- Array.make cap 0;
      ws.stamp <- 0
    end

  let with_near ws =
    let cap = Array.length ws.seen in
    if Array.length ws.near < cap then begin
      ws.near <- Array.make cap 0;
      ws.near_edge <- Array.make cap (-1)
    end

  let parent ws x = ws.parent_vertex.(x)
  let parent_edge ws x = ws.parent_edge.(x)
  let depth ws x = if ws.seen.(x) = ws.stamp then ws.depth.(x) else -1
  let reached ws i = ws.queue.(i)
end

(* Work counters flushed once per traversal: the loops below accumulate
   into locals, so the per-edge cost of instrumentation is nil. *)
let m_searches = Obs.counter "bfs.searches"
let m_nodes = Obs.counter "bfs.nodes_scanned"
let m_edges = Obs.counter "bfs.edges_scanned"

(* Every traversal starts on a fresh stamp, then stamps its seeds at
   depth 0; a blocked or already stamped seed is skipped.  The single
   source path stays allocation-free this way. *)
let restart ws g =
  let open Workspace in
  ensure ws (Graph.n g);
  ws.stamp <- ws.stamp + 1;
  ws.tail <- 0

let add_seed ws blocked_vertices x =
  let open Workspace in
  if ws.seen.(x) <> ws.stamp && not (blocked blocked_vertices x) then begin
    ws.seen.(x) <- ws.stamp;
    ws.depth.(x) <- 0;
    ws.parent_edge.(x) <- -1;
    ws.queue.(ws.tail) <- x;
    ws.tail <- ws.tail + 1
  end

(* Hop-bounded BFS from [src], stopping as soon as [dst] is reached.

   The last level is never expanded.  [dst]'s unblocked neighbours are
   stamped first; a dequeued vertex carrying the stamp ends the search,
   with [dst]'s parent set to it.  Only vertices at depth < max_hops-1
   have their adjacency scanned, so no depth-[max_hops] leaf is ever
   enqueued.  The full scan also stops at the first dequeued vertex
   adjacent to [dst], and the queue order is the same, so the BFS tree
   (and hence the extracted path) is identical to the one it builds.

   This is the hot path of every LBC call and hence of the whole greedy
   pipeline.  It allocates nothing: each expanded vertex is one
   [Csr.iter] (append-buffer chain first, then the packed slice, newest
   first), and the per-edge callbacks are the workspace's, built once. *)
let search ws ~blocked_vertices ~blocked_edges g ~src ~dst ~max_hops =
  let open Workspace in
  restart ws g;
  let stamp = ws.stamp in
  Obs.Counter.incr m_searches;
  if blocked blocked_vertices src || blocked blocked_vertices dst then false
  else if src = dst then true
  else if max_hops < 1 then false
  else begin
    let adj = Graph.adjacency g in
    with_near ws;
    ws.bv <- blocked_vertices;
    ws.be <- blocked_edges;
    Csr.iter adj dst ws.mark_near;
    let scanned = ref (Csr.degree adj dst) in
    add_seed ws blocked_vertices src;
    let head = ref 0 in
    let found = ref false in
    while (not !found) && !head < ws.tail do
      let x = ws.queue.(!head) in
      incr head;
      if ws.near.(x) = stamp then begin
        ws.parent_vertex.(dst) <- x;
        ws.parent_edge.(dst) <- ws.near_edge.(x);
        found := true
      end
      else if ws.depth.(x) < max_hops - 1 then begin
        ws.cur <- x;
        scanned := !scanned + Csr.degree adj x;
        Csr.iter adj x ws.visit
      end
    done;
    (* A per-domain workspace outlives the call: do not pin its masks. *)
    ws.bv <- [||];
    ws.be <- [||];
    Obs.Counter.add m_nodes !head;
    Obs.Counter.add m_edges !scanned;
    !found
  end

(* The one level expansion behind [seeded] and [ball]: it pops the queue
   [restart] and [add_seed] filled, expanding every vertex at depth
   < [max_hops].  Depths are nondecreasing along the queue, so the first
   vertex at depth [max_hops] ends it and nothing beyond is stamped; the
   prefix [0, tail) is the reached set in BFS order.  [~count] books the
   expanded vertices and the entries they read under [bfs.*]. *)
let expand ws ~blocked_vertices ~blocked_edges g ~max_hops ~count =
  let open Workspace in
  if ws.tail > 0 then begin
    let adj = Graph.adjacency g in
    ws.bv <- blocked_vertices;
    ws.be <- blocked_edges;
    let head = ref 0 and scanned = ref 0 in
    while !head < ws.tail && ws.depth.(ws.queue.(!head)) < max_hops do
      let x = ws.queue.(!head) in
      incr head;
      ws.cur <- x;
      scanned := !scanned + Csr.degree adj x;
      Csr.iter adj x ws.visit
    done;
    ws.bv <- [||];
    ws.be <- [||];
    if count then begin
      Obs.Counter.add m_nodes !head;
      Obs.Counter.add m_edges !scanned
    end
  end;
  ws.tail

let seeded ws ?(blocked_vertices = [||]) ?(blocked_edges = [||]) g seeds
    ~max_hops =
  restart ws g;
  List.iter (add_seed ws blocked_vertices) seeds;
  expand ws ~blocked_vertices ~blocked_edges g ~max_hops ~count:false

let ball ws ~blocked_vertices ~blocked_edges g ~src ~max_hops =
  Obs.Counter.incr m_searches;
  restart ws g;
  add_seed ws blocked_vertices src;
  ignore (expand ws ~blocked_vertices ~blocked_edges g ~max_hops ~count:true)

let extract_path ws ~src ~dst =
  if src = dst then { Path.vertices = [ src ]; edges = [] }
  else begin
    let rec climb x vertices edges =
      if x = src then { Path.vertices = src :: vertices; edges }
      else
        climb (Workspace.parent ws x) (x :: vertices)
          (Workspace.parent_edge ws x :: edges)
    in
    climb dst [] []
  end

(* A per-domain fallback: concurrent workspace-less calls from several
   domains each get their own scratch, and single-pair callers (one
   dynamic query per request) do not pay ~7n words per call. *)
let default_ws = Domain.DLS.new_key Workspace.create

let hop_bounded_path ?ws ?(blocked_vertices = [||]) ?(blocked_edges = [||]) g
    ~src ~dst ~max_hops =
  let ws = match ws with Some ws -> ws | None -> Domain.DLS.get default_ws in
  if search ws ~blocked_vertices ~blocked_edges g ~src ~dst ~max_hops then
    Some (extract_path ws ~src ~dst)
  else None

(* Every reached vertex lies at depth < n, so [ball] expands it: the
   counters are those of a BFS that scans the whole component. *)
let distances ?blocked_vertices:(bv = [||]) ?blocked_edges:(be = [||]) g src =
  let ws = Domain.DLS.get default_ws in
  let n = Graph.n g in
  ball ws ~blocked_vertices:bv ~blocked_edges:be g ~src ~max_hops:n;
  Array.init n (Workspace.depth ws)
