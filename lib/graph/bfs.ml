module Workspace = struct
  type t = {
    mutable seen : int array;  (* stamp marking, never cleared *)
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

  let blocked mask i = i < Array.length mask && mask.(i)

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

  let ensure ws n =
    if Array.length ws.seen < n then begin
      let cap = max n (2 * Array.length ws.seen) in
      ws.seen <- Array.make cap 0;
      ws.near <- Array.make cap 0;
      ws.near_edge <- Array.make cap (-1);
      ws.parent_edge <- Array.make cap (-1);
      ws.parent_vertex <- Array.make cap (-1);
      ws.depth <- Array.make cap 0;
      ws.queue <- Array.make cap 0;
      ws.stamp <- 0
    end

  let parent ws x = ws.parent_vertex.(x)
  let parent_edge ws x = ws.parent_edge.(x)
end

(* Work counters flushed once per traversal: the loops below accumulate
   into locals, so the per-edge cost of instrumentation is nil. *)
let m_searches = Obs.counter "bfs.searches"
let m_nodes = Obs.counter "bfs.nodes_scanned"
let m_edges = Obs.counter "bfs.edges_scanned"

let no_mask = [||]
let blocked = Workspace.blocked

(* Hop-bounded BFS from [src], stopping as soon as [dst] is reached.

   The last level is never expanded.  [dst]'s unblocked neighbours are
   stamped first; a dequeued vertex carrying the stamp ends the search,
   with [dst]'s parent set to it.  Only vertices at depth < max_hops-1
   have their adjacency scanned, so no depth-[max_hops] leaf is ever
   enqueued.  The full scan also stops at the first dequeued vertex
   adjacent to [dst], and the queue order is the same, so the BFS tree
   (and hence the extracted path) is identical to the one it builds.

   This is the hot path of every LBC call and hence of the whole greedy
   pipeline.  Its only allocation is the one [Csr.scanner] per search:
   the storage-backend dispatch and array captures happen once, and the
   per-vertex scan walks the append-buffer chain first, then the packed
   slice — the same newest-first order for both backends.  The per-edge
   callbacks are the workspace's, built once. *)
let search ws ~blocked_vertices ~blocked_edges g ~src ~dst ~max_hops =
  let open Workspace in
  ensure ws (Graph.n g);
  ws.stamp <- ws.stamp + 1;
  let stamp = ws.stamp in
  Obs.Counter.incr m_searches;
  if blocked blocked_vertices src || blocked blocked_vertices dst then false
  else if src = dst then true
  else if max_hops < 1 then false
  else begin
    let adj = Graph.adjacency g in
    let scan = Csr.scanner adj in
    ws.bv <- blocked_vertices;
    ws.be <- blocked_edges;
    scan dst ws.mark_near;
    let scanned = ref (Csr.degree adj dst) in
    ws.seen.(src) <- stamp;
    ws.depth.(src) <- 0;
    ws.parent_edge.(src) <- -1;
    ws.queue.(0) <- src;
    ws.tail <- 1;
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
        scan x ws.visit
      end
    done;
    (* A per-domain workspace outlives the call: do not pin its masks. *)
    ws.bv <- no_mask;
    ws.be <- no_mask;
    Obs.Counter.add m_nodes !head;
    Obs.Counter.add m_edges !scanned;
    !found
  end

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

let hop_bounded_path ?ws ?blocked_vertices ?blocked_edges g ~src ~dst ~max_hops =
  let ws = match ws with Some ws -> ws | None -> Domain.DLS.get default_ws in
  let mask = function Some a -> a | None -> no_mask in
  if
    search ws ~blocked_vertices:(mask blocked_vertices)
      ~blocked_edges:(mask blocked_edges) g ~src ~dst ~max_hops
  then Some (extract_path ws ~src ~dst)
  else None

let distances ?blocked_vertices ?blocked_edges g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  Obs.Counter.incr m_searches;
  let bv = Option.value blocked_vertices ~default:no_mask in
  let be = Option.value blocked_edges ~default:no_mask in
  if blocked bv src then dist
  else begin
    let scan = Csr.scanner (Graph.adjacency g) in
    let queue = Array.make n 0 in
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let scanned = ref 0 in
    while !head < !tail do
      let x = queue.(!head) in
      incr head;
      let visit y id =
        incr scanned;
        if dist.(y) < 0 && (not (blocked be id)) && not (blocked bv y) then begin
          dist.(y) <- dist.(x) + 1;
          queue.(!tail) <- y;
          incr tail
        end
      in
      scan x visit
    done;
    Obs.Counter.add m_nodes !head;
    Obs.Counter.add m_edges !scanned;
    dist
  end

let hop_distance g u v =
  let d = (distances g u).(v) in
  if d < 0 then None else Some d

let eccentricity g u =
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 (distances g u)
