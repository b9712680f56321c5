(* Work counters flushed once per single-source run; accumulation inside
   the loop is local (see Bfs for the pattern). *)
let m_runs = Obs.counter "dijkstra.runs"
let m_settled = Obs.counter "dijkstra.nodes_settled"
let m_relaxed = Obs.counter "dijkstra.edges_relaxed"

(* The loop reads a mask with one array access per edge rather than a
   call to {!Bfs.blocked} (under dune's dev-profile [-opaque] that is an
   indirect call): a nonempty mask shorter than its id range is first
   widened through {!Bfs.blocked}, and a full-length one is read as is. *)
let fit mask len =
  if Array.length mask = 0 || Array.length mask >= len then mask
  else Array.init len (Bfs.blocked mask)

(* The one lazy-deletion loop.  Seeds are pushed in list order and a
   vertex's key only ever improves strictly, so a popped entry is live
   iff its key is still the vertex's key: the first such pop settles the
   vertex, and no settled vertex can improve again (lengths are
   positive).  A neighbour already at or below the popped key cannot
   improve either, so it is passed over before its edge length is read
   (that covers every settled neighbour).  Absent masks skip the
   per-edge mask test, an absent [length] reads the graph's weights, and
   an absent [admit] costs no call (its float argument would be boxed on
   every improvement).  Stops early once [stop_at] is settled.  Returns
   the keys and the numbers of settled vertices and scanned half-edges. *)
let search ~bv ~be ?admit ?(on_improve = fun _ _ _ -> ()) ?(stop_at = -1)
    ?length ~capacity g seeds =
  let dist = Array.make (Graph.n g) infinity in
  let scan = Csr.scanner (Graph.adjacency g) in
  let heap = Pqueue.create ~capacity in
  List.iter
    (fun (s, key) ->
      if (not (Bfs.blocked bv s)) && key < dist.(s) then begin
        dist.(s) <- key;
        Pqueue.push heap key s
      end)
    seeds;
  let bv = fit bv (Graph.n g) and be = fit be (Graph.m g) in
  let vmasked = Array.length bv > 0 and emasked = Array.length be > 0 in
  let stop = ref false in
  let n_settled = ref 0 and n_relaxed = ref 0 in
  while (not !stop) && not (Pqueue.is_empty heap) do
    let d = Pqueue.min_key heap in
    let x = Pqueue.pop heap in
    if d = dist.(x) then begin
      incr n_settled;
      if x = stop_at then stop := true
      else begin
        let relax y id =
          incr n_relaxed;
          if d < dist.(y) && not ((emasked && be.(id)) || (vmasked && bv.(y)))
          then begin
            let len =
              match length with None -> Graph.weight g id | Some f -> f id
            in
            let nd = d +. len in
            if
              nd < dist.(y)
              && match admit with None -> true | Some f -> f y nd
            then begin
              dist.(y) <- nd;
              on_improve y x id;
              Pqueue.push heap nd y
            end
          end
        in
        scan x relax
      end
    end
  done;
  (dist, !n_settled, !n_relaxed)

let seeded ?blocked_vertices:(bv = [||]) ?blocked_edges:(be = [||]) ?admit
    ?on_improve ?length g seeds =
  let dist, _, _ =
    search ~bv ~be ?admit ?on_improve ?length ~capacity:(List.length seeds) g
      seeds
  in
  dist

(* The single-source entry points: one seed at key 0, edge weights as
   lengths, and the only searches counted under [dijkstra.*]. *)
let from ~bv ~be ?admit ?on_improve ?stop_at ?capacity g src =
  let capacity = Option.value capacity ~default:(Graph.n g) in
  let dist, settled, relaxed =
    search ~bv ~be ?admit ?on_improve ?stop_at ~capacity g [ (src, 0.) ]
  in
  Obs.Counter.incr m_runs;
  Obs.Counter.add m_settled settled;
  Obs.Counter.add m_relaxed relaxed;
  dist

(* A bounded search settles a ball, not the graph: its heap starts small
   and grows as needed, which changes no push or pop. *)
let distances ?blocked_vertices:(bv = [||]) ?blocked_edges:(be = [||]) ?cutoff
    g src =
  match cutoff with
  | None -> from ~bv ~be g src
  | Some c -> from ~bv ~be ~admit:(fun _ d -> d <= c) ~capacity:16 g src

let distance_upto ?blocked_vertices:(bv = [||]) ?blocked_edges:(be = [||]) g
    ~src ~dst ~cutoff =
  if Bfs.blocked bv src || Bfs.blocked bv dst then None
  else if src = dst then Some 0.
  else begin
    let dist =
      from ~bv ~be ~admit:(fun _ d -> d <= cutoff) ~stop_at:dst g src
    in
    if dist.(dst) <= cutoff then Some dist.(dst) else None
  end

let shortest_path ?blocked_vertices:(bv = [||]) ?blocked_edges:(be = [||]) g
    ~src ~dst =
  if Bfs.blocked bv src || Bfs.blocked bv dst then None
  else if src = dst then Some { Path.vertices = [ src ]; edges = [] }
  else begin
    let n = Graph.n g in
    let parent_edge = Array.make n (-1) in
    let parent_vertex = Array.make n (-1) in
    let on_improve y x id =
      parent_vertex.(y) <- x;
      parent_edge.(y) <- id
    in
    let dist = from ~bv ~be ~on_improve ~stop_at:dst g src in
    if dist.(dst) = infinity then None
    else begin
      let rec climb x vertices edges =
        if x = src then Some { Path.vertices = src :: vertices; edges }
        else climb parent_vertex.(x) (x :: vertices) (parent_edge.(x) :: edges)
      in
      climb dst [] []
    end
  end
