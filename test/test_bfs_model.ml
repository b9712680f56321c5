(* Bit-identity of the hop-bounded BFS against a reference model.

   [Bfs.search] stamps the destination's neighbourhood and never expands
   the last level; [Lbc.decide] blocks each round's path straight from
   the BFS parent arrays.  Both are meant to be pure speedups: the model
   below is the plain full-scan BFS (expand every vertex at depth
   < max_hops, stop when [dst] turns up among the neighbours) and the
   list-based Algorithm 2 built on it.  Paths, verdicts, certificates and
   greedy selections must match it exactly — on graphs built in memory
   with edges still in the append buffer, on their copies mapped from a
   binary file, and under random masks.

   The second half keeps the private queue loops that [Components],
   [Girth], [Bfs.distances] and the dynamic service's repair region ran
   before they moved onto [Bfs.seeded], and holds the shared expansion to
   them: labels, girths, distance arrays, reached sets and the [bfs.*]
   counters. *)

let seeded seed = Rng.create ~seed

(* ------------------------- reference model ---------------------------- *)

let masked mask i =
  match mask with None -> false | Some a -> i < Array.length a && a.(i)

let model_path ?blocked_vertices ?blocked_edges g ~src ~dst ~max_hops =
  if masked blocked_vertices src || masked blocked_vertices dst then None
  else if src = dst then Some { Path.vertices = [ src ]; edges = [] }
  else begin
    let n = Graph.n g in
    let seen = Array.make n false and depth = Array.make n 0 in
    let parent = Array.make n (-1) and parent_edge = Array.make n (-1) in
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      if depth.(x) < max_hops then
        Graph.iter_neighbors g x (fun y id ->
            if
              (not !found) && (not seen.(y))
              && (not (masked blocked_edges id))
              && not (masked blocked_vertices y)
            then begin
              seen.(y) <- true;
              depth.(y) <- depth.(x) + 1;
              parent.(y) <- x;
              parent_edge.(y) <- id;
              if y = dst then found := true else Queue.add y queue
            end)
    done;
    let rec climb x vertices edges =
      if x = src then { Path.vertices = src :: vertices; edges }
      else climb parent.(x) (x :: vertices) (parent_edge.(x) :: edges)
    in
    if !found then Some (climb dst [] []) else None
  end

let model_decide ?(exclude = []) ~mode g ~u ~v ~t ~alpha =
  let bv = Array.make (Graph.n g) false in
  let be = Array.make (max 1 (Graph.m g)) false in
  List.iter (fun id -> if id >= 0 && id < Graph.m g then be.(id) <- true) exclude;
  let cut = ref [] in
  let block mask x =
    if not mask.(x) then begin
      mask.(x) <- true;
      cut := x :: !cut
    end
  in
  let rec rounds i =
    if i > alpha + 1 then Lbc.No { paths_seen = alpha + 1 }
    else
      let path =
        match mode with
        | Fault.VFT ->
            model_path ~blocked_vertices:bv ~blocked_edges:be g ~src:u ~dst:v
              ~max_hops:t
        | Fault.EFT -> model_path ~blocked_edges:be g ~src:u ~dst:v ~max_hops:t
      in
      match path with
      | None -> Lbc.Yes { cut = !cut }
      | Some p ->
          (match mode with
          | Fault.VFT -> List.iter (block bv) (Path.interior p)
          | Fault.EFT -> List.iter (block be) p.Path.edges);
          rounds (i + 1)
  in
  rounds 1

let model_greedy ~mode ~k ~f g =
  let t = (2 * k) - 1 in
  let certificates = ref [] in
  let decide h edges decisions lo hi =
    for i = lo to hi - 1 do
      let e = edges.(i) in
      match model_decide ~mode h ~u:e.Graph.u ~v:e.Graph.v ~t ~alpha:f with
      | Lbc.Yes { cut } -> decisions.(i) <- Engine.Keep { cut }
      | Lbc.No _ -> ()
    done
  in
  let on_add e cut = certificates := (e.Graph.id, cut) :: !certificates in
  let res = Engine.run ~caller:"model" ~trace:false ~on_add ~decide g in
  (Selection.ids res.Engine.selection, List.rev !certificates)

(* ------------------------------ inputs -------------------------------- *)

(* A random graph from both origins: built in memory, with its newest
   edges still in the append buffer, and its copy mapped from a binary
   file, packed only. *)
let graphs r =
  let n = 2 + Rng.int r 30 in
  let p = 0.05 +. Rng.float r 0.4 in
  let g = Generators.gnp r ~n ~p in
  for _ = 1 to Rng.int r 12 do
    let u = Rng.int r n and v = Rng.int r n in
    if u <> v && not (Graph.mem_edge g u v) then
      ignore (Graph.add_edge_unit g u v)
  done;
  [ g; Int32_graph.of_graph g ]

let random_mask r len ~p = Array.init len (fun _ -> Rng.float r 1.0 < p)

let arb_seed =
  QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 1_000_000)

(* ----------------------------- properties ----------------------------- *)

let prop_paths_identical =
  QCheck.Test.make ~count:150 ~name:"bfs: hop_bounded_path = full-scan model"
    arb_seed (fun seed ->
      let r = seeded seed in
      let ws = Bfs.Workspace.create () in
      List.for_all
        (fun g ->
          let n = Graph.n g in
          let bv = if Rng.bool r then Some (random_mask r n ~p:0.15) else None in
          let be =
            if Rng.bool r then Some (random_mask r (Graph.m g) ~p:0.2) else None
          in
          List.for_all
            (fun _ ->
              let src = Rng.int r n and dst = Rng.int r n in
              List.for_all
                (fun max_hops ->
                  let expected =
                    model_path ?blocked_vertices:bv ?blocked_edges:be g ~src ~dst
                      ~max_hops
                  in
                  Bfs.hop_bounded_path ~ws ?blocked_vertices:bv ?blocked_edges:be
                    g ~src ~dst ~max_hops
                  = expected
                  && Bfs.hop_bounded_path ?blocked_vertices:bv ?blocked_edges:be g
                       ~src ~dst ~max_hops
                     = expected)
                [ 0; 1; 2; 3; 4; 5; 6 ])
            (List.init 6 Fun.id))
        (graphs r))

let prop_decide_identical =
  QCheck.Test.make ~count:120 ~name:"lbc: verdicts and cuts = model" arb_seed
    (fun seed ->
      let r = seeded seed in
      let ws = Lbc.Workspace.create () in
      List.for_all
        (fun g ->
          let n = Graph.n g and m = Graph.m g in
          List.for_all
            (fun _ ->
              let u = Rng.int r n and v = Rng.int r n in
              let t = 1 + Rng.int r 5 and alpha = Rng.int r 4 in
              let exclude =
                if m > 0 && Rng.bool r then List.init (1 + Rng.int r 3) (fun _ -> Rng.int r m)
                else []
              in
              u = v
              || List.for_all
                   (fun mode ->
                     let expected = model_decide ~exclude ~mode g ~u ~v ~t ~alpha in
                     Lbc.decide ~ws ~exclude ~mode g ~u ~v ~t ~alpha = expected
                     && Lbc.decide ~exclude ~mode g ~u ~v ~t ~alpha = expected)
                   [ Fault.VFT; Fault.EFT ])
            (List.init 8 Fun.id))
        (graphs r))

let prop_greedy_identical =
  QCheck.Test.make ~count:40 ~name:"poly greedy: selection and certificates = model"
    arb_seed (fun seed ->
      let r = seeded seed in
      let k = 1 + Rng.int r 3 and f = Rng.int r 3 in
      List.for_all
        (fun g ->
          List.for_all
            (fun mode ->
              let sel, certs = Poly_greedy.build_with_certificates ~mode ~k ~f g in
              let got =
                ( Selection.ids sel,
                  List.map
                    (fun c -> (c.Poly_greedy.edge.Graph.id, c.Poly_greedy.cut))
                    certs )
              in
              got = model_greedy ~mode ~k ~f g)
            [ Fault.VFT; Fault.EFT ])
        (graphs r))

(* ----------------- models of the consolidated loops ------------------- *)

let mask_arr = function None -> [||] | Some a -> a

(* Component labels: one queue per unlabelled, unblocked source. *)
let model_labels ?blocked_vertices ?blocked_edges g =
  let bv = mask_arr blocked_vertices and be = mask_arr blocked_edges in
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 && not (Bfs.blocked bv s) then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        Graph.iter_neighbors g x (fun y id ->
            if label.(y) < 0 && (not (Bfs.blocked be id)) && not (Bfs.blocked bv y)
            then begin
              label.(y) <- c;
              queue.(!tail) <- y;
              incr tail
            end)
      done
    end
  done;
  (label, !next)

(* Shortest cycle met by a BFS from [src] truncated at depth [limit],
   with the edge classified while it is scanned. *)
let model_cycle_through g src ~limit =
  let n = Graph.n g in
  let depth = Array.make n (-1) and parent_edge = Array.make n (-1) in
  let queue = Array.make n 0 in
  depth.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let best = ref max_int in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    if depth.(x) < limit then
      Graph.iter_neighbors g x (fun y id ->
          if id <> parent_edge.(x) then
            if depth.(y) < 0 then begin
              depth.(y) <- depth.(x) + 1;
              parent_edge.(y) <- id;
              queue.(!tail) <- y;
              incr tail
            end
            else best := min !best (depth.(x) + depth.(y) + 1))
  done;
  !best

let model_girth g =
  let best = ref max_int in
  for src = 0 to Graph.n g - 1 do
    let limit = if !best = max_int then Graph.n g else (!best / 2) + 1 in
    best := min !best (model_cycle_through g src ~limit)
  done;
  if !best = max_int then None else Some !best

let model_girth_exceeds g ~bound =
  let limit = (bound / 2) + 1 in
  let ok = ref true in
  for src = 0 to Graph.n g - 1 do
    if model_cycle_through g src ~limit <= bound then ok := false
  done;
  !ok

(* Hop distances from [src], with the amounts the loop counted: the
   vertices it dequeued and the adjacency entries it read. *)
let model_distances ?blocked_vertices ?blocked_edges g src =
  let bv = mask_arr blocked_vertices and be = mask_arr blocked_edges in
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let nodes = ref 0 and edges = ref 0 in
  if not (Bfs.blocked bv src) then begin
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      incr nodes;
      Graph.iter_neighbors g x (fun y id ->
          incr edges;
          if dist.(y) < 0 && (not (Bfs.blocked be id)) && not (Bfs.blocked bv y)
          then begin
            dist.(y) <- dist.(x) + 1;
            Queue.add y queue
          end)
    done
  end;
  (dist, !nodes, !edges)

(* The repair-region walk: (vertex, depth) pairs on a queue, a stamp per
   visit, seeds in list order; the region comes out newest first. *)
let model_region g seeds ~depth =
  let seen = Array.make (Graph.n g) false in
  let region = ref [] in
  let queue = Queue.create () in
  let visit x d =
    if not seen.(x) then begin
      seen.(x) <- true;
      region := x :: !region;
      Queue.add (x, d) queue
    end
  in
  List.iter (fun x -> visit x 0) seeds;
  while not (Queue.is_empty queue) do
    let x, dx = Queue.pop queue in
    if dx < depth then Graph.iter_neighbors g x (fun y _ -> visit y (dx + 1))
  done;
  !region

(* A multi-source BFS under masks: depths, BFS order, and the amounts a
   counted expansion adds (vertices at depth < max_hops and their
   adjacency entries). *)
let model_seeded ?blocked_vertices ?blocked_edges g seeds ~max_hops =
  let bv = mask_arr blocked_vertices and be = mask_arr blocked_edges in
  let depth = Array.make (Graph.n g) (-1) in
  let order = ref [] and nodes = ref 0 and edges = ref 0 in
  let queue = Queue.create () in
  let reach x d =
    depth.(x) <- d;
    order := x :: !order;
    Queue.add x queue
  in
  List.iter
    (fun x -> if depth.(x) < 0 && not (Bfs.blocked bv x) then reach x 0)
    seeds;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    if depth.(x) < max_hops then begin
      incr nodes;
      edges := !edges + Graph.degree g x;
      Graph.iter_neighbors g x (fun y id ->
          if depth.(y) < 0 && (not (Bfs.blocked be id)) && not (Bfs.blocked bv y)
          then reach y (depth.(x) + 1))
    end
  done;
  (depth, List.rev !order, !nodes, !edges)

(* ------------------- consolidation inputs and probes ------------------- *)

(* gnp and unit-weight geometric graphs, each from both origins. *)
let graphs_and_geometric r =
  let geo =
    let n = 2 + Rng.int r 30 in
    let g =
      Generators.random_geometric r ~n ~radius:(0.1 +. Rng.float r 0.3)
        ~euclidean_weights:false
    in
    for _ = 1 to Rng.int r 6 do
      let u = Rng.int r n and v = Rng.int r n in
      if u <> v && not (Graph.mem_edge g u v) then
        ignore (Graph.add_edge_unit g u v)
    done;
    [ g; Int32_graph.of_graph g ]
  in
  graphs r @ geo

let masks r g =
  let bv = if Rng.bool r then Some (random_mask r (Graph.n g) ~p:0.15) else None in
  let be =
    if Rng.bool r then Some (random_mask r (Graph.m g) ~p:0.2) else None
  in
  (bv, be)

(* A seed list with repeats: some vertices drawn twice, in any order. *)
let seed_list r n =
  let base = List.init (1 + Rng.int r 4) (fun _ -> Rng.int r n) in
  base @ List.filter (fun _ -> Rng.bool r) base

let bfs_counters () =
  List.map
    (fun name -> Obs.Counter.value (Obs.counter name))
    [ "bfs.searches"; "bfs.nodes_scanned"; "bfs.edges_scanned" ]

(* The change of the three [bfs.*] counters across [f ()]. *)
let counted f =
  let before = bfs_counters () in
  let v = f () in
  (v, List.map2 ( - ) (bfs_counters ()) before)

(* ------------------- consolidation properties ------------------------- *)

let prop_components_identical =
  QCheck.Test.make ~count:150 ~name:"components: labels and count = queue model"
    arb_seed (fun seed ->
      let r = seeded seed in
      List.for_all
        (fun g ->
          let bv, be = masks r g in
          let got, delta =
            counted (fun () ->
                Components.labels ?blocked_vertices:bv ?blocked_edges:be g)
          in
          got = model_labels ?blocked_vertices:bv ?blocked_edges:be g
          && delta = [ 0; 0; 0 ])
        (graphs_and_geometric r))

let prop_girth_identical =
  QCheck.Test.make ~count:150 ~name:"girth: girth and girth_exceeds = queue model"
    arb_seed (fun seed ->
      let r = seeded seed in
      List.for_all
        (fun g ->
          Girth.girth g = model_girth g
          && List.for_all
               (fun bound ->
                 Girth.girth_exceeds g ~bound = model_girth_exceeds g ~bound)
               (List.init ((2 * Graph.n g) - 1) (fun i -> i + 2)))
        (graphs_and_geometric r))

let prop_distances_identical =
  QCheck.Test.make ~count:150
    ~name:"bfs: distances and their counters = queue model" arb_seed
    (fun seed ->
      let r = seeded seed in
      List.for_all
        (fun g ->
          let bv, be = masks r g in
          List.for_all
            (fun _ ->
              let src = Rng.int r (Graph.n g) in
              let dist, nodes, edges =
                model_distances ?blocked_vertices:bv ?blocked_edges:be g src
              in
              let got, delta =
                counted (fun () ->
                    Bfs.distances ?blocked_vertices:bv ?blocked_edges:be g src)
              in
              got = dist && delta = [ 1; nodes; edges ])
            (List.init 4 Fun.id))
        (graphs_and_geometric r))

(* [ball] from one source and [seeded] from a seed list with repeats,
   read through the workspace, against the multi-source model: depths,
   BFS order, tree edges, and the counters ([ball] adds the model's
   amounts, [seeded] nothing). *)
let prop_seeded_identical =
  QCheck.Test.make ~count:150 ~name:"bfs: seeded and ball = multi-source model"
    arb_seed (fun seed ->
      let r = seeded seed in
      let ws = Bfs.Workspace.create () in
      let read n =
        Array.init n (Bfs.Workspace.depth ws)
      in
      let tree_ok g depth =
        Array.for_all Fun.id
          (Array.mapi
             (fun x d ->
               let id = Bfs.Workspace.parent_edge ws x in
               d <= 0
               ||
               let e = Graph.edge g id in
               let y = if e.Graph.u = x then e.Graph.v else e.Graph.u in
               (e.Graph.u = x || e.Graph.v = x) && depth.(y) = d - 1)
             depth)
      in
      List.for_all
        (fun g ->
          let n = Graph.n g in
          let bv, be = masks r g in
          List.for_all
            (fun max_hops ->
              let seeds = seed_list r n in
              let depth, order, _, _ =
                model_seeded ?blocked_vertices:bv ?blocked_edges:be g seeds
                  ~max_hops
              in
              let reached, delta =
                counted (fun () ->
                    Bfs.seeded ws ?blocked_vertices:bv ?blocked_edges:be g seeds
                      ~max_hops)
              in
              let seeded_ok =
                delta = [ 0; 0; 0 ]
                && List.init reached (Bfs.Workspace.reached ws) = order
                && read n = depth && tree_ok g depth
              in
              let src = Rng.int r n in
              let depth, _, nodes, edges =
                model_seeded ?blocked_vertices:bv ?blocked_edges:be g [ src ]
                  ~max_hops
              in
              let (), delta =
                counted (fun () ->
                    Bfs.ball ws ~blocked_vertices:(mask_arr bv)
                      ~blocked_edges:(mask_arr be) g ~src ~max_hops)
              in
              seeded_ok
              && delta = [ 1; nodes; edges ]
              && read n = depth && tree_ok g depth)
            [ 0; 1; 2; 3; 5; n ])
        (graphs_and_geometric r))

(* The repair region is the reached prefix of an unmasked [seeded] to
   depth 2k-1, and [touched] is its length; the old walk listed the same
   vertices newest first. *)
let prop_region_identical =
  QCheck.Test.make ~count:150 ~name:"dynamic: repair region = queue-walk model"
    arb_seed (fun seed ->
      let r = seeded seed in
      let ws = Bfs.Workspace.create () in
      List.for_all
        (fun g ->
          List.for_all
            (fun k ->
              let depth = (2 * k) - 1 in
              let seeds = seed_list r (Graph.n g) in
              let touched = Bfs.seeded ws g seeds ~max_hops:depth in
              List.rev (List.init touched (Bfs.Workspace.reached ws))
              = model_region g seeds ~depth)
            [ 1; 2; 3 ])
        (graphs_and_geometric r))

(* ------------------------------ pinned -------------------------------- *)

(* With max_hops = 0 only src = dst has a path: a neighbour of [dst] at
   depth 0 (src itself) must not end the search. *)
let test_zero_hops_adjacent () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  Alcotest.(check bool) "None" true
    (Bfs.hop_bounded_path g ~src:0 ~dst:1 ~max_hops:0 = None);
  Alcotest.(check bool) "one hop suffices" true
    (Bfs.hop_bounded_path g ~src:0 ~dst:1 ~max_hops:1
    = Some { Path.vertices = [ 0; 1 ]; edges = [ 0 ] })

(* The model must see the append buffer, or the properties above would
   only ever exercise packed adjacency. *)
let test_inputs_reach_the_buffer () =
  let r = seeded 11 in
  let buffered = ref 0 in
  for _ = 1 to 20 do
    List.iter
      (fun g -> buffered := !buffered + Csr.buffered (Graph.adjacency g))
      (graphs r)
  done;
  Alcotest.(check bool) "some edges buffered" true (!buffered > 0)

let () =
  Alcotest.run "bfs model"
    [
      ( "pinned",
        [
          Alcotest.test_case "zero hops, adjacent" `Quick test_zero_hops_adjacent;
          Alcotest.test_case "inputs reach the buffer" `Quick
            test_inputs_reach_the_buffer;
        ] );
      ( "bit identity",
        List.map QCheck_alcotest.to_alcotest
          [ prop_paths_identical; prop_decide_identical; prop_greedy_identical ] );
      ( "expansion",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_components_identical;
            prop_girth_identical;
            prop_distances_identical;
            prop_seeded_identical;
            prop_region_identical;
          ] );
    ]
