(* Bit-identity of the hop-bounded BFS against a reference model.

   [Bfs.search] stamps the destination's neighbourhood and never expands
   the last level; [Lbc.decide] blocks each round's path straight from
   the BFS parent arrays.  Both are meant to be pure speedups: the model
   below is the plain full-scan BFS (expand every vertex at depth
   < max_hops, stop when [dst] turns up among the neighbours) and the
   list-based Algorithm 2 built on it.  Paths, verdicts, certificates and
   greedy selections must match it exactly — on both storage backends,
   with edges still in the append buffer, and under random masks. *)

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

(* A random graph on both backends, each with its newest edges still in
   the append buffer: a base graph is reloaded from a binary file (which
   packs it), then a few more edges are added to both copies in the same
   order. *)
let graphs r =
  let n = 2 + Rng.int r 30 in
  let p = 0.05 +. Rng.float r 0.4 in
  let g = Generators.gnp r ~n ~p in
  let g32 = Int32_graph.of_graph g in
  for _ = 1 to Rng.int r 12 do
    let u = Rng.int r n and v = Rng.int r n in
    if u <> v && not (Graph.mem_edge g u v) then begin
      ignore (Graph.add_edge_unit g u v);
      ignore (Graph.add_edge_unit g32 u v)
    end
  done;
  [ g; g32 ]

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

(* The model must see the append buffer, or the backend properties above
   would only ever exercise packed adjacency. *)
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
    ]
