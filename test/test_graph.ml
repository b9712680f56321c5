(* Unit tests for the graph substrate: Graph, Path, Pqueue, Bfs, Dijkstra,
   Hop_dp, Union_find, Components, Girth, Subgraph, Stats, Generators,
   Graph_io, Rng. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

let rng () = Rng.create ~seed:42

(* -------------------------------------------------------------------- *)
(* Graph                                                                *)

let test_graph_empty () =
  let g = Graph.create 5 in
  checki "n" 5 (Graph.n g);
  checki "m" 0 (Graph.m g);
  checki "degree" 0 (Graph.degree g 0);
  checkb "no edge" false (Graph.mem_edge g 0 1)

let test_graph_add_edge () =
  let g = Graph.create 4 in
  let id = Graph.add_edge g 2 1 ~w:3.5 in
  checki "first id" 0 id;
  checki "m" 1 (Graph.m g);
  checkb "mem 1-2" true (Graph.mem_edge g 1 2);
  checkb "mem 2-1" true (Graph.mem_edge g 2 1);
  let e = Graph.edge g id in
  checki "u normalized to min" 1 e.Graph.u;
  checki "v normalized to max" 2 e.Graph.v;
  checkf "w" 3.5 e.Graph.w;
  checki "other endpoint of 1" 2 (Graph.other_endpoint g id 1);
  checki "other endpoint of 2" 1 (Graph.other_endpoint g id 2)

let test_graph_rejects_self_loop () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge g 1 1 ~w:1.))

let test_graph_rejects_duplicate () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge_unit g 0 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_edge: duplicate edge {1,0}") (fun () ->
      ignore (Graph.add_edge g 1 0 ~w:2.))

let test_graph_rejects_bad_weight () =
  let g = Graph.create 3 in
  List.iter
    (fun (name, w) ->
      Alcotest.check_raises name
        (Invalid_argument "Graph.add_edge: weight must be finite and > 0")
        (fun () -> ignore (Graph.add_edge g 0 1 ~w)))
    [
      ("zero weight", 0.);
      ("negative weight", -1.);
      ("nan weight", Float.nan);
      ("infinite weight", Float.infinity);
      ("negative infinite weight", Float.neg_infinity);
    ];
  checki "nothing added" 0 (Graph.m g);
  checkb "smallest positive float" true (Graph.valid_weight Float.min_float);
  checkb "largest finite float" true (Graph.valid_weight Float.max_float)

(* The bulk loader and the text loader apply the same rule as [add_edge]:
   a non-finite weight fails to load instead of surfacing later. *)
let test_graph_loaders_reject_bad_weight () =
  List.iter
    (fun w ->
      let adj = Csr.create 2 in
      Csr.add adj 0 1 0;
      Csr.add adj 1 0 0;
      Alcotest.check_raises (Printf.sprintf "of_adjacency %g" w)
        (Invalid_argument "Graph.of_adjacency: weight must be finite and > 0")
        (fun () -> ignore (Graph.of_adjacency ~weights:[| w |] adj));
      let text = Printf.sprintf "p 2 1\ne 0 1 %g\n" w in
      match Graph_io.of_string text with
      | _ -> Alcotest.failf "text weight %g should not load" w
      | exception Failure _ -> ())
    [ 0.; -2.; Float.nan; Float.infinity; Float.neg_infinity ]

let test_graph_rejects_out_of_range () =
  let g = Graph.create 3 in
  (try
     ignore (Graph.add_edge g 0 7 ~w:1.);
     Alcotest.fail "expected exception"
   with Invalid_argument _ -> ())

let test_graph_grows_storage () =
  let g = Graph.create 40 in
  for u = 0 to 39 do
    for v = u + 1 to 39 do
      ignore (Graph.add_edge_unit g u v)
    done
  done;
  checki "complete graph m" (40 * 39 / 2) (Graph.m g);
  checki "degree" 39 (Graph.degree g 0);
  checki "max degree" 39 (Stats.compute g).Stats.max_degree

let test_graph_iterators () =
  let g = Graph.of_weighted_edges 4 [ (0, 1, 1.); (1, 2, 2.); (2, 3, 3.) ] in
  let total = Graph.fold_edges g 0. (fun acc e -> acc +. e.Graph.w) in
  checkf "fold weight" 6. total;
  checkf "total_weight" 6. (Graph.total_weight g);
  let seen = ref [] in
  Graph.iter_neighbors g 1 (fun v _ -> seen := v :: !seen);
  checki "neighbors of 1" 2 (List.length !seen);
  checkb "0 in neighbors" true (List.mem 0 !seen);
  checkb "2 in neighbors" true (List.mem 2 !seen)

let test_graph_copy_independent () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.copy g in
  ignore (Graph.add_edge_unit h 1 2);
  checki "original m" 1 (Graph.m g);
  checki "copy m" 2 (Graph.m h)

let test_graph_unit_weighted () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  checkb "unit" true (Graph.is_unit_weighted g);
  let h = Graph.of_weighted_edges 3 [ (0, 1, 1.); (1, 2, 2.) ] in
  checkb "not unit" false (Graph.is_unit_weighted h)

let test_graph_find_edge () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check (Alcotest.option Alcotest.int) "found" (Some 1) (Graph.find_edge g 3 2);
  check (Alcotest.option Alcotest.int) "absent" None (Graph.find_edge g 0 3)

(* -------------------------------------------------------------------- *)
(* Csr — the flat adjacency behind Graph                                *)

(* Every half-edge sequence a vertex exposes, via the public Csr.iter. *)
let iter_seq adj v =
  let acc = ref [] in
  Csr.iter adj v (fun nbr id -> acc := (nbr, id) :: !acc);
  List.rev !acc

(* A random graph built through interleaved add_edge calls, so the append
   buffer sees many partial states and several compactions fire. *)
let random_grown r ~n ~m =
  let g = Graph.create n in
  while Graph.m g < m do
    let u = Rng.int r n and v = Rng.int r n in
    if u <> v && not (Graph.mem_edge g u v) then
      ignore (Graph.add_edge g u v ~w:(1. +. float_of_int (Rng.int r 5)))
  done;
  g

let test_csr_invariants_under_growth () =
  let r = rng () in
  let g = random_grown r ~n:40 ~m:220 in
  let adj = Graph.adjacency g in
  let halves = ref 0 in
  let seen = Array.make (Graph.m g) 0 in
  for v = 0 to Graph.n g - 1 do
    let seq = iter_seq adj v in
    checki (Printf.sprintf "degree %d" v) (Graph.degree g v) (List.length seq);
    halves := !halves + List.length seq;
    (* Ordering contract: strictly decreasing edge ids (newest first). *)
    let ids = List.map snd seq in
    (match ids with
    | [] -> ()
    | _ :: tl ->
        checkb
          (Printf.sprintf "vertex %d ids strictly decreasing" v)
          true
          (List.for_all2 ( > ) ids (tl @ [ -1 ])));
    List.iter (fun id -> seen.(id) <- seen.(id) + 1) ids
  done;
  checki "buffered + packed = 2m" (2 * Graph.m g) !halves;
  Array.iteri (fun id c -> checki (Printf.sprintf "edge %d twice" id) 2 c) seen

let test_csr_compact_preserves_iteration () =
  let r = rng () in
  let g = random_grown r ~n:30 ~m:120 in
  let adj = Graph.adjacency g in
  let before = List.init (Graph.n g) (iter_seq adj) in
  Csr.compact adj;
  checki "buffer drained" 0 (Csr.buffered adj);
  let after = List.init (Graph.n g) (iter_seq adj) in
  List.iteri
    (fun v (b, a) ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
        (Printf.sprintf "vertex %d sequence unchanged" v)
        b a)
    (List.combine before after)

(* The buffered and fully-compacted views must be observationally
   equivalent: same BFS layers, same Dijkstra distances, same LBC
   verdicts.  [compacted] is a deep copy whose buffer is force-drained,
   so the two graphs differ only in physical layout. *)
let test_csr_views_equivalent () =
  let r = rng () in
  for _ = 1 to 5 do
    let g = random_grown r ~n:36 ~m:150 in
    let c = Graph.copy g in
    Csr.compact (Graph.adjacency c);
    let src = Rng.int r (Graph.n g) in
    let db = Bfs.distances g src and dc = Bfs.distances c src in
    check (Alcotest.array Alcotest.int) "bfs layers" db dc;
    for dst = 0 to Graph.n g - 1 do
      let wb = Dijkstra.distance_upto g ~src ~dst ~cutoff:infinity in
      let wc = Dijkstra.distance_upto c ~src ~dst ~cutoff:infinity in
      check (Alcotest.option (Alcotest.float 1e-9)) "dijkstra" wb wc
    done;
    let u = Rng.int r (Graph.n g) and v = Rng.int r (Graph.n g) in
    if u <> v then
      List.iter
        (fun mode ->
          let vb = Lbc.decide ~mode g ~u ~v ~t:3 ~alpha:2 in
          let vc = Lbc.decide ~mode c ~u ~v ~t:3 ~alpha:2 in
          match (vb, vc) with
          | Lbc.Yes { cut = c1 }, Lbc.Yes { cut = c2 } ->
              check
                (Alcotest.list Alcotest.int)
                "lbc cut" (List.sort compare c1) (List.sort compare c2)
          | Lbc.No _, Lbc.No _ -> ()
          | _ -> Alcotest.fail "lbc verdict diverged between views")
        [ Fault.VFT; Fault.EFT ]
  done

(* The CSR must reproduce the historical cons-list adjacency exactly:
   iteration order equals the order of a [(v, id) :: list] model. *)
let test_csr_matches_list_model () =
  let r = rng () in
  let n = 25 in
  let g = Graph.create n in
  let model = Array.make n [] in
  for _ = 1 to 400 do
    let u = Rng.int r n and v = Rng.int r n in
    if u <> v && not (Graph.mem_edge g u v) then begin
      let id = Graph.add_edge g u v ~w:1. in
      let u', v' = (min u v, max u v) in
      model.(u') <- (v', id) :: model.(u');
      model.(v') <- (u', id) :: model.(v')
    end
  done;
  let adj = Graph.adjacency g in
  for v = 0 to n - 1 do
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      (Printf.sprintf "vertex %d matches model" v)
      model.(v) (iter_seq adj v)
  done

(* -------------------------------------------------------------------- *)
(* Path                                                                 *)

let test_path_basic () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let p = { Path.vertices = [ 0; 1; 2; 3 ]; edges = [ 0; 1; 2 ] } in
  checki "hops" 3 (Path.hops p);
  checki "source" 0 (List.hd p.Path.vertices);
  checki "target" 3 (List.nth p.Path.vertices (Path.hops p));
  check (Alcotest.list Alcotest.int) "interior" [ 1; 2 ] (Path.interior p);
  checkb "valid" true (Path.is_valid g p);
  checkf "weight" 3. (Path.weight g p)

let test_path_single_vertex () =
  let p = { Path.vertices = [ 7 ]; edges = [] } in
  checki "hops" 0 (Path.hops p);
  check (Alcotest.list Alcotest.int) "interior empty" [] (Path.interior p)

let test_path_invalid_detected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let p = { Path.vertices = [ 0; 1; 2 ]; edges = [ 0; 1 ] } in
  checkb "edge 1 doesn't join 1-2" false (Path.is_valid g p)

(* -------------------------------------------------------------------- *)
(* Pqueue                                                               *)

(* Drain [h] into its (key, payload) sequence. *)
let pqueue_drain h =
  let out = ref [] in
  while not (Pqueue.is_empty h) do
    let k = Pqueue.min_key h in
    out := (k, Pqueue.pop h) :: !out
  done;
  List.rev !out

let kv = Alcotest.(list (pair (float 0.) int))

let test_pqueue_ordering () =
  let h = Pqueue.create ~capacity:4 in
  List.iter (fun (k, p) -> Pqueue.push h k p)
    [ (5., 50); (1., 10); (3., 30); (2., 20); (4., 40) ];
  check (Alcotest.list Alcotest.int) "sorted" [ 10; 20; 30; 40; 50 ]
    (List.map snd (pqueue_drain h))

let test_pqueue_duplicates_and_clear () =
  let h = Pqueue.create ~capacity:2 in
  Pqueue.push h 1. 1;
  Pqueue.push h 1. 1;
  check kv "both copies" [ (1., 1); (1., 1) ] (pqueue_drain h);
  checkb "empty after draining" true (Pqueue.is_empty h);
  let raises f =
    try
      ignore (f h);
      false
    with Invalid_argument _ -> true
  in
  checkb "pop empty raises" true (raises Pqueue.pop);
  checkb "min_key empty raises" true (raises Pqueue.min_key)

let test_pqueue_interleaved () =
  let h = Pqueue.create ~capacity:1 in
  Pqueue.push h 2. 2;
  Pqueue.push h 1. 1;
  checkf "min key" 1. (Pqueue.min_key h);
  checki "min payload" 1 (Pqueue.pop h);
  Pqueue.push h 0.5 0;
  checkf "peek leaves the heap alone" 0.5 (Pqueue.min_key h);
  checkf "peek again" 0.5 (Pqueue.min_key h);
  checki "new min" 0 (Pqueue.pop h)

(* The swapping binary heap [Pqueue] used to be, kept as the reference
   model of its array layout and hence of the order equal keys leave in.
   [~right_on_ties] is a mutant whose sift-down takes the right child
   when both children tie below the moving key. *)
module Swap_heap = struct
  type t = {
    mutable keys : float array;
    mutable payloads : int array;
    mutable len : int;
  }

  let create () = { keys = Array.make 8 0.; payloads = Array.make 8 0; len = 0 }

  let swap h i j =
    let k = h.keys.(i) and p = h.payloads.(i) in
    h.keys.(i) <- h.keys.(j);
    h.payloads.(i) <- h.payloads.(j);
    h.keys.(j) <- k;
    h.payloads.(j) <- p

  let push h key payload =
    if h.len = Array.length h.keys then begin
      h.keys <- Array.append h.keys (Array.make h.len 0.);
      h.payloads <- Array.append h.payloads (Array.make h.len 0)
    end;
    let i = ref h.len in
    h.keys.(!i) <- key;
    h.payloads.(!i) <- payload;
    h.len <- h.len + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop_min ~right_on_ties h =
    let key = h.keys.(0) and payload = h.payloads.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.keys.(0) <- h.keys.(h.len);
      h.payloads.(0) <- h.payloads.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && h.keys.(l) < h.keys.(!smallest) then smallest := l;
        if
          r < h.len
          && (h.keys.(r) < h.keys.(!smallest)
             || (right_on_ties && !smallest = l && h.keys.(r) = h.keys.(l)))
        then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done
    end;
    (key, payload)
end

(* A seeded interleaving of pushes (keys from a four-value set, so most
   pushes tie, payloads numbering the pushes) and pops, popping more
   often as the heap grows and draining it at the end.  Returns the
   popped (key, payload) sequences of [Pqueue] and of the model. *)
let pqueue_vs_model ~right_on_ties ~seed ~ops =
  let rng = Rng.create ~seed in
  let h = Pqueue.create ~capacity:1 and m = Swap_heap.create () in
  let got = ref [] and want = ref [] in
  let pop () =
    let k = Pqueue.min_key h in
    got := (k, Pqueue.pop h) :: !got;
    want := Swap_heap.pop_min ~right_on_ties m :: !want
  in
  for i = 0 to ops - 1 do
    if Pqueue.is_empty h || Rng.int rng 100 < 55 then begin
      let key = float_of_int (Rng.int rng 4) in
      Pqueue.push h key i;
      Swap_heap.push m key i
    end
    else pop ()
  done;
  while not (Pqueue.is_empty h) do
    pop ()
  done;
  (List.rev !got, List.rev !want)

let test_pqueue_matches_swap_model () =
  for seed = 1 to 20 do
    let got, want = pqueue_vs_model ~right_on_ties:false ~seed ~ops:3000 in
    check kv (Printf.sprintf "seed %d" seed) want got
  done;
  let mutant_caught =
    List.exists
      (fun seed ->
        let got, want = pqueue_vs_model ~right_on_ties:true ~seed ~ops:3000 in
        got <> want)
      (List.init 20 (fun s -> s + 1))
  in
  checkb "a right-on-ties heap diverges" true mutant_caught

(* -------------------------------------------------------------------- *)
(* BFS                                                                  *)

let test_bfs_distances_path_graph () =
  let g = Generators.path 5 in
  let d = Bfs.distances g 0 in
  check (Alcotest.array Alcotest.int) "distances" [| 0; 1; 2; 3; 4 |] d

let test_bfs_unreachable () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let d = Bfs.distances g 0 in
  checki "unreachable" (-1) d.(3)

let test_bfs_hop_bounded_respects_limit () =
  let g = Generators.path 5 in
  checkb "4 hops needed, 3 allowed" true
    (Bfs.hop_bounded_path g ~src:0 ~dst:4 ~max_hops:3 = None);
  match Bfs.hop_bounded_path g ~src:0 ~dst:4 ~max_hops:4 with
  | Some p ->
      checki "hops" 4 (Path.hops p);
      checkb "valid" true (Path.is_valid g p)
  | None -> Alcotest.fail "path expected"

let test_bfs_finds_min_hop () =
  (* triangle with a pendant: 0-1, 1-2, 0-2, 2-3 *)
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  match Bfs.hop_bounded_path g ~src:0 ~dst:3 ~max_hops:5 with
  | Some p -> checki "min hops 2" 2 (Path.hops p)
  | None -> Alcotest.fail "path expected"

let test_bfs_blocked_vertex () =
  (* 0-1-3 and 0-2-3: blocking 1 forces via 2 *)
  let g = Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let blocked = Array.make 4 false in
  blocked.(1) <- true;
  match Bfs.hop_bounded_path ~blocked_vertices:blocked g ~src:0 ~dst:3 ~max_hops:3 with
  | Some p -> checkb "avoids 1" false (List.mem 1 p.Path.vertices)
  | None -> Alcotest.fail "path expected"

let test_bfs_blocked_edge () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let direct = Option.get (Graph.find_edge g 0 2) in
  let blocked = Array.make 3 false in
  blocked.(direct) <- true;
  match Bfs.hop_bounded_path ~blocked_edges:blocked g ~src:0 ~dst:2 ~max_hops:3 with
  | Some p -> checki "detour" 2 (Path.hops p)
  | None -> Alcotest.fail "path expected"

let test_bfs_blocked_terminal () =
  let g = Generators.path 3 in
  let blocked = Array.make 3 false in
  blocked.(0) <- true;
  checkb "blocked src" true
    (Bfs.hop_bounded_path ~blocked_vertices:blocked g ~src:0 ~dst:2 ~max_hops:3 = None)

let test_bfs_src_eq_dst () =
  let g = Generators.path 3 in
  match Bfs.hop_bounded_path g ~src:1 ~dst:1 ~max_hops:0 with
  | Some p -> checki "zero hops" 0 (Path.hops p)
  | None -> Alcotest.fail "trivial path expected"

let test_bfs_workspace_reuse () =
  let g = Generators.cycle 10 in
  let ws = Bfs.Workspace.create () in
  for _ = 1 to 50 do
    (match Bfs.hop_bounded_path ~ws g ~src:0 ~dst:5 ~max_hops:5 with
    | Some p -> checki "hops" 5 (Path.hops p)
    | None -> Alcotest.fail "path expected");
    match Bfs.hop_bounded_path ~ws g ~src:0 ~dst:5 ~max_hops:4 with
    | Some _ -> Alcotest.fail "4 hops can't reach antipode of C10"
    | None -> ()
  done

let test_bfs_workspace_grows () =
  let ws = Bfs.Workspace.create () in
  let small = Generators.path 3 in
  ignore (Bfs.hop_bounded_path ~ws small ~src:0 ~dst:2 ~max_hops:2);
  let big = Generators.path 50 in
  match Bfs.hop_bounded_path ~ws big ~src:0 ~dst:49 ~max_hops:49 with
  | Some p -> checki "hops" 49 (Path.hops p)
  | None -> Alcotest.fail "path expected"

let test_bfs_eccentricity () =
  let g = Generators.path 5 in
  let eccentricity u = Array.fold_left max 0 (Bfs.distances g u) in
  checki "end" 4 (eccentricity 0);
  checki "middle" 2 (eccentricity 2)

let test_bfs_hop_distance () =
  let g = Generators.cycle 6 in
  checki "antipode" 3 (Bfs.distances g 0).(3);
  let h = Graph.create 2 in
  checki "disconnected" (-1) (Bfs.distances h 0).(1)

(* -------------------------------------------------------------------- *)
(* Dijkstra                                                             *)

let test_dijkstra_weighted_shortcut () =
  (* 0-1 (1.0), 1-2 (1.0), 0-2 (5.0): best 0->2 is 2.0 *)
  let g = Graph.of_weighted_edges 3 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 5.) ] in
  let d = Dijkstra.distances g 0 in
  checkf "via middle" 2. d.(2)

let test_dijkstra_unreachable_infinity () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  let d = Dijkstra.distances g 0 in
  checkb "infinite" true (d.(3) = infinity)

let test_dijkstra_distance_upto_cutoff () =
  let g = Graph.of_weighted_edges 3 [ (0, 1, 2.); (1, 2, 2.) ] in
  check (Alcotest.option (Alcotest.float 1e-9)) "within" (Some 4.)
    (Dijkstra.distance_upto g ~src:0 ~dst:2 ~cutoff:4.);
  check (Alcotest.option (Alcotest.float 1e-9)) "beyond" None
    (Dijkstra.distance_upto g ~src:0 ~dst:2 ~cutoff:3.9)

let test_dijkstra_shortest_path_valid () =
  let g =
    Graph.of_weighted_edges 5
      [ (0, 1, 1.); (1, 2, 1.); (2, 4, 1.); (0, 3, 1.5); (3, 4, 1.4) ]
  in
  match Dijkstra.shortest_path g ~src:0 ~dst:4 with
  | Some p ->
      checkb "valid" true (Path.is_valid g p);
      checkf "weight" 2.9 (Path.weight g p)
  | None -> Alcotest.fail "path expected"

let test_dijkstra_blocked_matches_bfs_on_unit () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.12 in
  let blocked = Array.make 40 false in
  blocked.(3) <- true;
  blocked.(17) <- true;
  let db = Bfs.distances ~blocked_vertices:blocked g 0 in
  let dd = Dijkstra.distances ~blocked_vertices:blocked g 0 in
  for v = 0 to 39 do
    if not blocked.(v) then
      let expected = if db.(v) < 0 then infinity else float_of_int db.(v) in
      checkf (Printf.sprintf "v%d" v) expected dd.(v)
  done

(* Property of the seeded loop behind every shortest-path search: on
   random weighted graphs, seed sets, keys and masks (some shorter and
   some longer than the id range), with the default and an explicit
   length function, each distance is the least seed key plus that
   seed's single-source distance, and the last improvement hook call
   for a vertex names a tight, unblocked edge to its parent. *)
let test_dijkstra_seeded_property () =
  let r = Rng.create ~seed:2024 in
  for trial = 1 to 300 do
    let n = 1 + Rng.int r 25 in
    let g =
      Generators.with_uniform_weights r
        (Generators.gnp r ~n ~p:(Rng.float r 0.4))
        ~lo:0.5 ~hi:4.
    in
    let mask len = Array.init len (fun _ -> Rng.bernoulli r ~p:0.15) in
    let maybe_mask len =
      if Rng.bernoulli r ~p:0.5 then None
      else Some (mask (max 0 (len - 2 + Rng.int r 5)))
    in
    let bv = maybe_mask n and be = maybe_mask (Graph.m g) in
    let seeds =
      List.init (Rng.int r 5) (fun _ -> (Rng.int r n, Rng.float r 6. -. 3.))
    in
    let last = Array.make n None in
    let dist =
      Dijkstra.seeded ?blocked_vertices:bv ?blocked_edges:be
        ?length:(if trial mod 2 = 0 then Some (Graph.weight g) else None)
        ~on_improve:(fun y x id -> last.(y) <- Some (x, id))
        g seeds
    in
    let blocked mask i =
      match mask with Some a -> i < Array.length a && a.(i) | None -> false
    in
    let expected =
      List.fold_left
        (fun acc (s, key) ->
          let d =
            Dijkstra.distances ?blocked_vertices:bv ?blocked_edges:be g s
          in
          Array.mapi (fun v a -> Float.min a (key +. d.(v))) acc)
        (Array.make n infinity) seeds
    in
    let own_key v =
      List.fold_left
        (fun acc (s, key) ->
          if s = v && not (blocked bv s) then Float.min acc key else acc)
        infinity seeds
    in
    for v = 0 to n - 1 do
      let name what = Printf.sprintf "trial %d v%d %s" trial v what in
      if expected.(v) = infinity then
        checkb (name "unreached") true (dist.(v) = infinity)
      else checkf (name "distance") expected.(v) dist.(v);
      match last.(v) with
      | None -> checkb (name "seed key") true (dist.(v) = own_key v)
      | Some (x, id) ->
          checkb (name "edge joins parent") true
            (Graph.endpoints g id = (min x v, max x v));
          checkb (name "open edge") false (blocked be id);
          checkb (name "open vertex") false (blocked bv v);
          checkb (name "tight") true (dist.(v) = dist.(x) +. Graph.weight g id)
    done
  done

(* -------------------------------------------------------------------- *)
(* Hop_dp                                                               *)

let test_hop_dp_budget_filters () =
  (* 0-2 direct weight 10; 0-1-2 weight 2 but 2 hops *)
  let g = Graph.of_weighted_edges 3 [ (0, 2, 10.); (0, 1, 1.); (1, 2, 1.) ] in
  (match Hop_dp.min_hop_path g ~src:0 ~dst:2 ~budget:10. ~max_hops:5 with
  | Some p -> checki "prefers 1 hop within budget" 1 (Path.hops p)
  | None -> Alcotest.fail "path expected");
  match Hop_dp.min_hop_path g ~src:0 ~dst:2 ~budget:5. ~max_hops:5 with
  | Some p -> checki "budget forces 2 hops" 2 (Path.hops p)
  | None -> Alcotest.fail "path expected"

let test_hop_dp_no_path_within_budget () =
  let g = Graph.of_weighted_edges 3 [ (0, 1, 3.); (1, 2, 3.) ] in
  checkb "budget too small" true
    (Hop_dp.min_hop_path g ~src:0 ~dst:2 ~budget:5. ~max_hops:5 = None)

let test_hop_dp_max_hops_binds () =
  let g = Generators.path 5 in
  checkb "3 hops insufficient" true
    (Hop_dp.min_hop_path g ~src:0 ~dst:4 ~budget:100. ~max_hops:3 = None);
  match Hop_dp.min_hop_path g ~src:0 ~dst:4 ~budget:100. ~max_hops:4 with
  | Some p -> checki "hops" 4 (Path.hops p)
  | None -> Alcotest.fail "path expected"

let test_hop_dp_respects_blocks () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let blocked = Array.make 4 false in
  blocked.(1) <- true;
  match
    Hop_dp.min_hop_path ~blocked_vertices:blocked g ~src:0 ~dst:3 ~budget:10.
      ~max_hops:5
  with
  | Some p ->
      checkb "avoids blocked" false (List.mem 1 p.Path.vertices);
      checkb "valid" true (Path.is_valid g p)
  | None -> Alcotest.fail "path expected"

let test_hop_dp_agrees_with_bfs_on_unit () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Generators.connected_gnp r ~n:25 ~p:0.15 in
    let u = Rng.int r 25 and v = Rng.int r 25 in
    if u <> v then begin
      let bfs = Bfs.hop_bounded_path g ~src:u ~dst:v ~max_hops:6 in
      let dp = Hop_dp.min_hop_path g ~src:u ~dst:v ~budget:6.0 ~max_hops:6 in
      match (bfs, dp) with
      | None, None -> ()
      | Some p1, Some p2 -> checki "same hop count" (Path.hops p1) (Path.hops p2)
      | Some _, None -> Alcotest.fail "dp missed a path bfs found"
      | None, Some _ -> Alcotest.fail "dp found a path bfs missed"
    end
  done

(* -------------------------------------------------------------------- *)
(* Union_find / Components                                              *)

let test_union_find_basics () =
  let uf = Union_find.create 5 in
  checki "initial sets" 5 (Union_find.count uf);
  checkb "union new" true (Union_find.union uf 0 1);
  checkb "union redundant" false (Union_find.union uf 1 0);
  checkb "same" true (Union_find.same uf 0 1);
  checkb "not same" false (Union_find.same uf 0 2);
  checki "sets after union" 4 (Union_find.count uf)

let test_union_find_transitivity () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  checkb "0 ~ 3" true (Union_find.same uf 0 3);
  checki "sets" 3 (Union_find.count uf)

let test_components_two_islands () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  let label, count = Components.labels g in
  checki "count" 2 count;
  checkb "0,2 together" true (label.(0) = label.(2));
  checkb "0,3 apart" true (label.(0) <> label.(3));
  checkb "connected" false (Components.is_connected g)

let test_components_under_faults () =
  (* path 0-1-2-3; removing vertex 1 splits it *)
  let g = Generators.path 4 in
  let blocked = Array.make 4 false in
  blocked.(1) <- true;
  let label, count = Components.labels ~blocked_vertices:blocked g in
  checki "three parts: {0} {2,3}" 2 count;
  checki "blocked labeled -1" (-1) label.(1)

let test_components_edge_faults () =
  let g = Generators.cycle 4 in
  let blocked = Array.make 4 false in
  blocked.(0) <- true;
  let _, count = Components.labels ~blocked_edges:blocked g in
  checki "cycle minus one edge still connected" 1 count

(* -------------------------------------------------------------------- *)
(* Girth                                                                *)

let test_girth_tree_none () =
  let g = Generators.path 6 in
  check (Alcotest.option Alcotest.int) "forest" None (Girth.girth g)

let test_girth_cycle () =
  check (Alcotest.option Alcotest.int) "C5" (Some 5) (Girth.girth (Generators.cycle 5));
  check (Alcotest.option Alcotest.int) "C3" (Some 3)
    (Girth.girth (Generators.complete 3))

let test_girth_complete () =
  check (Alcotest.option Alcotest.int) "K6" (Some 3) (Girth.girth (Generators.complete 6))

let test_girth_hypercube () =
  check (Alcotest.option Alcotest.int) "Q3 girth 4" (Some 4)
    (Girth.girth (Generators.hypercube ~dim:3))

let test_girth_exceeds () =
  let g = Generators.cycle 7 in
  checkb "exceeds 6" true (Girth.girth_exceeds g ~bound:6);
  checkb "not exceeds 7" false (Girth.girth_exceeds g ~bound:7)

let test_girth_petersen () =
  (* Petersen graph: girth 5 *)
  let outer = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let spokes = [ (0, 5); (1, 6); (2, 7); (3, 8); (4, 9) ] in
  let inner = [ (5, 7); (7, 9); (9, 6); (6, 8); (8, 5) ] in
  let g = Graph.of_edges 10 (outer @ spokes @ inner) in
  check (Alcotest.option Alcotest.int) "petersen" (Some 5) (Girth.girth g)

(* -------------------------------------------------------------------- *)
(* Subgraph                                                             *)

let test_subgraph_induced () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let sub = Subgraph.induced g [ 0; 1; 2 ] in
  checki "n" 3 (Graph.n sub.Subgraph.graph);
  checki "m (0-1 and 1-2)" 2 (Graph.m sub.Subgraph.graph);
  (* provenance round trip *)
  Graph.iter_edges sub.Subgraph.graph (fun e ->
      let pid = sub.Subgraph.to_parent_edge.(e.Graph.id) in
      let pu, pv = Graph.endpoints g pid in
      let su = sub.Subgraph.to_parent_vertex.(e.Graph.u) in
      let sv = sub.Subgraph.to_parent_vertex.(e.Graph.v) in
      checkb "endpoints map" true ((su = pu && sv = pv) || (su = pv && sv = pu)))

let test_subgraph_of_parent_inverse () =
  let g = Generators.cycle 6 in
  let sub = Subgraph.induced g [ 1; 3; 5 ] in
  for sv = 0 to 2 do
    let pv = sub.Subgraph.to_parent_vertex.(sv) in
    checki "inverse" sv sub.Subgraph.of_parent_vertex.(pv)
  done;
  checki "absent" (-1) sub.Subgraph.of_parent_vertex.(0)

let test_subgraph_edge_subset () =
  let g = Generators.cycle 5 in
  let keep = Array.make 5 false in
  keep.(0) <- true;
  keep.(2) <- true;
  let sub = Subgraph.of_edge_subset g keep in
  checki "n preserved" 5 (Graph.n sub.Subgraph.graph);
  checki "m" 2 (Graph.m sub.Subgraph.graph);
  Graph.iter_edges sub.Subgraph.graph (fun e ->
      checkb "id maps to kept" true keep.(sub.Subgraph.to_parent_edge.(e.Graph.id)))

let test_subgraph_induced_weights_preserved () =
  let g = Graph.of_weighted_edges 3 [ (0, 1, 2.5); (1, 2, 7.) ] in
  let sub = Subgraph.induced g [ 0; 1 ] in
  checki "one edge" 1 (Graph.m sub.Subgraph.graph);
  checkf "weight carried" 2.5 (Graph.weight sub.Subgraph.graph 0)

(* -------------------------------------------------------------------- *)
(* Stats                                                                *)

let test_stats_cycle () =
  let s = Stats.compute (Generators.cycle 6) in
  checki "n" 6 s.Stats.n;
  checki "m" 6 s.Stats.m;
  checki "min deg" 2 s.Stats.min_degree;
  checki "max deg" 2 s.Stats.max_degree;
  checkf "avg deg" 2. s.Stats.avg_degree;
  checki "components" 1 s.Stats.components

let test_stats_diameter () =
  checki "path diameter" 4 (Stats.diameter (Generators.path 5));
  checki "complete diameter" 1 (Stats.diameter (Generators.complete 5))

(* -------------------------------------------------------------------- *)
(* Generators                                                           *)

let test_gen_complete () =
  let g = Generators.complete 7 in
  checki "m" 21 (Graph.m g);
  checki "max degree" 6 (Stats.compute g).Stats.max_degree

let test_gen_grid () =
  let g = Generators.grid ~rows:3 ~cols:4 in
  checki "n" 12 (Graph.n g);
  checki "m" ((2 * 4) + (3 * 3)) (Graph.m g);
  checki "diameter" 5 (Stats.diameter g)

let test_gen_torus () =
  let g = Generators.torus ~rows:4 ~cols:4 in
  checki "m = 2n" 32 (Graph.m g);
  checki "4-regular" 4 (Stats.compute g).Stats.max_degree

let test_gen_hypercube () =
  let g = Generators.hypercube ~dim:4 in
  checki "n" 16 (Graph.n g);
  checki "m = n*dim/2" 32 (Graph.m g);
  checki "diameter = dim" 4 (Stats.diameter g)

let test_gen_gnp_bounds () =
  let r = rng () in
  let g = Generators.gnp r ~n:50 ~p:1.0 in
  checki "p=1 gives complete" (50 * 49 / 2) (Graph.m g);
  let h = Generators.gnp r ~n:50 ~p:0.0 in
  checki "p=0 gives empty" 0 (Graph.m h)

let test_gen_gnp_density () =
  let r = rng () in
  let g = Generators.gnp r ~n:120 ~p:0.3 in
  let expected = 0.3 *. float_of_int (120 * 119 / 2) in
  let actual = float_of_int (Graph.m g) in
  checkb "within 15% of expectation" true
    (abs_float (actual -. expected) < 0.15 *. expected)

let test_gen_gnm_exact () =
  let r = rng () in
  let g = Generators.gnm r ~n:30 ~m:100 in
  checki "exact edge count" 100 (Graph.m g);
  (* dense request takes the sampling path *)
  let h = Generators.gnm r ~n:20 ~m:180 in
  checki "dense exact" 180 (Graph.m h)

let test_gen_random_regular () =
  let r = rng () in
  let g = Generators.random_regular r ~n:20 ~d:4 in
  for v = 0 to 19 do
    checki (Printf.sprintf "deg %d" v) 4 (Graph.degree g v)
  done

let test_gen_barabasi_albert () =
  let r = rng () in
  let g = Generators.barabasi_albert r ~n:60 ~attach:2 in
  checki "n" 60 (Graph.n g);
  (* clique on 3 + 2 per newcomer *)
  checki "m" (3 + (57 * 2)) (Graph.m g);
  checkb "connected" true (Components.is_connected g)

let test_gen_geometric_weights () =
  let r = rng () in
  let g = Generators.random_geometric r ~n:80 ~radius:0.3 ~euclidean_weights:true in
  Graph.iter_edges g (fun e ->
      checkb "weight is distance <= radius" true (e.Graph.w <= 0.3 +. 1e-9))

let test_gen_planted_partition () =
  let r = rng () in
  let g = Generators.planted_partition r ~blocks:3 ~block_size:20 ~p_in:0.5 ~p_out:0.02 in
  checki "n" 60 (Graph.n g);
  (* count intra vs inter *)
  let intra = ref 0 and inter = ref 0 in
  Graph.iter_edges g (fun e ->
      if e.Graph.u / 20 = e.Graph.v / 20 then incr intra else incr inter);
  checkb "intra dominates" true (!intra > !inter)

let test_gen_cycle_with_chords () =
  let r = rng () in
  let g = Generators.cycle_with_chords r ~n:30 ~chords:10 in
  checki "m" 40 (Graph.m g);
  checkb "connected" true (Components.is_connected g)

let test_gen_ensure_connected () =
  let r = rng () in
  let g = Generators.gnp r ~n:60 ~p:0.02 in
  let h = Generators.ensure_connected r g in
  checkb "connected" true (Components.is_connected h);
  checkb "supergraph" true (Graph.m h >= Graph.m g)

let test_gen_with_uniform_weights () =
  let r = rng () in
  let g = Generators.cycle 10 in
  let h = Generators.with_uniform_weights r g ~lo:2. ~hi:5. in
  checki "same m" 10 (Graph.m h);
  Graph.iter_edges h (fun e ->
      checkb "weight in range" true (e.Graph.w >= 2. && e.Graph.w <= 5.))

let test_gen_determinism () =
  let g1 = Generators.gnp (Rng.create ~seed:7) ~n:40 ~p:0.2 in
  let g2 = Generators.gnp (Rng.create ~seed:7) ~n:40 ~p:0.2 in
  checki "same m" (Graph.m g1) (Graph.m g2);
  Graph.iter_edges g1 (fun e ->
      checkb "same edges" true (Graph.mem_edge g2 e.Graph.u e.Graph.v))

(* -------------------------------------------------------------------- *)
(* Graph_io                                                             *)

let test_io_round_trip () =
  let r = rng () in
  let g =
    Generators.with_uniform_weights r (Generators.connected_gnp r ~n:25 ~p:0.2)
      ~lo:0.5 ~hi:3.
  in
  let h = Graph_io.of_string (Graph_io.to_string g) in
  checki "n" (Graph.n g) (Graph.n h);
  checki "m" (Graph.m g) (Graph.m h);
  Graph.iter_edges g (fun e ->
      match Graph.find_edge h e.Graph.u e.Graph.v with
      | Some id -> checkf "weight" e.Graph.w (Graph.weight h id)
      | None -> Alcotest.fail "edge lost in round trip")

let test_io_comments_and_defaults () =
  let g = Graph_io.of_string "# header\np 3 2\ne 0 1\ne 1 2 2.5\n" in
  checki "m" 2 (Graph.m g);
  checkf "default weight" 1.0 (Graph.weight g 0);
  checkf "explicit weight" 2.5 (Graph.weight g 1)

let test_io_rejects_garbage () =
  (try
     ignore (Graph_io.of_string "e 0 1\n");
     Alcotest.fail "edge before p should fail"
   with Failure _ -> ());
  try
    ignore (Graph_io.of_string "p 2 1\ne 0 5\n");
    Alcotest.fail "out-of-range vertex should fail"
  with Failure _ -> ()

let test_io_file_round_trip () =
  let g = Generators.cycle 8 in
  let file = Filename.temp_file "ftspan" ".graph" in
  Graph_io.save g file;
  let h = Graph_io.load file in
  Sys.remove file;
  checki "m" 8 (Graph.m h)

let test_io_to_dot () =
  let g = Graph.of_weighted_edges 3 [ (0, 1, 2.5); (1, 2, 1.0) ] in
  let dot = Graph_io.to_dot ~highlight:[| true; false |] g in
  checkb "graph block" true
    (String.length dot > 0 && String.sub dot 0 5 = "graph");
  checkb "edge present" true
    (let re = "0 -- 1" in
     let rec find i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || find (i + 1))
     in
     find 0);
  checkb "highlight color used" true
    (let re = "penwidth" in
     let rec find i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || find (i + 1))
     in
     find 0)

(* -------------------------------------------------------------------- *)
(* Graph_binio + storage backends                                       *)

let with_temp_file suffix fn =
  let file = Filename.temp_file "ftspan_test" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> fn file)

let sample_weighted () =
  let r = rng () in
  Generators.with_uniform_weights r
    (Generators.connected_gnp r ~n:40 ~p:0.15)
    ~lo:0.5 ~hi:3.

let test_binio_round_trip () =
  let check_graph g =
    with_temp_file ".ftsb" @@ fun file ->
    Graph_io.save g file;
    let h = Graph_io.load file in
    check Alcotest.string "canonical text identical" (Graph_io.to_string g)
      (Graph_io.to_string h);
    checkb "binary load lands on int32" true
      (Graph.backend h = Csr.Int32_bigarray);
    checkb "int32 adjacency is smaller" true
      (Graph.resident_bytes h < Graph.resident_bytes g)
  in
  check_graph (sample_weighted ());
  check_graph (Generators.grid ~rows:6 ~cols:7);
  check_graph (Graph.create 3)

let test_binio_text_binary_text () =
  let g = sample_weighted () in
  with_temp_file ".graph" @@ fun text_file ->
  with_temp_file ".ftsb" @@ fun bin_file ->
  Graph_io.save g text_file;
  let gt = Graph_io.load text_file in
  Graph_io.save gt bin_file;
  let gb = Graph_io.load bin_file in
  check Alcotest.string "text -> binary -> text bit-identical"
    (Graph_io.to_string gt) (Graph_io.to_string gb)

let test_binio_not_a_graph () =
  let expect_not_a_graph label file =
    try
      ignore (Graph_binio.load file);
      Alcotest.fail (label ^ " should raise Not_a_graph")
    with Graph_binio.Not_a_graph _ -> ()
  in
  with_temp_file ".ftsb" @@ fun file ->
  let put s = Out_channel.with_open_bin file (fun oc -> output_string oc s) in
  put "not a graph at all, just prose long enough to pass the size check";
  expect_not_a_graph "garbage" file;
  put "xy";
  expect_not_a_graph "too short for the magic" file

let test_binio_corrupt () =
  let g = Generators.cycle 9 in
  let bytes_of file = In_channel.with_open_bin file In_channel.input_all in
  let expect_corrupt label s =
    with_temp_file ".ftsb" @@ fun file ->
    Out_channel.with_open_bin file (fun oc -> output_string oc s);
    try
      ignore (Graph_binio.load file);
      Alcotest.fail (label ^ " should raise Corrupt")
    with Graph_binio.Corrupt _ -> ()
  in
  with_temp_file ".ftsb" @@ fun file ->
  Graph_binio.save g file;
  let good = bytes_of file in
  (* truncated header: magic intact, header cut short *)
  expect_corrupt "truncated header" (String.sub good 0 20);
  (* truncated body: full header, adjacency regions cut *)
  expect_corrupt "truncated body" (String.sub good 0 (String.length good - 8));
  expect_corrupt "trailing bytes" (good ^ "\000\000\000\000");
  let patch pos value =
    let b = Bytes.of_string good in
    Bytes.set b pos value;
    Bytes.to_string b
  in
  (* wrong version: u32 at offset 8 *)
  expect_corrupt "wrong version" (patch 8 '\009');
  (* oversize m: u64 at offset 24; 0xff in the high byte overflows int32 *)
  expect_corrupt "oversize edge count" (patch 31 '\xff');
  (* bad magic is the not-a-graph class, not corruption *)
  with_temp_file ".ftsb" @@ fun bad ->
  Out_channel.with_open_bin bad (fun oc -> output_string oc (patch 0 'X'));
  (try
     ignore (Graph_binio.load bad);
     Alcotest.fail "bad magic should raise Not_a_graph"
   with Graph_binio.Not_a_graph _ -> ())

let test_binio_corrupt_adjacency () =
  (* A structurally valid file whose adjacency does not pair up: patch
     one neighbor entry of a valid dump.  The loader must reject it
     through the Graph.of_adjacency validation, as Corrupt. *)
  let g = Generators.cycle 9 in
  with_temp_file ".ftsb" @@ fun file ->
  Graph_binio.save g file;
  let good = In_channel.with_open_bin file In_channel.input_all in
  let b = Bytes.of_string good in
  (* first nbr entry lives at offset 40 + 4*(n+1); cycle 9 -> n = 9 *)
  Bytes.set_int32_le b (40 + (4 * 10)) 7l;
  Out_channel.with_open_bin file (fun oc -> output_bytes oc b);
  try
    ignore (Graph_binio.load file);
    Alcotest.fail "mismatched adjacency should raise Corrupt"
  with Graph_binio.Corrupt _ -> ()

let test_backend_mutation_after_load () =
  (* The mmap is private (copy-on-write): growing a binary-loaded graph
     must not disturb the loaded adjacency or the on-disk file. *)
  let g = Generators.cycle 6 in
  with_temp_file ".ftsb" @@ fun file ->
  Graph_io.save g file;
  let h = Graph_io.load file in
  ignore (Graph.add_edge h 0 3 ~w:2.0);
  checki "edge added" 7 (Graph.m h);
  checkb "new edge visible" true (Graph.mem_edge h 0 3);
  let again = Graph_io.load file in
  checki "file unchanged" 6 (Graph.m again)

let test_csr_limits () =
  checkb "int32 half-edge limit" true
    (Csr.max_half Csr.Int32_bigarray = Int32.to_int Int32.max_int);
  checkb "int limit covers arrays" true
    (Csr.max_half Csr.Int_array = Sys.max_array_length);
  Alcotest.check_raises "int32 backend rejects oversize n"
    (Invalid_argument
       "Csr.create: vertex count exceeds the int32 backend's index range")
    (fun () ->
      ignore (Csr.create ~backend:Csr.Int32_bigarray (Int32.to_int Int32.max_int)))

(* -------------------------------------------------------------------- *)
(* Rng                                                                  *)

let test_rng_determinism () =
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bernoulli_extremes () =
  let r = rng () in
  checkb "p=0" false (Rng.bernoulli r ~p:0.);
  checkb "p=1" true (Rng.bernoulli r ~p:1.)

let test_rng_sample_without_replacement () =
  let r = rng () in
  for _ = 1 to 20 do
    let s = Rng.sample_without_replacement r ~k:5 ~n:10 in
    checki "size" 5 (List.length s);
    checki "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> checkb "in range" true (x >= 0 && x < 10)) s
  done;
  check (Alcotest.list Alcotest.int) "k=n is everything" [ 0; 1; 2 ]
    (Rng.sample_without_replacement r ~k:3 ~n:3)

let test_rng_permutation () =
  let r = rng () in
  let p = Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_exponential_positive () =
  let r = rng () in
  for _ = 1 to 100 do
    checkb "positive" true (Rng.exponential r ~rate:0.5 >= 0.)
  done

let test_rng_exponential_mean () =
  let r = rng () in
  let total = ref 0. in
  let trials = 20_000 in
  for _ = 1 to trials do
    total := !total +. Rng.exponential r ~rate:2.0
  done;
  let mean = !total /. float_of_int trials in
  checkb "mean near 1/rate" true (abs_float (mean -. 0.5) < 0.03)

let test_rng_split_independent () =
  let r = Rng.create ~seed:3 in
  let a = Rng.split r in
  let x = Rng.int a 1_000_000 in
  (* consuming from r must not change a's past draw; recreate to compare *)
  let r2 = Rng.create ~seed:3 in
  let a2 = Rng.split r2 in
  checki "split deterministic" x (Rng.int a2 1_000_000)

let () =
  Alcotest.run "graph substrate"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_graph_empty;
          Alcotest.test_case "add edge" `Quick test_graph_add_edge;
          Alcotest.test_case "rejects self-loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "rejects duplicate" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "rejects bad weight" `Quick test_graph_rejects_bad_weight;
          Alcotest.test_case "loaders reject bad weight" `Quick
            test_graph_loaders_reject_bad_weight;
          Alcotest.test_case "rejects out of range" `Quick test_graph_rejects_out_of_range;
          Alcotest.test_case "grows storage" `Quick test_graph_grows_storage;
          Alcotest.test_case "iterators" `Quick test_graph_iterators;
          Alcotest.test_case "copy independent" `Quick test_graph_copy_independent;
          Alcotest.test_case "unit weighted" `Quick test_graph_unit_weighted;
          Alcotest.test_case "find edge" `Quick test_graph_find_edge;
        ] );
      ( "csr",
        [
          Alcotest.test_case "growth invariants" `Quick
            test_csr_invariants_under_growth;
          Alcotest.test_case "compact preserves order" `Quick
            test_csr_compact_preserves_iteration;
          Alcotest.test_case "views equivalent" `Quick test_csr_views_equivalent;
          Alcotest.test_case "matches list model" `Quick
            test_csr_matches_list_model;
        ] );
      ( "path",
        [
          Alcotest.test_case "basic" `Quick test_path_basic;
          Alcotest.test_case "single vertex" `Quick test_path_single_vertex;
          Alcotest.test_case "invalid detected" `Quick test_path_invalid_detected;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "duplicates and clear" `Quick test_pqueue_duplicates_and_clear;
          Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved;
          Alcotest.test_case "matches swap model" `Quick
            test_pqueue_matches_swap_model;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "distances" `Quick test_bfs_distances_path_graph;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "hop bound respected" `Quick test_bfs_hop_bounded_respects_limit;
          Alcotest.test_case "min hop" `Quick test_bfs_finds_min_hop;
          Alcotest.test_case "blocked vertex" `Quick test_bfs_blocked_vertex;
          Alcotest.test_case "blocked edge" `Quick test_bfs_blocked_edge;
          Alcotest.test_case "blocked terminal" `Quick test_bfs_blocked_terminal;
          Alcotest.test_case "src=dst" `Quick test_bfs_src_eq_dst;
          Alcotest.test_case "workspace reuse" `Quick test_bfs_workspace_reuse;
          Alcotest.test_case "workspace grows" `Quick test_bfs_workspace_grows;
          Alcotest.test_case "eccentricity" `Quick test_bfs_eccentricity;
          Alcotest.test_case "hop distance" `Quick test_bfs_hop_distance;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "weighted shortcut" `Quick test_dijkstra_weighted_shortcut;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable_infinity;
          Alcotest.test_case "cutoff" `Quick test_dijkstra_distance_upto_cutoff;
          Alcotest.test_case "shortest path" `Quick test_dijkstra_shortest_path_valid;
          Alcotest.test_case "matches bfs on unit" `Quick test_dijkstra_blocked_matches_bfs_on_unit;
          Alcotest.test_case "seeded loop property" `Quick test_dijkstra_seeded_property;
        ] );
      ( "hop_dp",
        [
          Alcotest.test_case "budget filters" `Quick test_hop_dp_budget_filters;
          Alcotest.test_case "no path within budget" `Quick test_hop_dp_no_path_within_budget;
          Alcotest.test_case "max hops binds" `Quick test_hop_dp_max_hops_binds;
          Alcotest.test_case "respects blocks" `Quick test_hop_dp_respects_blocks;
          Alcotest.test_case "agrees with bfs" `Quick test_hop_dp_agrees_with_bfs_on_unit;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basics" `Quick test_union_find_basics;
          Alcotest.test_case "transitivity" `Quick test_union_find_transitivity;
        ] );
      ( "components",
        [
          Alcotest.test_case "two islands" `Quick test_components_two_islands;
          Alcotest.test_case "vertex faults" `Quick test_components_under_faults;
          Alcotest.test_case "edge faults" `Quick test_components_edge_faults;
        ] );
      ( "girth",
        [
          Alcotest.test_case "forest" `Quick test_girth_tree_none;
          Alcotest.test_case "cycles" `Quick test_girth_cycle;
          Alcotest.test_case "complete" `Quick test_girth_complete;
          Alcotest.test_case "hypercube" `Quick test_girth_hypercube;
          Alcotest.test_case "exceeds" `Quick test_girth_exceeds;
          Alcotest.test_case "petersen" `Quick test_girth_petersen;
        ] );
      ( "subgraph",
        [
          Alcotest.test_case "induced" `Quick test_subgraph_induced;
          Alcotest.test_case "vertex map inverse" `Quick test_subgraph_of_parent_inverse;
          Alcotest.test_case "edge subset" `Quick test_subgraph_edge_subset;
          Alcotest.test_case "weights preserved" `Quick test_subgraph_induced_weights_preserved;
        ] );
      ( "stats",
        [
          Alcotest.test_case "cycle" `Quick test_stats_cycle;
          Alcotest.test_case "diameter" `Quick test_stats_diameter;
        ] );
      ( "generators",
        [
          Alcotest.test_case "complete" `Quick test_gen_complete;
          Alcotest.test_case "grid" `Quick test_gen_grid;
          Alcotest.test_case "torus" `Quick test_gen_torus;
          Alcotest.test_case "hypercube" `Quick test_gen_hypercube;
          Alcotest.test_case "gnp bounds" `Quick test_gen_gnp_bounds;
          Alcotest.test_case "gnp density" `Quick test_gen_gnp_density;
          Alcotest.test_case "gnm exact" `Quick test_gen_gnm_exact;
          Alcotest.test_case "random regular" `Quick test_gen_random_regular;
          Alcotest.test_case "barabasi-albert" `Quick test_gen_barabasi_albert;
          Alcotest.test_case "geometric weights" `Quick test_gen_geometric_weights;
          Alcotest.test_case "planted partition" `Quick test_gen_planted_partition;
          Alcotest.test_case "cycle with chords" `Quick test_gen_cycle_with_chords;
          Alcotest.test_case "ensure connected" `Quick test_gen_ensure_connected;
          Alcotest.test_case "uniform weights" `Quick test_gen_with_uniform_weights;
          Alcotest.test_case "determinism" `Quick test_gen_determinism;
        ] );
      ( "graph_io",
        [
          Alcotest.test_case "round trip" `Quick test_io_round_trip;
          Alcotest.test_case "comments and defaults" `Quick test_io_comments_and_defaults;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "file round trip" `Quick test_io_file_round_trip;
          Alcotest.test_case "to_dot" `Quick test_io_to_dot;
        ] );
      ( "graph_binio",
        [
          Alcotest.test_case "binary round trip" `Quick test_binio_round_trip;
          Alcotest.test_case "text->binary->text" `Quick test_binio_text_binary_text;
          Alcotest.test_case "not a graph" `Quick test_binio_not_a_graph;
          Alcotest.test_case "corrupt files" `Quick test_binio_corrupt;
          Alcotest.test_case "corrupt adjacency" `Quick test_binio_corrupt_adjacency;
        ] );
      ( "backend",
        [
          Alcotest.test_case "mutate after load" `Quick test_backend_mutation_after_load;
          Alcotest.test_case "index limits" `Quick test_csr_limits;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "sampling" `Quick test_rng_sample_without_replacement;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
    ]
