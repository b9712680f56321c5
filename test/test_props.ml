(* Property-based tests (qcheck, run under alcotest): randomized invariants
   over the core data structures and algorithms.

   The generators draw small random graphs so the expensive oracles
   (exhaustive fault enumeration, the exact Length-Bounded Cut solver) stay
   cheap per case while the case count stays high. *)

let seeded_rng seed = Rng.create ~seed

(* ----------------------- graph generators ---------------------------- *)

(* A random connected unit-weight graph described by (seed, n, density). *)
let arb_graph_desc =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "(seed=%d, n=%d, p=%.2f)" seed n p)
    QCheck.Gen.(
      triple (int_bound 100_000) (int_range 4 24) (float_range 0.1 0.6))

let graph_of (seed, n, p) = Generators.connected_gnp (seeded_rng seed) ~n ~p

let weighted_graph_of (seed, n, p) =
  let r = seeded_rng (seed + 77) in
  Generators.with_uniform_weights r (graph_of (seed, n, p)) ~lo:0.25 ~hi:4.0

(* --------------------------- properties ------------------------------ *)

let prop_bfs_dist_matches_path_hops =
  QCheck.Test.make ~count:60 ~name:"bfs: extracted path length = distance"
    arb_graph_desc (fun desc ->
      let g = graph_of desc in
      let n = Graph.n g in
      let d = Bfs.distances g 0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        if v <> 0 then begin
          match Bfs.hop_bounded_path g ~src:0 ~dst:v ~max_hops:n with
          | Some p ->
              if Path.hops p <> d.(v) || not (Path.is_valid g p) then ok := false
          | None -> if d.(v) >= 0 then ok := false
        end
      done;
      !ok)

let prop_dijkstra_triangle_inequality =
  QCheck.Test.make ~count:40 ~name:"dijkstra: distances satisfy triangle inequality"
    arb_graph_desc (fun desc ->
      let g = weighted_graph_of desc in
      let n = Graph.n g in
      let d0 = Dijkstra.distances g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun e ->
          if d0.(e.Graph.u) +. e.Graph.w +. 1e-9 < d0.(e.Graph.v) then ok := false;
          if d0.(e.Graph.v) +. e.Graph.w +. 1e-9 < d0.(e.Graph.u) then ok := false);
      ignore n;
      !ok)

let prop_dijkstra_vs_bfs_unit =
  QCheck.Test.make ~count:40 ~name:"dijkstra = bfs on unit weights" arb_graph_desc
    (fun desc ->
      let g = graph_of desc in
      let db = Bfs.distances g 0 in
      let dd = Dijkstra.distances g 0 in
      let ok = ref true in
      Array.iteri
        (fun v bd ->
          let expect = if bd < 0 then infinity else float_of_int bd in
          if dd.(v) <> expect then ok := false)
        db;
      !ok)

let prop_lbc_yes_certificate =
  QCheck.Test.make ~count:60 ~name:"lbc: YES certificate is a genuine cut"
    (QCheck.pair arb_graph_desc (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun (desc, pick) ->
      let g = graph_of desc in
      let n = Graph.n g in
      let u = pick mod n and v = (pick / n) mod n in
      if u = v then true
      else
        List.for_all
          (fun mode ->
            match Lbc.decide ~mode g ~u ~v ~t:3 ~alpha:2 with
            | Lbc.Yes { cut } -> Lbc_exact.is_cut ~mode g ~u ~v ~t:3 cut
            | Lbc.No _ -> true)
          [ Fault.VFT; Fault.EFT ])

let prop_lbc_gap_theorem4 =
  QCheck.Test.make ~count:50 ~name:"lbc: Theorem 4 gap promise" arb_graph_desc
    (fun desc ->
      let g = graph_of desc in
      let n = Graph.n g in
      let u = 0 and v = n - 1 in
      let t = 3 and alpha = 1 in
      let verdict = Lbc.decide ~mode:Fault.VFT g ~u ~v ~t ~alpha in
      (match Lbc_exact.min_cut ~mode:Fault.VFT g ~u ~v ~t ~limit:alpha with
      | Some _ -> ( match verdict with Lbc.Yes _ -> true | Lbc.No _ -> false)
      | None -> true)
      &&
      (* soundness side: if LBC said YES its certificate already witnesses a
         cut of size <= alpha * t, consistent with the gap *)
      match verdict with
      | Lbc.Yes { cut } -> List.length cut <= alpha * t
      | Lbc.No _ -> true)

let prop_poly_greedy_spanner_under_random_faults =
  QCheck.Test.make ~count:25 ~name:"poly greedy: sampled fault sets never violated"
    arb_graph_desc (fun desc ->
      let g = graph_of desc in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
      let r = seeded_rng 5 in
      Verify.ok (Verify.random ~cfg:(Verify.config ~rng:r ~trials:20 ()) sel ~mode:Fault.VFT ~stretch:3.0 ~f:1)
      && Verify.ok
           (Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:20 ()) sel ~mode:Fault.VFT ~stretch:3.0 ~f:1))

let prop_poly_greedy_exhaustive_f1 =
  QCheck.Test.make ~count:12 ~name:"poly greedy: exhaustive f=1 VFT"
    arb_graph_desc (fun desc ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 13, p) in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
      Verify.ok (Verify.exhaustive sel ~mode:Fault.VFT ~stretch:3.0 ~f:1))

let prop_poly_greedy_weighted_exhaustive =
  QCheck.Test.make ~count:10 ~name:"poly greedy: weighted exhaustive f=1 (Thm 10)"
    arb_graph_desc (fun desc ->
      let seed, n, p = desc in
      let g = weighted_graph_of (seed, min n 12, p) in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
      Verify.ok (Verify.exhaustive sel ~mode:Fault.VFT ~stretch:3.0 ~f:1))

let prop_poly_greedy_eft_exhaustive =
  QCheck.Test.make ~count:8 ~name:"poly greedy: exhaustive f=1 EFT" arb_graph_desc
    (fun desc ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 11, p) in
      let sel = Poly_greedy.build ~mode:Fault.EFT ~k:2 ~f:1 g in
      Verify.ok
        (Verify.exhaustive ~cfg:(Verify.config ~max_sets:1e5 ()) sel ~mode:Fault.EFT ~stretch:3.0 ~f:1))

let prop_classic_greedy_girth =
  QCheck.Test.make ~count:30 ~name:"classic greedy: girth > 2k" arb_graph_desc
    (fun desc ->
      let g = graph_of desc in
      List.for_all
        (fun k ->
          let sel = Classic_greedy.build ~k g in
          let sub = Selection.to_subgraph sel in
          Girth.girth_exceeds sub.Subgraph.graph ~bound:(2 * k))
        [ 2; 3 ])

let prop_exp_greedy_subset_check =
  QCheck.Test.make ~count:10 ~name:"exp greedy: exhaustive f=1 on small graphs"
    arb_graph_desc (fun desc ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 11, p) in
      let sel = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
      Verify.ok (Verify.exhaustive sel ~mode:Fault.VFT ~stretch:3.0 ~f:1))

let prop_greedy_poly_never_sparser_than_exp_intuition =
  QCheck.Test.make ~count:12
    ~name:"poly greedy adds whenever exp greedy must (per-instance size sanity)"
    arb_graph_desc (fun desc ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 13, p) in
      let poly = (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g).Selection.size in
      let ex = (Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g).Selection.size in
      (* the poly spanner is valid, the exp spanner is the sparsest greedy
         benchmark; allow poly to be smaller only by luck of ordering but
         never below the connectivity floor *)
      poly >= Graph.n g - 1 || poly >= ex || Graph.m g < Graph.n g - 1)

let prop_baswana_sen_valid =
  QCheck.Test.make ~count:20 ~name:"baswana-sen: always a (2k-1)-spanner"
    (QCheck.pair arb_graph_desc (QCheck.make QCheck.Gen.(int_range 1 3)))
    (fun (desc, k) ->
      let g = weighted_graph_of desc in
      let sel = Baswana_sen.build (seeded_rng 11) ~k g in
      Verify.ok
        (Verify.exhaustive sel ~mode:Fault.VFT
           ~stretch:(float_of_int ((2 * k) - 1))
           ~f:0))

let prop_selection_union_commutes =
  QCheck.Test.make ~count:40 ~name:"selection: union is commutative and idempotent"
    (QCheck.triple arb_graph_desc (QCheck.make QCheck.Gen.(int_bound 1000))
       (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun (desc, a, b) ->
      let g = graph_of desc in
      let m = Graph.m g in
      if m = 0 then true
      else begin
        let ids1 = [ a mod m; b mod m ] and ids2 = [ b mod m ] in
        let s1 = Selection.of_ids g ids1 and s2 = Selection.of_ids g ids2 in
        Selection.ids (Selection.union s1 s2) = Selection.ids (Selection.union s2 s1)
        && Selection.ids (Selection.union s1 s1) = Selection.ids s1
      end)

let prop_subgraph_induced_edge_count =
  QCheck.Test.make ~count:40 ~name:"subgraph: induced edges = edges with both ends kept"
    (QCheck.pair arb_graph_desc (QCheck.make QCheck.Gen.(int_bound 1_000_000)))
    (fun (desc, mask_seed) ->
      let g = graph_of desc in
      let r = seeded_rng mask_seed in
      let keep = Array.init (Graph.n g) (fun _ -> Rng.bool r) in
      let sub = Subgraph.induced_mask g keep in
      let expected =
        Graph.fold_edges g 0 (fun acc e ->
            if keep.(e.Graph.u) && keep.(e.Graph.v) then acc + 1 else acc)
      in
      Graph.m sub.Subgraph.graph = expected)

let prop_fault_enumerate_size_bound =
  QCheck.Test.make ~count:30 ~name:"fault: enumeration respects the size bound"
    (QCheck.pair arb_graph_desc (QCheck.make QCheck.Gen.(int_range 0 2)))
    (fun (desc, f) ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 8, p) in
      let ok = ref true in
      let count = ref 0 in
      Fault.enumerate Fault.VFT g ~f (fun fault ->
          incr count;
          if List.length fault.Fault.members > f then ok := false);
      !ok
      && abs_float (float_of_int !count -. Fault.count_subsets ~universe:(Graph.n g) ~f)
         < 0.5)

let prop_verify_full_graph_is_1_spanner =
  QCheck.Test.make ~count:20 ~name:"verify: G is a 1-spanner of itself under faults"
    arb_graph_desc (fun desc ->
      let g = weighted_graph_of desc in
      let sel = Selection.full g in
      let r = seeded_rng 3 in
      Verify.ok (Verify.random ~cfg:(Verify.config ~rng:r ~trials:15 ()) sel ~mode:Fault.VFT ~stretch:1.0 ~f:2)
      && Verify.ok (Verify.random ~cfg:(Verify.config ~rng:r ~trials:15 ()) sel ~mode:Fault.EFT ~stretch:1.0 ~f:2))

let prop_girth_consistency =
  QCheck.Test.make ~count:40 ~name:"girth: girth_exceeds consistent with girth"
    arb_graph_desc (fun desc ->
      let g = graph_of desc in
      match Girth.girth g with
      | None -> Girth.girth_exceeds g ~bound:(2 * Graph.n g)
      | Some girth ->
          Girth.girth_exceeds g ~bound:(girth - 1)
          && not (Girth.girth_exceeds g ~bound:girth))

let prop_io_round_trip =
  QCheck.Test.make ~count:30 ~name:"graph_io: parse . print = id" arb_graph_desc
    (fun desc ->
      let g = weighted_graph_of desc in
      let h = Graph_io.of_string (Graph_io.to_string g) in
      Graph.n g = Graph.n h && Graph.m g = Graph.m h
      && Graph.fold_edges g true (fun acc e ->
             acc
             &&
             match Graph.find_edge h e.Graph.u e.Graph.v with
             | Some id -> abs_float (Graph.weight h id -. e.Graph.w) < 1e-9
             | None -> false))

let prop_local_spanner_valid =
  QCheck.Test.make ~count:8 ~name:"local spanner: sampled faults never violated"
    arb_graph_desc (fun desc ->
      let seed, n, p = desc in
      let g = graph_of (seed, max 10 n, p) in
      let r = seeded_rng (seed + 1) in
      let res = Local_spanner.build r ~mode:Fault.VFT ~k:2 ~f:1 g in
      Verify.ok
        (Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:15 ()) res.Local_spanner.selection ~mode:Fault.VFT
           ~stretch:3.0 ~f:1))

let prop_congest_bs_valid =
  QCheck.Test.make ~count:10 ~name:"congest baswana-sen: always a (2k-1)-spanner"
    arb_graph_desc (fun desc ->
      let g = weighted_graph_of desc in
      let res = Congest_bs.build (seeded_rng 13) ~k:2 g in
      Verify.ok
        (Verify.exhaustive res.Congest_bs.selection ~mode:Fault.VFT
           ~stretch:3.0 ~f:0))

let prop_oracle_stretch =
  QCheck.Test.make ~count:15 ~name:"oracle: query within [exact, (2k-1) exact]"
    arb_graph_desc (fun desc ->
      let g = weighted_graph_of desc in
      let oracle = Oracle.build (seeded_rng 17) ~k:2 g in
      let ok = ref true in
      for u = 0 to Graph.n g - 1 do
        let exact = Dijkstra.distances g u in
        for v = 0 to Graph.n g - 1 do
          let est = Oracle.query oracle u v in
          if exact.(v) = infinity then begin
            if est <> infinity then ok := false
          end
          else if est < exact.(v) -. 1e-9 || est > (3. *. exact.(v)) +. 1e-9 then
            ok := false
        done
      done;
      !ok)

let prop_incremental_equals_offline =
  QCheck.Test.make ~count:20 ~name:"dynamic: stream = offline input order"
    arb_graph_desc (fun desc ->
      let g = graph_of desc in
      let d =
        Dynamic.create
          ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ())
          (Graph.create (Graph.n g))
      in
      Graph.iter_edges g (fun e ->
          ignore
            (Dynamic.apply d
               [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = e.Graph.w } ]));
      let offline =
        Poly_greedy.build ~order:Poly_greedy.Input_order ~mode:Fault.VFT ~k:2
          ~f:1 g
      in
      Selection.ids (Dynamic.snapshot d) = Selection.ids offline)

(* The differential check against the facade: streaming a nondecreasing-
   weight edge sequence through [Dynamic.apply] must reproduce
   [Spanner.build] (default algorithm + order = greedy by weight) on the
   final graph, even when the final graph lists its edges in a different
   order.  Distinct weights make the by-weight order a strict total order,
   so both sides process the same sequence.  Selections live over
   different [Graph.t] values, so we compare canonical endpoint sets. *)
let prop_incremental_sorted_equals_spanner_build =
  QCheck.Test.make ~count:12
    ~name:"dynamic: sorted stream = Spanner.build on final graph"
    (QCheck.pair arb_graph_desc
       (QCheck.make
          ~print:(fun (k, f, eft) ->
            Printf.sprintf "(k=%d, f=%d, %s)" k f (if eft then "EFT" else "VFT"))
          QCheck.Gen.(triple (int_range 2 3) (int_range 0 2) bool)))
    (fun (desc, (k, f, eft)) ->
      let mode = if eft then Fault.EFT else Fault.VFT in
      let seed, _, _ = desc in
      let g0 = graph_of desc in
      let edges = ref [] in
      Graph.iter_edges g0 (fun e -> edges := (e.Graph.u, e.Graph.v) :: !edges);
      let edges = Array.of_list !edges in
      let m = Array.length edges in
      (* distinct weights 1..m, shuffled so weight order <> id order *)
      let weights = Array.init m (fun i -> float_of_int (i + 1)) in
      Rng.shuffle (seeded_rng (seed + 4242)) weights;
      let final =
        Graph.of_weighted_edges (Graph.n g0)
          (Array.to_list (Array.mapi (fun i (u, v) -> (u, v, weights.(i))) edges))
      in
      let offline = Spanner.build { Spanner.k; f; mode } final in
      let d =
        Dynamic.create ~opts:(Dynamic.opts ~mode ~k ~f ())
          (Graph.create (Graph.n g0))
      in
      let order = Array.init m (fun i -> i) in
      Array.sort (fun a b -> compare weights.(a) weights.(b)) order;
      Array.iter
        (fun i ->
          let u, v = edges.(i) in
          ignore (Dynamic.apply d [ Dynamic.Insert { u; v; w = weights.(i) } ]))
        order;
      let canon sel =
        List.sort compare
          (List.map
             (fun id ->
               let u, v = Graph.endpoints sel.Selection.source id in
               (min u v, max u v))
             (Selection.ids sel))
      in
      canon (Dynamic.snapshot d) = canon offline)

let prop_blocking_certificates =
  QCheck.Test.make ~count:15 ~name:"blocking: greedy certificates block all short cycles"
    arb_graph_desc (fun desc ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 18, p) in
      let sel, certs =
        Poly_greedy.build_with_certificates ~mode:Fault.VFT ~k:2 ~f:1 g
      in
      let b = Blocking.of_certificates sel certs in
      match Blocking.is_blocking b ~t_bound:4 with
      | Ok None -> true
      | Ok (Some _) -> false
      | Error _ -> true (* enumeration limit: inconclusive, not a failure *))

let prop_batch_greedy_valid_any_batch =
  QCheck.Test.make ~count:12 ~name:"batch greedy: valid at random batch sizes"
    (QCheck.pair arb_graph_desc (QCheck.make QCheck.Gen.(int_range 1 40)))
    (fun (desc, batch) ->
      let seed, n, p = desc in
      let g = graph_of (seed, min n 12, p) in
      let sel = Poly_greedy.build ~batch ~mode:Fault.VFT ~k:2 ~f:1 g in
      Verify.ok
        (Verify.exhaustive sel ~mode:Fault.VFT
           ~stretch:3.0 ~f:1))

let prop_synchronizer_completes =
  QCheck.Test.make ~count:10 ~name:"synchronizer: full skeleton always completes"
    arb_graph_desc (fun desc ->
      let seed, _, _ = desc in
      let g = graph_of desc in
      let rep =
        Synchronizer.run (seeded_rng seed) ~pulses:4 ~skeleton:(Selection.full g) g
      in
      rep.Synchronizer.pulses = 4 && rep.Synchronizer.survivors_connected)

let prop_blow_up_counts =
  QCheck.Test.make ~count:25 ~name:"blow-up: n and m scale by c and c^2"
    (QCheck.pair arb_graph_desc (QCheck.make QCheck.Gen.(int_range 1 4)))
    (fun (desc, c) ->
      let g = graph_of desc in
      let b = Lower_bound.blow_up g ~copies:c in
      Graph.n b = Graph.n g * c && Graph.m b = Graph.m g * c * c)

let prop_io_parser_total =
  (* The parser must reject garbage with [Failure], never crash with
     anything else, and must re-accept anything it printed. *)
  QCheck.Test.make ~count:200 ~name:"graph_io: parser is total (Failure or value)"
    (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_bound 80)))
    (fun s ->
      match Graph_io.of_string s with
      | g -> Graph.n g >= 0
      | exception Failure _ -> true)

let prop_mapped_copy_bit_identical =
  (* A graph's origin must be invisible to every algorithm: a graph
     built in memory (its newest edges typically still in the append
     buffer) and its copy mapped from a binary file (packed only) yield bit-identical
     BFS parents, Dijkstra distances, and greedy spanner selections,
     because both present half-edges in the same order. *)
  QCheck.Test.make ~count:40 ~name:"origins: mapped copy is bit-identical"
    arb_graph_desc (fun desc ->
      let g = weighted_graph_of desc in
      let g32 = Int32_graph.of_graph g in
      let bfs_same =
        Bfs.distances g 0 = Bfs.distances g32 0
        && Bfs.hop_bounded_path g ~src:0 ~dst:(Graph.n g - 1)
             ~max_hops:(Graph.n g)
           = Bfs.hop_bounded_path g32 ~src:0 ~dst:(Graph.n g - 1)
               ~max_hops:(Graph.n g)
      in
      let dij_same = Dijkstra.distances g 0 = Dijkstra.distances g32 0 in
      let sel mode gr = (Poly_greedy.build ~mode ~k:2 ~f:1 gr).Selection.selected in
      let greedy_same =
        sel Fault.VFT g = sel Fault.VFT g32 && sel Fault.EFT g = sel Fault.EFT g32
      in
      bfs_same && dij_same && greedy_same)

let prop_binio_round_trip =
  QCheck.Test.make ~count:25 ~name:"graph_binio: save/load is the identity"
    arb_graph_desc (fun desc ->
      let g = weighted_graph_of desc in
      let file = Filename.temp_file "ftspan_prop" ".ftsb" in
      Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
      Graph_io.save g file;
      let h = Graph_io.load file in
      Graph_io.to_string g = Graph_io.to_string h)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bfs_dist_matches_path_hops;
      prop_dijkstra_triangle_inequality;
      prop_dijkstra_vs_bfs_unit;
      prop_lbc_yes_certificate;
      prop_lbc_gap_theorem4;
      prop_poly_greedy_spanner_under_random_faults;
      prop_poly_greedy_exhaustive_f1;
      prop_poly_greedy_weighted_exhaustive;
      prop_poly_greedy_eft_exhaustive;
      prop_classic_greedy_girth;
      prop_exp_greedy_subset_check;
      prop_greedy_poly_never_sparser_than_exp_intuition;
      prop_baswana_sen_valid;
      prop_selection_union_commutes;
      prop_subgraph_induced_edge_count;
      prop_fault_enumerate_size_bound;
      prop_verify_full_graph_is_1_spanner;
      prop_girth_consistency;
      prop_io_round_trip;
      prop_mapped_copy_bit_identical;
      prop_binio_round_trip;
      prop_local_spanner_valid;
      prop_congest_bs_valid;
      prop_oracle_stretch;
      prop_incremental_equals_offline;
      prop_incremental_sorted_equals_spanner_build;
      prop_blocking_certificates;
      prop_batch_greedy_valid_any_batch;
      prop_synchronizer_completes;
      prop_blow_up_counts;
      prop_io_parser_total;
    ]

let () = Alcotest.run "properties" [ ("qcheck", suite) ]
