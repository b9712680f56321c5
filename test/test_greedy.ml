(* Tests for the greedy spanner constructions: the classic non-fault-
   tolerant greedy (ADD+93), the exponential greedy baseline (Algorithm 1)
   and the paper's polynomial modified greedy (Algorithms 3/4).  Validation
   is against the exhaustive/sampled fault verifier and the exact size
   bounds. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng () = Rng.create ~seed:99

let stretch k = float_of_int ((2 * k) - 1)

let assert_ft_spanner_exhaustive ?(max_sets = 2e6) sel ~mode ~k ~f label =
  let report = Verify.exhaustive ~cfg:(Verify.config ~max_sets ()) sel ~mode ~stretch:(stretch k) ~f in
  match report.Verify.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: %s" label (Format.asprintf "%a" Verify.pp_violation v)

let assert_ft_spanner_sampled sel ~mode ~k ~f label =
  let cfg = Verify.config ~rng:(rng ()) ~trials:60 () in
  let a = Verify.random ~cfg sel ~mode ~stretch:(stretch k) ~f in
  let b = Verify.adversarial ~cfg sel ~mode ~stretch:(stretch k) ~f in
  (match a.Verify.violation with
  | None -> ()
  | Some v -> Alcotest.failf "%s random: %s" label (Format.asprintf "%a" Verify.pp_violation v));
  match b.Verify.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s adversarial: %s" label (Format.asprintf "%a" Verify.pp_violation v)

(* ------------------------ classic greedy ---------------------------- *)

let test_classic_tree_on_tree () =
  let g = Generators.path 8 in
  let sel = Classic_greedy.build ~k:2 g in
  checki "keeps every tree edge" (Graph.m g) sel.Selection.size

let test_classic_girth_property () =
  (* The (2k-1)-greedy output has girth > 2k. *)
  let r = rng () in
  List.iter
    (fun k ->
      let g = Generators.connected_gnp r ~n:60 ~p:0.25 in
      let sel = Classic_greedy.build ~k g in
      let sub = Selection.to_subgraph sel in
      checkb
        (Printf.sprintf "girth > %d for k=%d" (2 * k) k)
        true
        (Girth.girth_exceeds sub.Subgraph.graph ~bound:(2 * k)))
    [ 1; 2; 3 ]

let test_classic_is_spanner () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:50 ~p:0.2 in
  let sel = Classic_greedy.build ~k:2 g in
  (* f = 0 spanner check: empty fault set only *)
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:0 "classic k=2"

let test_classic_weighted_is_spanner () =
  let r = rng () in
  let g0 = Generators.connected_gnp r ~n:40 ~p:0.25 in
  let g = Generators.with_uniform_weights r g0 ~lo:0.5 ~hi:4.0 in
  let sel = Classic_greedy.build ~k:2 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:0 "classic weighted"

let test_classic_k1_keeps_everything () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:20 ~p:0.4 in
  let sel = Classic_greedy.build ~k:1 g in
  checki "1-spanner = G" (Graph.m g) sel.Selection.size

let test_classic_sparsifies_dense () =
  let g = Generators.complete 40 in
  let sel = Classic_greedy.build ~k:2 g in
  (* K_n with k=2: greedy keeps far fewer than all edges *)
  checkb "sparsified" true (sel.Selection.size < Graph.m g / 3)

(* --------------------- exponential greedy --------------------------- *)

let test_exp_greedy_matches_classic_at_f0 () =
  let r = rng () in
  for _ = 1 to 5 do
    let g = Generators.connected_gnp r ~n:25 ~p:0.3 in
    let a = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:0 g in
    let b = Classic_greedy.build ~k:2 g in
    checki "same size at f=0" b.Selection.size a.Selection.size
  done

let test_exp_greedy_cycle_f1 () =
  (* A cycle is its own unique 1-FT spanner: dropping any edge leaves a
     fault able to disconnect a pair. *)
  let g = Generators.cycle 9 in
  let sel = Exp_greedy.build ~mode:Fault.EFT ~k:2 ~f:1 g in
  checki "whole cycle kept" 9 sel.Selection.size

let test_exp_greedy_complete_exhaustive_vft () =
  let g = Generators.complete 10 in
  let sel = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:2 "exp greedy K10 f=2"

let test_exp_greedy_complete_exhaustive_eft () =
  let g = Generators.complete 8 in
  let sel = Exp_greedy.build ~mode:Fault.EFT ~k:2 ~f:1 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.EFT ~k:2 ~f:1 "exp greedy K8 EFT f=1"

let test_exp_greedy_random_exhaustive () =
  let r = rng () in
  for _ = 1 to 4 do
    let g = Generators.connected_gnp r ~n:14 ~p:0.35 in
    let sel = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
    assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:1 "exp greedy gnp f=1"
  done

let test_exp_greedy_weighted () =
  let r = rng () in
  let g0 = Generators.connected_gnp r ~n:14 ~p:0.4 in
  let g = Generators.with_uniform_weights r g0 ~lo:1.0 ~hi:3.0 in
  let sel = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:1 "exp greedy weighted"

(* The exponential greedy's decision: does a fault set of size <= f push
   the u-v distance above the weight budget? *)
let exp_decision ~mode g ~u ~v ~budget ~f =
  Option.is_some
    (Lbc_exact.find_cut ~mode g ~u ~v ~within:(Lbc_exact.Weight budget) ~limit:f)

let test_exp_decision_basic () =
  (* Path 0-1-2: removing vertex 1 kills the only detour. *)
  let g = Generators.path 3 in
  checkb "single path is cuttable" true
    (exp_decision ~mode:Fault.VFT g ~u:0 ~v:2 ~budget:3. ~f:1);
  checkb "f=0 cannot cut an existing path" false
    (exp_decision ~mode:Fault.VFT g ~u:0 ~v:2 ~budget:3. ~f:0)

let test_exp_naive_agrees_with_branching () =
  (* The literal try-all-sets decision and the branch-and-bound decision
     implement the same predicate, so the two greedy variants must agree
     edge for edge. *)
  let r = rng () in
  for _ = 1 to 3 do
    let g = Generators.connected_gnp r ~n:12 ~p:0.4 in
    List.iter
      (fun mode ->
        let a = Exp_greedy.build ~mode ~k:2 ~f:2 g in
        let b = Exp_greedy.build_naive ~mode ~k:2 ~f:2 g in
        check (Alcotest.list Alcotest.int) "same selection" (Selection.ids a)
          (Selection.ids b))
      [ Fault.VFT; Fault.EFT ]
  done;
  (* and on a weighted instance *)
  let g0 = Generators.connected_gnp r ~n:10 ~p:0.5 in
  let g = Generators.with_uniform_weights r g0 ~lo:0.5 ~hi:3.0 in
  let a = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let b = Exp_greedy.build_naive ~mode:Fault.VFT ~k:2 ~f:1 g in
  check (Alcotest.list Alcotest.int) "same weighted selection" (Selection.ids a)
    (Selection.ids b)

let test_exp_decision_budget () =
  (* 0-1 (1), 1-2 (1): total 2. budget 1.5 -> already no path, even f=0 *)
  let g = Graph.of_weighted_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  checkb "budget below distance" true
    (exp_decision ~mode:Fault.VFT g ~u:0 ~v:2 ~budget:1.5 ~f:0)

(* --------------------- polynomial greedy ---------------------------- *)

let test_poly_tree_keeps_tree () =
  let g = Generators.path 8 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  checki "keeps every bridge" (Graph.m g) sel.Selection.size

let test_poly_cycle_f1_eft () =
  let g = Generators.cycle 9 in
  let sel = Poly_greedy.build ~mode:Fault.EFT ~k:2 ~f:1 g in
  checki "whole cycle kept" 9 sel.Selection.size

let test_poly_f0_is_valid_spanner () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.25 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:0 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:0 "poly f=0"

let test_poly_exhaustive_small_vft () =
  let r = rng () in
  for _ = 1 to 4 do
    let g = Generators.connected_gnp r ~n:13 ~p:0.4 in
    let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
    assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:1 "poly VFT f=1"
  done

let test_poly_exhaustive_small_eft () =
  let r = rng () in
  for _ = 1 to 3 do
    let g = Generators.connected_gnp r ~n:12 ~p:0.4 in
    let sel = Poly_greedy.build ~mode:Fault.EFT ~k:2 ~f:1 g in
    assert_ft_spanner_exhaustive ~max_sets:3e6 sel ~mode:Fault.EFT ~k:2 ~f:1 "poly EFT f=1"
  done

let test_poly_exhaustive_f2 () =
  let g = Generators.complete 9 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:2 "poly K9 f=2"

let test_poly_sampled_medium () =
  let r = rng () in
  List.iter
    (fun (k, f, mode) ->
      let g = Generators.connected_gnp r ~n:70 ~p:0.15 in
      let sel = Poly_greedy.build ~mode ~k ~f g in
      assert_ft_spanner_sampled sel ~mode ~k ~f
        (Printf.sprintf "poly n=70 k=%d f=%d" k f))
    [ (2, 1, Fault.VFT); (2, 3, Fault.VFT); (3, 2, Fault.VFT); (2, 2, Fault.EFT) ]

let test_poly_weighted_correctness () =
  (* Theorem 10: Algorithm 4 on weighted graphs. *)
  let r = rng () in
  for _ = 1 to 3 do
    let g0 = Generators.connected_gnp r ~n:13 ~p:0.4 in
    let g = Generators.with_uniform_weights r g0 ~lo:0.5 ~hi:5.0 in
    let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
    assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:1 "poly weighted f=1"
  done

let test_poly_weighted_geometric () =
  let r = rng () in
  let g = Generators.random_geometric r ~n:60 ~radius:0.35 ~euclidean_weights:true in
  let g = Generators.ensure_connected r g in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  assert_ft_spanner_sampled sel ~mode:Fault.VFT ~k:2 ~f:2 "poly geometric"

let test_poly_size_bound_theorem8 () =
  (* |E(H)| <= O(k f^{1-1/k} n^{1+1/k}); with the hidden constant ~1 the
     measured ratio should be well below a small constant on G(n,p). *)
  let r = rng () in
  List.iter
    (fun (k, f) ->
      let g = Generators.connected_gnp r ~n:150 ~p:0.3 in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k ~f g in
      let bound = Bounds.poly_greedy_size ~k ~f ~n:150 in
      checkb
        (Printf.sprintf "size %d within 3x bound %.0f (k=%d f=%d)"
           sel.Selection.size bound k f)
        true
        (float_of_int sel.Selection.size <= 3. *. bound))
    [ (2, 1); (2, 2); (2, 4); (3, 2) ]

let test_poly_unweighted_order_invariance_of_validity () =
  (* Theorem 8 holds for any order; on unit weights every order also keeps
     correctness.  Check a few shuffles. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:12 ~p:0.45 in
  List.iter
    (fun order ->
      let sel = Poly_greedy.build ~order ~mode:Fault.VFT ~k:2 ~f:1 g in
      assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:1 "poly shuffled")
    [
      Poly_greedy.Input_order;
      Poly_greedy.Shuffled (Rng.create ~seed:5);
      Poly_greedy.Shuffled (Rng.create ~seed:6);
      Poly_greedy.Reverse_weight;
    ]

let test_poly_explicit_order_checked () =
  let g = Generators.cycle 5 in
  (try
     ignore
       (Poly_greedy.build
          ~order:(Poly_greedy.Explicit [| 0; 1 |])
          ~mode:Fault.VFT ~k:2 ~f:1 g);
     Alcotest.fail "short permutation should fail"
   with Invalid_argument _ -> ());
  try
    ignore
      (Poly_greedy.build
         ~order:(Poly_greedy.Explicit [| 0; 1; 2; 3; 3 |])
         ~mode:Fault.VFT ~k:2 ~f:1 g);
    Alcotest.fail "duplicate id should fail"
  with Invalid_argument _ -> ()

let test_poly_subset_of_source () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  List.iter
    (fun id -> checkb "id valid" true (id >= 0 && id < Graph.m g))
    (Selection.ids sel)

let test_poly_trace_counters () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  let sel, trace = Poly_greedy.build_traced ~mode:Fault.VFT ~k:2 ~f:2 g in
  checki "one LBC call per edge" (Graph.m g) trace.Poly_greedy.lbc_calls;
  checki "yes = size" sel.Selection.size trace.Poly_greedy.yes_answers;
  checkb "bfs rounds within (f+1) m" true
    (trace.Poly_greedy.bfs_rounds <= 3 * Graph.m g)

let test_poly_monotone_in_f () =
  (* More fault tolerance never yields a *smaller* spanner on the same
     graph with the same deterministic order... not a theorem, but the
     LBC test is monotone in alpha, so YES answers only grow with f given
     identical prefixes.  We check the weaker, always-true fact: f' > f
     spanners are supersets when built in the same order?  Also not
     guaranteed (H evolves differently).  So: sizes should be weakly
     increasing across f on average; we check a fixed instance family and
     allow equality. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.25 in
  let size f = (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g).Selection.size in
  let s1 = size 1 and s2 = size 2 and s4 = size 4 in
  checkb "f=2 >= f=1" true (s2 >= s1);
  checkb "f=4 >= f=2" true (s4 >= s2)

let test_poly_vs_exp_size_ratio () =
  (* Theorem 2's price: poly greedy is within ~k of the exponential greedy
     (plus slack).  We allow 2k to be safe on small instances. *)
  let r = rng () in
  let total_poly = ref 0 and total_exp = ref 0 in
  for _ = 1 to 5 do
    let g = Generators.connected_gnp r ~n:16 ~p:0.35 in
    let k = 2 and f = 1 in
    let p = Poly_greedy.build ~mode:Fault.VFT ~k ~f g in
    let e = Exp_greedy.build ~mode:Fault.VFT ~k ~f g in
    total_poly := !total_poly + p.Selection.size;
    total_exp := !total_exp + e.Selection.size
  done;
  checkb
    (Printf.sprintf "poly (%d) within 2k of exp (%d)" !total_poly !total_exp)
    true
    (!total_poly <= 2 * 2 * !total_exp);
  checkb "exp not larger than poly on average" true (!total_exp <= !total_poly + 5)

let test_poly_disconnected_graph () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  checki "keeps both components' bridges" 4 sel.Selection.size;
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:2 ~f:1 "poly disconnected"

let test_poly_empty_and_tiny () =
  let g = Graph.create 0 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  checki "empty graph" 0 sel.Selection.size;
  let g1 = Graph.create 1 in
  checki "single vertex" 0 (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g1).Selection.size;
  let g2 = Graph.of_edges 2 [ (0, 1) ] in
  checki "single edge kept" 1 (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g2).Selection.size

let test_poly_rejects_bad_params () =
  let g = Generators.cycle 4 in
  (try
     ignore (Poly_greedy.build ~mode:Fault.VFT ~k:0 ~f:1 g);
     Alcotest.fail "k=0 should fail"
   with Invalid_argument _ -> ());
  try
    ignore (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:(-1) g);
    Alcotest.fail "f<0 should fail"
  with Invalid_argument _ -> ()

let test_poly_k3_stretch5 () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:12 ~p:0.5 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:3 ~f:1 g in
  assert_ft_spanner_exhaustive sel ~mode:Fault.VFT ~k:3 ~f:1 "poly k=3";
  (* a 5-spanner may be sparser than a 3-spanner *)
  let sel3 = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  checkb "k=3 not denser than k=2" true (sel.Selection.size <= sel3.Selection.size)

let test_poly_structured_graphs () =
  List.iter
    (fun (name, g) ->
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
      assert_ft_spanner_sampled sel ~mode:Fault.VFT ~k:2 ~f:2 name)
    [
      ("grid", Generators.grid ~rows:6 ~cols:6);
      ("torus", Generators.torus ~rows:5 ~cols:5);
      ("hypercube", Generators.hypercube ~dim:5);
      ("complete", Generators.complete 24);
    ]

let () =
  Alcotest.run "greedy spanners"
    [
      ( "classic (ADD+93)",
        [
          Alcotest.test_case "tree" `Quick test_classic_tree_on_tree;
          Alcotest.test_case "girth > 2k" `Quick test_classic_girth_property;
          Alcotest.test_case "is a spanner" `Quick test_classic_is_spanner;
          Alcotest.test_case "weighted" `Quick test_classic_weighted_is_spanner;
          Alcotest.test_case "k=1 keeps all" `Quick test_classic_k1_keeps_everything;
          Alcotest.test_case "sparsifies" `Quick test_classic_sparsifies_dense;
        ] );
      ( "exponential (Algorithm 1)",
        [
          Alcotest.test_case "matches classic at f=0" `Quick test_exp_greedy_matches_classic_at_f0;
          Alcotest.test_case "cycle f=1" `Quick test_exp_greedy_cycle_f1;
          Alcotest.test_case "K10 exhaustive VFT" `Quick test_exp_greedy_complete_exhaustive_vft;
          Alcotest.test_case "K8 exhaustive EFT" `Quick test_exp_greedy_complete_exhaustive_eft;
          Alcotest.test_case "gnp exhaustive" `Quick test_exp_greedy_random_exhaustive;
          Alcotest.test_case "weighted" `Quick test_exp_greedy_weighted;
          Alcotest.test_case "naive agrees" `Quick test_exp_naive_agrees_with_branching;
          Alcotest.test_case "decision basics" `Quick test_exp_decision_basic;
          Alcotest.test_case "decision budget" `Quick test_exp_decision_budget;
        ] );
      ( "polynomial (Algorithms 3/4)",
        [
          Alcotest.test_case "tree" `Quick test_poly_tree_keeps_tree;
          Alcotest.test_case "cycle EFT" `Quick test_poly_cycle_f1_eft;
          Alcotest.test_case "f=0 valid" `Quick test_poly_f0_is_valid_spanner;
          Alcotest.test_case "exhaustive VFT f=1" `Quick test_poly_exhaustive_small_vft;
          Alcotest.test_case "exhaustive EFT f=1" `Quick test_poly_exhaustive_small_eft;
          Alcotest.test_case "exhaustive f=2" `Quick test_poly_exhaustive_f2;
          Alcotest.test_case "sampled medium" `Quick test_poly_sampled_medium;
          Alcotest.test_case "weighted (Thm 10)" `Quick test_poly_weighted_correctness;
          Alcotest.test_case "weighted geometric" `Quick test_poly_weighted_geometric;
          Alcotest.test_case "size bound (Thm 8)" `Quick test_poly_size_bound_theorem8;
          Alcotest.test_case "order invariance" `Quick test_poly_unweighted_order_invariance_of_validity;
          Alcotest.test_case "explicit order checked" `Quick test_poly_explicit_order_checked;
          Alcotest.test_case "subset of source" `Quick test_poly_subset_of_source;
          Alcotest.test_case "trace counters" `Quick test_poly_trace_counters;
          Alcotest.test_case "monotone in f" `Quick test_poly_monotone_in_f;
          Alcotest.test_case "poly vs exp size" `Quick test_poly_vs_exp_size_ratio;
          Alcotest.test_case "disconnected" `Quick test_poly_disconnected_graph;
          Alcotest.test_case "tiny graphs" `Quick test_poly_empty_and_tiny;
          Alcotest.test_case "bad params" `Quick test_poly_rejects_bad_params;
          Alcotest.test_case "k=3" `Quick test_poly_k3_stretch5;
          Alcotest.test_case "structured graphs" `Quick test_poly_structured_graphs;
        ] );
    ]
