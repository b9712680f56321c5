(* Robustness and edge-case coverage across the public APIs: degenerate
   graphs (empty, single vertex, disconnected), extreme parameters (f
   larger than the graph, k past the diameter), and boundary conditions
   the main suites do not reach. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng () = Rng.create ~seed:4242

let stretch k = float_of_int ((2 * k) - 1)

let disconnected () =
  (* two triangles + an isolated vertex *)
  Graph.of_edges 7 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]

(* ------------------------- degenerate graphs ------------------------- *)

let test_empty_graph_everywhere () =
  let g = Graph.create 0 in
  checki "poly greedy" 0 (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g).Selection.size;
  checki "classic" 0 (Classic_greedy.build ~k:2 g).Selection.size;
  checki "baswana-sen" 0 (Baswana_sen.build (rng ()) ~k:2 g).Selection.size;
  checki "thorup-zwick" 0 (Thorup_zwick.build (rng ()) ~k:2 g).Selection.size;
  checki "dk11" 0 (Dk11.build (rng ()) ~mode:Fault.VFT ~k:2 ~f:1 g).Selection.size;
  let report =
    Verify.exhaustive (Selection.full g) ~mode:Fault.VFT ~stretch:3.0 ~f:1
  in
  checkb "verify" true (Verify.ok report)

let test_single_vertex_everywhere () =
  let g = Graph.create 1 in
  checki "poly greedy" 0 (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:3 g).Selection.size;
  checki "baswana-sen" 0 (Baswana_sen.build (rng ()) ~k:3 g).Selection.size;
  checki "thorup-zwick" 0 (Thorup_zwick.build (rng ()) ~k:3 g).Selection.size;
  let oracle = Oracle.build (rng ()) ~k:2 g in
  checkb "oracle self" true (Oracle.query oracle 0 0 = 0.)

let test_disconnected_all_builders () =
  let g = disconnected () in
  List.iter
    (fun (name, sel) ->
      let report =
        Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:1
      in
      checkb name true (Verify.ok report))
    [
      ("poly greedy", Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g);
      ("exp greedy", Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g);
      ("dk11", Dk11.build (rng ()) ~mode:Fault.VFT ~k:2 ~f:1 g);
    ];
  (* f=0 algorithms *)
  List.iter
    (fun (name, sel) ->
      let report =
        Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:0
      in
      checkb name true (Verify.ok report))
    [
      ("classic", Classic_greedy.build ~k:2 g);
      ("baswana-sen", Baswana_sen.build (rng ()) ~k:2 g);
      ("thorup-zwick", Thorup_zwick.build (rng ()) ~k:2 g);
    ]

let test_disconnected_distributed () =
  let g = disconnected () in
  let r = rng () in
  let local = Local_spanner.build r ~mode:Fault.VFT ~k:2 ~f:1 g in
  checkb "local valid" true
    (Verify.ok
       (Verify.exhaustive local.Local_spanner.selection ~mode:Fault.VFT
          ~stretch:(stretch 2) ~f:1));
  let congest = Congest_ft.build r ~c:1.0 ~mode:Fault.VFT ~k:2 ~f:1 g in
  checkb "congest valid" true
    (Verify.ok
       (Verify.exhaustive congest.Congest_ft.selection ~mode:Fault.VFT
          ~stretch:(stretch 2) ~f:1))

let test_disconnected_oracle () =
  let g = disconnected () in
  let oracle = Oracle.build (rng ()) ~k:2 g in
  checkb "cross-component infinity" true (Oracle.query oracle 0 3 = infinity);
  checkb "isolated vertex" true (Oracle.query oracle 0 6 = infinity);
  checkb "within component" true (Oracle.query oracle 3 5 <= 3.0)

(* ------------------------ extreme parameters ------------------------- *)

let test_f_larger_than_graph () =
  let g = Generators.complete 6 in
  (* f = 50 vertex faults on a 6-vertex graph: every edge must stay (any
     pair can be isolated from all others). *)
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:50 g in
  checki "whole graph kept" (Graph.m g) sel.Selection.size;
  let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:4 in
  checkb "valid" true (Verify.ok report)

let test_k_past_diameter () =
  (* With 2k-1 >= diameter and f = 0 the spanner can be a spanning
     structure far sparser than G. *)
  let g = Generators.complete 12 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:6 ~f:0 g in
  checkb "very sparse" true (sel.Selection.size <= 2 * 12);
  let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 6) ~f:0 in
  checkb "valid" true (Verify.ok report)

let test_k_equals_one_all_builders () =
  (* 1-spanners must preserve exact distances: on K_n everything stays. *)
  let g = Generators.complete 7 in
  List.iter
    (fun (name, size) -> checki name (Graph.m g) size)
    [
      ("poly", (Poly_greedy.build ~mode:Fault.VFT ~k:1 ~f:1 g).Selection.size);
      ("classic", (Classic_greedy.build ~k:1 g).Selection.size);
      ("bs", (Baswana_sen.build (rng ()) ~k:1 g).Selection.size);
      ("tz", (Thorup_zwick.build (rng ()) ~k:1 g).Selection.size);
    ]

let test_k_f_2_on_k_f_plus_2 () =
  (* K_{f+2}: faulting all but two vertices isolates any pair, so every
     edge is forced at fault budget f. *)
  List.iter
    (fun f ->
      let g = Generators.complete (f + 2) in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g in
      checki (Printf.sprintf "K_%d at f=%d keeps all" (f + 2) f) (Graph.m g)
        sel.Selection.size)
    [ 1; 2; 3; 4 ]

let test_eft_star_graph () =
  (* A star has no alternative paths: any EFT spanner keeps every edge,
     and faulting an edge legitimately disconnects its leaf. *)
  let g = Graph.of_edges 6 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ] in
  let sel = Poly_greedy.build ~mode:Fault.EFT ~k:2 ~f:2 g in
  checki "star kept whole" 5 sel.Selection.size;
  let report = Verify.exhaustive sel ~mode:Fault.EFT ~stretch:(stretch 2) ~f:2 in
  checkb "valid (disconnection matches source)" true (Verify.ok report)

(* ------------------------ simulator boundaries ----------------------- *)

let test_net_zero_capacity_congest () =
  let g = Generators.path 2 in
  let net = Net.create ~model:(Net.Congest 0) ~bits:(fun _ -> 1) g in
  Net.send net ~src:0 ~dst:1 ();
  Net.next_round net;
  checki "everything violates a zero budget" 1 (Net.stats net).Net.congest_violations

let test_async_zero_delay_bounds () =
  let r = rng () in
  let net = Async_net.create r ~min_delay:0.0 ~max_delay:0.0 (Generators.path 2) in
  let t = ref (-1.) in
  Async_net.send net ~src:0 ~dst:1 (fun () -> t := Async_net.now net);
  ignore (Async_net.run net);
  checkb "instant delivery" true (!t >= 0. && !t < 1e-9)

let test_synchronizer_all_dead () =
  let g = Generators.cycle 4 in
  let rep =
    Synchronizer.run (rng ()) ~failures:(0.0, [ 0; 1; 2; 3 ]) ~pulses:3
      ~skeleton:(Selection.full g) g
  in
  checkb "vacuously connected" true rep.Synchronizer.survivors_connected

let test_decomposition_single_vertex () =
  let g = Graph.create 1 in
  let d = Decomposition.run (rng ()) g in
  Array.iter
    (fun c -> checki "self-centered" 0 c.Shard_partition.center_of.(0))
    d.Shard_partition.partitions

(* ------------------------- mask boundary cases ----------------------- *)

let test_short_masks_ignored_beyond_length () =
  (* Masks shorter than n/m are legal: entries beyond their length count
     as unblocked. *)
  let g = Generators.path 5 in
  let short = [| true |] in
  let d = Bfs.distances ~blocked_vertices:short g 1 in
  checki "vertex 0 blocked" (-1) d.(0);
  checki "vertex 4 fine" 3 d.(4)

let test_fault_empty_set () =
  let g = Generators.cycle 5 in
  let sel = Selection.full g in
  checkb "empty fault trivially ok" true
    (Verify.check_under_fault sel ~stretch:1.0 (Fault.empty Fault.VFT) = None)

let test_selection_empty_mask () =
  let g = Generators.cycle 4 in
  let sel = Selection.of_ids g [] in
  checki "empty" 0 sel.Selection.size;
  checkb "every edge blocked" true
    (Array.for_all (fun b -> b) (Selection.blocked_edges sel []))

(* ---------------------- determinism end to end ----------------------- *)

let test_full_pipeline_deterministic () =
  let build seed =
    let r = Rng.create ~seed in
    let g = Generators.connected_gnp r ~n:50 ~p:0.2 in
    let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
    let local = Local_spanner.build r ~mode:Fault.VFT ~k:2 ~f:1 g in
    let congest = Congest_ft.build r ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:1 g in
    ( Selection.ids sel,
      Selection.ids local.Local_spanner.selection,
      Selection.ids congest.Congest_ft.selection,
      congest.Congest_ft.total_rounds )
  in
  let a = build 77 and b = build 77 in
  checkb "bit-for-bit reproducible" true (a = b)

let () =
  Alcotest.run "robustness"
    [
      ( "degenerate graphs",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph_everywhere;
          Alcotest.test_case "single vertex" `Quick test_single_vertex_everywhere;
          Alcotest.test_case "disconnected builders" `Quick test_disconnected_all_builders;
          Alcotest.test_case "disconnected distributed" `Quick test_disconnected_distributed;
          Alcotest.test_case "disconnected oracle" `Quick test_disconnected_oracle;
        ] );
      ( "extreme parameters",
        [
          Alcotest.test_case "f > n" `Quick test_f_larger_than_graph;
          Alcotest.test_case "k past diameter" `Quick test_k_past_diameter;
          Alcotest.test_case "k = 1" `Quick test_k_equals_one_all_builders;
          Alcotest.test_case "K_{f+2} forced" `Quick test_k_f_2_on_k_f_plus_2;
          Alcotest.test_case "EFT star" `Quick test_eft_star_graph;
        ] );
      ( "simulator boundaries",
        [
          Alcotest.test_case "zero-capacity CONGEST" `Quick test_net_zero_capacity_congest;
          Alcotest.test_case "zero-delay async" `Quick test_async_zero_delay_bounds;
          Alcotest.test_case "all nodes dead" `Quick test_synchronizer_all_dead;
          Alcotest.test_case "1-vertex decomposition" `Quick test_decomposition_single_vertex;
        ] );
      ( "mask boundaries",
        [
          Alcotest.test_case "short masks" `Quick test_short_masks_ignored_beyond_length;
          Alcotest.test_case "empty fault" `Quick test_fault_empty_set;
          Alcotest.test_case "empty selection" `Quick test_selection_empty_mask;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "full pipeline" `Quick test_full_pipeline_deterministic;
        ] );
    ]
