(* Tests for the extension modules: Thorup-Zwick (the CLPR10-era baseline
   substrate), blocking sets (the paper's Lemma 6/7 machinery made
   executable), sound pruning, and the batched greedy. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng () = Rng.create ~seed:31337

let stretch k = float_of_int ((2 * k) - 1)

(* ------------------------- Thorup-Zwick ------------------------------ *)

let test_tz_is_spanner_unweighted () =
  let r = rng () in
  for seed = 1 to 6 do
    let g = Generators.connected_gnp (Rng.create ~seed) ~n:50 ~p:0.2 in
    let sel = Thorup_zwick.build r ~k:2 g in
    let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:0 in
    match report.Verify.violation with
    | None -> ()
    | Some v -> Alcotest.failf "tz: %s" (Format.asprintf "%a" Verify.pp_violation v)
  done

let test_tz_is_spanner_weighted () =
  let r = rng () in
  for seed = 1 to 6 do
    let base = Generators.connected_gnp (Rng.create ~seed) ~n:40 ~p:0.25 in
    let g = Generators.with_uniform_weights (Rng.create ~seed:(seed * 7)) base ~lo:0.1 ~hi:10. in
    let sel = Thorup_zwick.build r ~k:3 g in
    let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 3) ~f:0 in
    checkb "tz k=3 weighted valid" true (Verify.ok report)
  done

let test_tz_k1_is_everything () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:25 ~p:0.3 in
  checki "1-spanner keeps all edges" (Graph.m g) (Thorup_zwick.build r ~k:1 g).Selection.size

let test_tz_sparsifies_complete () =
  let r = rng () in
  let g = Generators.complete 60 in
  let sel = Thorup_zwick.build r ~k:2 g in
  checkb
    (Printf.sprintf "K60: %d < %d" sel.Selection.size (Graph.m g))
    true
    (sel.Selection.size < Graph.m g / 2)

let test_tz_state_levels () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.15 in
  let _, st = Thorup_zwick.build_with_state r ~k:3 g in
  Array.iter (fun l -> checkb "level range" true (l >= 0 && l <= 2)) st.Thorup_zwick.levels;
  checkb "some clusters formed" true (st.Thorup_zwick.cluster_count > 0)

let test_tz_spanning_when_connected () =
  (* A spanner of a connected graph is connected. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.12 in
  let sel = Thorup_zwick.build r ~k:2 g in
  let sub = Selection.to_subgraph sel in
  checkb "connected" true (Components.is_connected sub.Subgraph.graph)

let test_tz_inside_dk11 () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.25 in
  let algo rng sub = Thorup_zwick.build rng ~k:2 sub in
  let sel = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:1 ~algo g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) sel
      ~mode:Fault.VFT ~stretch:(stretch 2) ~f:1
  in
  checkb "dk11 over TZ valid" true (Verify.ok report)

(* Literal outputs of Thorup-Zwick and the oracle on fixed seeds: they
   follow from the exact sequence of heap pushes and pops in Dijkstra's
   seeded loop, so a refactor that keeps that sequence keeps every bit.
   The unit-weight oracle pins the tie order too: its pivots on equal
   distances depend on the order a level's sources are seeded. *)
let test_tz_oracle_pinned () =
  let unit = Generators.connected_gnp (Rng.create ~seed:24) ~n:30 ~p:0.2 in
  let g =
    Generators.with_uniform_weights (Rng.create ~seed:25) unit ~lo:0.5 ~hi:5.
  in
  checki "m" 86 (Graph.m g);
  let tz k =
    Selection.ids (Thorup_zwick.build (Rng.create ~seed:(100 + k)) ~k g)
  in
  check Alcotest.(list int) "tz k=2"
    [ 0; 2; 4; 5; 6; 7; 8; 10; 11; 13; 14; 15; 16; 18; 19; 20; 21; 22; 23; 24;
      25; 26; 27; 31; 32; 34; 36; 37; 38; 39; 40; 41; 43; 44; 46; 47; 48; 49;
      50; 51; 52; 53; 54; 55; 56; 57; 59; 60; 62; 63; 64; 65; 66; 67; 68; 69;
      71; 72; 73; 75; 77; 78; 80; 81; 82; 83; 84 ]
    (tz 2);
  check Alcotest.(list int) "tz k=3"
    [ 0; 4; 6; 7; 8; 11; 13; 15; 16; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27;
      30; 31; 34; 35; 36; 37; 38; 39; 41; 42; 44; 46; 47; 48; 49; 50; 51; 52;
      53; 54; 55; 56; 57; 59; 61; 62; 63; 64; 65; 66; 67; 68; 69; 71; 72; 73;
      75; 77; 80; 81; 82; 83; 84; 85 ]
    (tz 3);
  let pairs = [ (0, 29); (3, 17); (5, 5); (8, 21); (12, 1); (26, 14) ] in
  let oracle ?(g = g) k storage answers =
    let o = Oracle.build (Rng.create ~seed:(200 + k)) ~k g in
    checki (Printf.sprintf "oracle k=%d storage" k) storage (Oracle.storage o);
    (* Exact float equality: the answers are sums of the same edge
       weights in the same order. *)
    List.iter2
      (fun (u, v) want ->
        check Alcotest.(float 0.)
          (Printf.sprintf "oracle k=%d query %d %d" k u v)
          want (Oracle.query o u v))
      pairs answers
  in
  oracle 2 401
    [ 0x1.9cc0743053b3dp+1; 0x1.62de37a8bddep+0; 0x0p+0; 0x1.9f8103365dcedp+2;
      0x1.f71d847354272p+2; 0x1.2552a6f9ce0d7p+2 ];
  oracle 3 249
    [ 0x1.9cc0743053b3dp+1; 0x1.62de37a8bddep+0; 0x0p+0; 0x1.d4ba6327ac688p+2;
      0x1.112e418bc4faep+2; 0x1.3be81cd865007p+2 ];
  oracle ~g:unit 2 362 [ 3.; 1.; 0.; 4.; 3.; 2. ];
  oracle ~g:unit 3 204 [ 4.; 1.; 0.; 4.; 3.; 3. ]

(* ------------------------- Blocking sets ----------------------------- *)

let greedy_with_blocking g ~k ~f =
  let sel, certs = Poly_greedy.build_with_certificates ~mode:Fault.VFT ~k ~f g in
  (sel, Blocking.of_certificates sel certs)

let test_blocking_certificates_per_edge () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  let sel, certs = Poly_greedy.build_with_certificates ~mode:Fault.VFT ~k:2 ~f:2 g in
  checki "one certificate per added edge" sel.Selection.size (List.length certs);
  List.iter
    (fun c ->
      checkb "certificate within Lemma 6 size" true
        (List.length c.Poly_greedy.cut <= 3 * 2);
      checkb "edge was selected" true sel.Selection.selected.(c.Poly_greedy.edge.Graph.id))
    certs

let test_blocking_is_blocking_set () =
  (* Lemma 6: the certificates form a (2k)-blocking set. *)
  for seed = 1 to 5 do
    let g = Generators.connected_gnp (Rng.create ~seed) ~n:30 ~p:0.3 in
    let k = 2 and f = 2 in
    let sel, b = greedy_with_blocking g ~k ~f in
    checkb "size bound" true
      (Blocking.size b <= Blocking.lemma6_bound ~k ~f ~spanner_size:sel.Selection.size);
    match Blocking.is_blocking b ~t_bound:(2 * k) with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "unblocked short cycle found (seed %d)" seed
    | Error msg -> Alcotest.failf "enumeration failed: %s" msg
  done

let test_blocking_k3 () =
  let g = Generators.connected_gnp (Rng.create ~seed:9) ~n:25 ~p:0.35 in
  let sel, b = greedy_with_blocking g ~k:3 ~f:1 in
  ignore sel;
  match Blocking.is_blocking b ~t_bound:6 with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "unblocked 6-cycle"
  | Error msg -> Alcotest.failf "enumeration failed: %s" msg

let test_blocking_detects_missing_pairs () =
  (* Strip the blocking set of a cyclic spanner: the checker must complain
     (provided a short cycle exists). *)
  let g = Generators.complete 6 in
  let sel, b = greedy_with_blocking g ~k:2 ~f:1 in
  let sub = Selection.to_subgraph sel in
  if not (Girth.girth_exceeds sub.Subgraph.graph ~bound:4) then begin
    let stripped = { b with Blocking.pairs = [] } in
    match Blocking.is_blocking stripped ~t_bound:4 with
    | Ok (Some _) -> ()
    | Ok None -> Alcotest.fail "empty blocking set accepted despite short cycles"
    | Error msg -> Alcotest.failf "enumeration failed: %s" msg
  end

let test_blocking_short_cycles_counts () =
  (* C5 has exactly one cycle of length 5 and none shorter. *)
  let g = Generators.cycle 5 in
  let sel = Selection.full g in
  let cycles4, ex4 = Blocking.short_cycles sel ~max_len:4 in
  checkb "exhaustive" true ex4;
  checki "no 4-cycles in C5" 0 (List.length cycles4);
  let cycles5, _ = Blocking.short_cycles sel ~max_len:5 in
  checki "one 5-cycle" 1 (List.length cycles5);
  (* K4: four triangles + three 4-cycles *)
  let k4 = Selection.full (Generators.complete 4) in
  let tri, _ = Blocking.short_cycles k4 ~max_len:3 in
  checki "K4 triangles" 4 (List.length tri);
  let four, _ = Blocking.short_cycles k4 ~max_len:4 in
  checki "K4 cycles up to 4" 7 (List.length four)

let test_blocking_lemma7_girth_deterministic () =
  (* The Lemma 7 subsample must always have girth > 2k. *)
  let r = rng () in
  let g = Generators.connected_gnp (Rng.create ~seed:4) ~n:80 ~p:0.2 in
  let _, b = greedy_with_blocking g ~k:2 ~f:1 in
  for _ = 1 to 10 do
    let s = Blocking.lemma7_subsample r b ~k:2 ~f:1 in
    checkb "girth > 2k" true s.Blocking.girth_exceeds_2k;
    checkb "node count as specified" true (s.Blocking.sampled_nodes <= 80 / 6 + 1)
  done

(* --------------------------- Lower bound ------------------------------ *)

let test_pp_incidence_structure () =
  List.iter
    (fun q ->
      let g = Lower_bound.projective_plane_incidence ~q in
      let count = (q * q) + q + 1 in
      checki (Printf.sprintf "n for q=%d" q) (2 * count) (Graph.n g);
      checki "m = (q+1)(q^2+q+1)" ((q + 1) * count) (Graph.m g);
      for v = 0 to Graph.n g - 1 do
        checki "regular" (q + 1) (Graph.degree g v)
      done;
      check (Alcotest.option Alcotest.int) "girth 6" (Some 6) (Girth.girth g))
    [ 2; 3 ]

let test_pp_rejects_composite () =
  try
    ignore (Lower_bound.projective_plane_incidence ~q:4);
    Alcotest.fail "q=4 (prime power, not prime) should be rejected"
  with Invalid_argument _ -> ()

let test_blow_up_structure () =
  let g = Generators.path 3 in
  let b = Lower_bound.blow_up g ~copies:3 in
  checki "n" 9 (Graph.n b);
  checki "m = m * copies^2" (2 * 9) (Graph.m b);
  (* copies of vertex 1 are adjacent to every copy of 0 and 2 *)
  for a = 0 to 2 do
    for c = 0 to 2 do
      checkb "bundle edge" true (Graph.mem_edge b ((1 * 3) + a) ((0 * 3) + c))
    done
  done

let test_lower_bound_forces_everything () =
  (* On the floor(f/2)+1 blow-up of a girth-6 graph, any f-VFT 3-spanner
     keeps every edge; the greedy must therefore return the whole graph. *)
  let base = Lower_bound.projective_plane_incidence ~q:2 in
  List.iter
    (fun f ->
      let g = Lower_bound.hard_instance ~f base in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g in
      checki
        (Printf.sprintf "f=%d: greedy keeps all %d edges" f (Graph.m g))
        (Graph.m g) sel.Selection.size)
    [ 0; 2; 4 ]

let test_lower_bound_exp_greedy_agrees () =
  let base = Lower_bound.projective_plane_incidence ~q:2 in
  let g = Lower_bound.hard_instance ~f:2 base in
  let sel = Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  checki "optimal greedy also keeps everything" (Graph.m g) sel.Selection.size;
  (* sanity: the blow-up really is a valid f-VFT instance forcing via
     exhaustive verification that dropping any edge breaks it *)
  let full = Selection.full g in
  let report =
    Verify.random ~cfg:(Verify.config ~rng:(rng ()) ~trials:20 ()) full
      ~mode:Fault.VFT ~stretch:3.0 ~f:2
  in
  checkb "full graph trivially valid" true (Verify.ok report)

(* ----------------------------- Prune ---------------------------------- *)

let test_prune_output_still_valid () =
  for seed = 1 to 3 do
    let g = Generators.connected_gnp (Rng.create ~seed) ~n:14 ~p:0.45 in
    let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
    let res = Prune.minimalize ~mode:Fault.VFT ~k:2 ~f:1 sel in
    checki "candidates = spanner size" sel.Selection.size res.Prune.candidates;
    checki "size accounting" (sel.Selection.size - res.Prune.removed)
      res.Prune.pruned.Selection.size;
    let report =
      Verify.exhaustive res.Prune.pruned ~mode:Fault.VFT ~stretch:(stretch 2) ~f:1
    in
    checkb "pruned spanner still valid" true (Verify.ok report)
  done

let test_prune_weighted_still_valid () =
  let r = rng () in
  let g0 = Generators.connected_gnp r ~n:12 ~p:0.5 in
  let g = Generators.with_uniform_weights r g0 ~lo:0.5 ~hi:4.0 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let res = Prune.minimalize ~mode:Fault.VFT ~k:2 ~f:1 sel in
  let report =
    Verify.exhaustive res.Prune.pruned ~mode:Fault.VFT ~stretch:(stretch 2) ~f:1
  in
  checkb "weighted pruned valid" true (Verify.ok report)

let test_prune_cycle_is_minimal () =
  (* A cycle at f=1 EFT: nothing is removable. *)
  let g = Generators.cycle 8 in
  let sel = Poly_greedy.build ~mode:Fault.EFT ~k:2 ~f:1 g in
  let res = Prune.minimalize ~mode:Fault.EFT ~k:2 ~f:1 sel in
  checki "nothing removable" 0 res.Prune.removed

let test_prune_removes_redundancy () =
  (* Start from the full graph (a trivially valid spanner): pruning must
     find slack on a dense instance. *)
  let g = Generators.complete 9 in
  let res = Prune.minimalize ~mode:Fault.VFT ~k:2 ~f:1 (Selection.full g) in
  checkb
    (Printf.sprintf "removed %d of %d" res.Prune.removed (Graph.m g))
    true (res.Prune.removed > 0)

let test_prune_rejects_bad_args () =
  let sel = Selection.full (Generators.cycle 5) in
  List.iter
    (fun (label, k, f) ->
      match Prune.minimalize ~mode:Fault.VFT ~k ~f sel with
      | _ -> Alcotest.failf "%s should fail" label
      | exception Invalid_argument _ -> ())
    [ ("k = 0", 0, 1); ("f = -1", 2, -1) ]

(* -------------------------- Batch greedy ------------------------------ *)

let test_batch_one_equals_sequential () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  let seq = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let bat = Poly_greedy.build ~batch:1 ~mode:Fault.VFT ~k:2 ~f:1 g in
  check (Alcotest.list Alcotest.int) "identical" (Selection.ids seq)
    (Selection.ids bat)

let test_batch_full_is_whole_graph () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:25 ~p:0.3 in
  let bat = Poly_greedy.build ~batch:(Graph.m g) ~mode:Fault.VFT ~k:2 ~f:1 g in
  checki "everything accepted" (Graph.m g) bat.Selection.size

let test_batch_valid_at_any_batch_size () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:13 ~p:0.4 in
  List.iter
    (fun batch ->
      let bat = Poly_greedy.build ~batch ~mode:Fault.VFT ~k:2 ~f:1 g in
      let report =
        Verify.exhaustive bat ~mode:Fault.VFT
          ~stretch:(stretch 2) ~f:1
      in
      checkb (Printf.sprintf "batch=%d valid" batch) true (Verify.ok report))
    [ 1; 2; 5; 16; 1000 ]

let test_batch_size_monotone_tendency () =
  (* Bigger batches see less context, so sizes should not shrink. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.25 in
  let size batch =
    (Poly_greedy.build ~batch ~mode:Fault.VFT ~k:2 ~f:1 g).Selection.size
  in
  let s1 = size 1 and s16 = size 16 and sall = size (Graph.m g) in
  checkb "batch 16 >= sequential" true (s16 >= s1);
  checkb "single batch is largest" true (sall >= s16)

let test_batch_weighted_valid () =
  let r = rng () in
  let g0 = Generators.connected_gnp r ~n:12 ~p:0.5 in
  let g = Generators.with_uniform_weights r g0 ~lo:1.0 ~hi:6.0 in
  let bat = Poly_greedy.build ~batch:8 ~mode:Fault.VFT ~k:2 ~f:1 g in
  let report =
    Verify.exhaustive bat ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:1
  in
  checkb "weighted batched valid" true (Verify.ok report)

let test_batch_parallel_matches_sequential () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.25 in
  List.iter
    (fun (batch, domains) ->
      let seq = Poly_greedy.build ~batch ~mode:Fault.VFT ~k:2 ~f:2 g in
      let par =
        Exec.Pool.with_pool ~domains (fun pool ->
            Poly_greedy.build ~batch ~pool ~mode:Fault.VFT ~k:2 ~f:2 g)
      in
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "batch=%d domains=%d" batch domains)
        (Selection.ids seq) (Selection.ids par))
    [ (8, 2); (64, 3); (1000, 4) ]

(* The facade's [Spanner.options ?pool ?batch] is the supported route to
   the batched parallel build and must keep producing the sequential
   selection. *)
let test_batch_parallel_via_facade () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.3 in
  let seq = Poly_greedy.build ~batch:16 ~mode:Fault.VFT ~k:2 ~f:1 g in
  let par =
    Exec.Pool.with_pool ~domains:2 (fun pool ->
        Spanner.build
          ~options:(Spanner.options ~batch:16 ~pool ())
          { Spanner.k = 2; f = 1; mode = Fault.VFT }
          g)
  in
  check (Alcotest.list Alcotest.int) "facade route matches"
    (Selection.ids seq) (Selection.ids par)

let test_batch_rejects_bad_batch () =
  let g = Generators.cycle 4 in
  try
    ignore (Poly_greedy.build ~batch:0 ~mode:Fault.VFT ~k:2 ~f:1 g);
    Alcotest.fail "batch=0 should fail"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "extensions"
    [
      ( "thorup-zwick",
        [
          Alcotest.test_case "unweighted valid" `Quick test_tz_is_spanner_unweighted;
          Alcotest.test_case "weighted valid" `Quick test_tz_is_spanner_weighted;
          Alcotest.test_case "k=1 keeps all" `Quick test_tz_k1_is_everything;
          Alcotest.test_case "sparsifies" `Quick test_tz_sparsifies_complete;
          Alcotest.test_case "state levels" `Quick test_tz_state_levels;
          Alcotest.test_case "connectivity" `Quick test_tz_spanning_when_connected;
          Alcotest.test_case "inside dk11" `Quick test_tz_inside_dk11;
          Alcotest.test_case "pinned tz and oracle" `Quick test_tz_oracle_pinned;
        ] );
      ( "blocking (Lemmas 6-7)",
        [
          Alcotest.test_case "certificates per edge" `Quick test_blocking_certificates_per_edge;
          Alcotest.test_case "is blocking set" `Quick test_blocking_is_blocking_set;
          Alcotest.test_case "k=3" `Quick test_blocking_k3;
          Alcotest.test_case "detects missing pairs" `Quick test_blocking_detects_missing_pairs;
          Alcotest.test_case "cycle counts" `Quick test_blocking_short_cycles_counts;
          Alcotest.test_case "lemma 7 girth" `Quick test_blocking_lemma7_girth_deterministic;
        ] );
      ( "lower bound (BDPW18 family)",
        [
          Alcotest.test_case "incidence structure" `Quick test_pp_incidence_structure;
          Alcotest.test_case "rejects composite" `Quick test_pp_rejects_composite;
          Alcotest.test_case "blow-up structure" `Quick test_blow_up_structure;
          Alcotest.test_case "forces everything" `Quick test_lower_bound_forces_everything;
          Alcotest.test_case "exp greedy agrees" `Quick test_lower_bound_exp_greedy_agrees;
        ] );
      ( "prune",
        [
          Alcotest.test_case "output valid" `Quick test_prune_output_still_valid;
          Alcotest.test_case "weighted valid" `Quick test_prune_weighted_still_valid;
          Alcotest.test_case "cycle minimal" `Quick test_prune_cycle_is_minimal;
          Alcotest.test_case "removes redundancy" `Quick test_prune_removes_redundancy;
          Alcotest.test_case "rejects bad args" `Quick test_prune_rejects_bad_args;
        ] );
      ( "batch greedy",
        [
          Alcotest.test_case "batch=1 = sequential" `Quick test_batch_one_equals_sequential;
          Alcotest.test_case "one batch = G" `Quick test_batch_full_is_whole_graph;
          Alcotest.test_case "valid at any batch" `Quick test_batch_valid_at_any_batch_size;
          Alcotest.test_case "size monotone" `Quick test_batch_size_monotone_tendency;
          Alcotest.test_case "weighted valid" `Quick test_batch_weighted_valid;
          Alcotest.test_case "parallel = sequential" `Quick test_batch_parallel_matches_sequential;
          Alcotest.test_case "facade pool route" `Quick test_batch_parallel_via_facade;
          Alcotest.test_case "bad batch" `Quick test_batch_rejects_bad_batch;
        ] );
    ]
