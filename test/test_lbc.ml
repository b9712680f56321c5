(* Tests for Algorithm 2 (Lbc) and the exact Length-Bounded Cut solver
   (Lbc_exact): hand-built instances, the Theorem 4 gap guarantee, and
   cross-validation of the two on random graphs. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng () = Rng.create ~seed:1234

let is_yes = function Lbc.Yes _ -> true | Lbc.No _ -> false

(* A "theta graph": [paths] internally-disjoint u-v paths of [len] hops
   each.  The minimum length-t vertex cut (t >= len) has size [paths]. *)
let theta ~paths ~len =
  let n = 2 + (paths * (len - 1)) in
  let g = Graph.create n in
  let u = 0 and v = 1 in
  let next = ref 2 in
  for _ = 1 to paths do
    let prev = ref u in
    for _ = 1 to len - 1 do
      ignore (Graph.add_edge_unit g !prev !next);
      prev := !next;
      incr next
    done;
    ignore (Graph.add_edge_unit g !prev v)
  done;
  (g, u, v)

(* ---------------------- Lbc_exact oracle ---------------------------- *)

let test_exact_single_path () =
  let g = Generators.path 5 in
  (match Lbc_exact.min_cut ~mode:Fault.VFT g ~u:0 ~v:4 ~t:4 ~limit:3 with
  | Some cut -> checki "one interior vertex suffices" 1 (List.length cut)
  | None -> Alcotest.fail "cut expected");
  match Lbc_exact.min_cut ~mode:Fault.EFT g ~u:0 ~v:4 ~t:4 ~limit:3 with
  | Some cut -> checki "one edge suffices" 1 (List.length cut)
  | None -> Alcotest.fail "cut expected"

let test_exact_direct_edge_vft_uncuttable () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  checkb "no vertex cut can remove a direct edge" true
    (Lbc_exact.min_cut ~mode:Fault.VFT g ~u:0 ~v:1 ~t:1 ~limit:10 = None);
  match Lbc_exact.min_cut ~mode:Fault.EFT g ~u:0 ~v:1 ~t:1 ~limit:10 with
  | Some cut -> checki "edge cut removes it" 1 (List.length cut)
  | None -> Alcotest.fail "edge cut expected"

let test_exact_theta_graphs () =
  List.iter
    (fun paths ->
      let g, u, v = theta ~paths ~len:3 in
      match Lbc_exact.min_cut ~mode:Fault.VFT g ~u ~v ~t:5 ~limit:paths with
      | Some cut ->
          checki (Printf.sprintf "theta %d" paths) paths (List.length cut);
          checkb "certified" true (Lbc_exact.is_cut ~mode:Fault.VFT g ~u ~v ~t:5 cut)
      | None -> Alcotest.fail "cut expected")
    [ 1; 2; 3; 4 ]

let test_exact_limit_respected () =
  let g, u, v = theta ~paths:3 ~len:3 in
  checkb "limit below optimum" true
    (Lbc_exact.min_cut ~mode:Fault.VFT g ~u ~v ~t:5 ~limit:2 = None)

let test_exact_t_sensitivity () =
  (* Cycle C6: between antipodes there are two 3-hop paths.  For t = 2 no
     path exists at all, so the empty set is already a cut. *)
  let g = Generators.cycle 6 in
  (match Lbc_exact.min_cut ~mode:Fault.VFT g ~u:0 ~v:3 ~t:2 ~limit:2 with
  | Some cut -> checki "empty cut for t=2" 0 (List.length cut)
  | None -> Alcotest.fail "empty cut expected");
  match Lbc_exact.min_cut ~mode:Fault.VFT g ~u:0 ~v:3 ~t:3 ~limit:3 with
  | Some cut -> checki "two vertices for t=3" 2 (List.length cut)
  | None -> Alcotest.fail "cut expected"

let test_exact_cut_certificate_valid () =
  let r = rng () in
  for _ = 1 to 15 do
    let g = Generators.connected_gnp r ~n:14 ~p:0.25 in
    let u = 0 and v = Graph.n g - 1 in
    match Lbc_exact.min_cut ~mode:Fault.VFT g ~u ~v ~t:3 ~limit:4 with
    | Some cut ->
        checkb "certificate" true (Lbc_exact.is_cut ~mode:Fault.VFT g ~u ~v ~t:3 cut)
    | None -> ()
  done

(* ------------------------- Lbc (Algorithm 2) ------------------------ *)

let test_lbc_no_path_is_immediate_yes () =
  let g = Graph.create 4 in
  match Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:3 ~t:3 ~alpha:2 with
  | Lbc.Yes { cut } -> checki "empty cut" 0 (List.length cut)
  | Lbc.No _ -> Alcotest.fail "expected YES"

let test_lbc_direct_edge_vft_is_no () =
  (* VFT cannot cut a direct edge, so LBC must answer NO. *)
  let g = Graph.of_edges 2 [ (0, 1) ] in
  checkb "NO" false (is_yes (Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:1 ~t:1 ~alpha:5))

let test_lbc_direct_edge_eft_is_yes () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  checkb "YES" true (is_yes (Lbc.decide ~mode:Fault.EFT g ~u:0 ~v:1 ~t:1 ~alpha:1))

let test_lbc_single_path_yes () =
  let g = Generators.path 4 in
  match Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:3 ~t:3 ~alpha:1 with
  | Lbc.Yes { cut } ->
      checkb "cut within alpha*(t-1)" true (List.length cut <= 1 * 2);
      checkb "certified" true (Lbc_exact.is_cut ~mode:Fault.VFT g ~u:0 ~v:3 ~t:3 cut)
  | Lbc.No _ -> Alcotest.fail "expected YES"

let test_lbc_alpha_zero_is_reachability () =
  (* alpha = 0: YES iff there is no t-hop path at all (the classic greedy
     test). *)
  let g = Generators.cycle 8 in
  checkb "4 hops needed, t=3 -> YES" true
    (is_yes (Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:4 ~t:3 ~alpha:0));
  checkb "t=4 path exists -> NO" false
    (is_yes (Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:4 ~t:4 ~alpha:0))

let test_lbc_gap_yes_side () =
  (* Theorem 4 completeness: if a cut of size <= alpha exists, the answer
     must be YES.  Cross-check against the exact solver. *)
  let r = rng () in
  let tested = ref 0 in
  for _ = 1 to 40 do
    let g = Generators.connected_gnp r ~n:16 ~p:0.2 in
    let u = Rng.int r 16 and v = Rng.int r 16 in
    if u <> v then begin
      let t = 3 in
      let alpha = 2 in
      match Lbc_exact.min_cut ~mode:Fault.VFT g ~u ~v ~t ~limit:alpha with
      | Some _ ->
          incr tested;
          checkb "small cut forces YES" true
            (is_yes (Lbc.decide ~mode:Fault.VFT g ~u ~v ~t ~alpha))
      | None -> ()
    end
  done;
  checkb "the sweep exercised the YES side" true (!tested > 5)

let test_lbc_gap_no_side () =
  (* Theorem 4 soundness: if every cut has size > alpha * t, the answer
     must be NO.  A theta graph with alpha*t + 1 disjoint short paths
     qualifies. *)
  let t = 3 in
  let alpha = 2 in
  let g, u, v = theta ~paths:((alpha * t) + 1) ~len:3 in
  checkb "NO forced" false (is_yes (Lbc.decide ~mode:Fault.VFT g ~u ~v ~t ~alpha))

let test_lbc_yes_certificate_is_cut () =
  let r = rng () in
  for _ = 1 to 30 do
    let g = Generators.connected_gnp r ~n:20 ~p:0.15 in
    let u = Rng.int r 20 and v = Rng.int r 20 in
    if u <> v then
      List.iter
        (fun mode ->
          match Lbc.decide ~mode g ~u ~v ~t:3 ~alpha:2 with
          | Lbc.Yes { cut } ->
              checkb "certificate is a length-t cut" true
                (Lbc_exact.is_cut ~mode g ~u ~v ~t:3 cut);
              checkb "certificate size bound" true (List.length cut <= 2 * 3)
          | Lbc.No _ -> ())
        [ Fault.VFT; Fault.EFT ]
  done

let test_lbc_eft_theta () =
  let g, u, v = theta ~paths:2 ~len:3 in
  checkb "EFT yes at alpha=2" true
    (is_yes (Lbc.decide ~mode:Fault.EFT g ~u ~v ~t:5 ~alpha:2))

let test_lbc_workspace_reuse_consistent () =
  let ws = Lbc.Workspace.create () in
  let r = rng () in
  for _ = 1 to 25 do
    let g = Generators.connected_gnp r ~n:18 ~p:0.2 in
    let u = Rng.int r 18 and v = Rng.int r 18 in
    if u <> v then begin
      let a = Lbc.decide ~ws ~mode:Fault.VFT g ~u ~v ~t:3 ~alpha:2 in
      let b = Lbc.decide ~mode:Fault.VFT g ~u ~v ~t:3 ~alpha:2 in
      checkb "same verdict with and without shared workspace" (is_yes a) (is_yes b)
    end
  done

(* Regression for the workspace growth bug: [Workspace.ensure] used to
   replace a too-small mask with a fresh array instead of blit-growing it,
   so a workspace shared across graphs of interleaved sizes lost mask
   state exactly when a bigger graph forced a growth.  Verdicts AND cut
   certificates must match fresh-workspace runs at every step. *)
let test_lbc_workspace_growth_preserves_state () =
  let ws = Lbc.Workspace.create () in
  let r = rng () in
  let sizes = [ 8; 40; 12; 200; 10; 400; 16 ] in
  List.iter
    (fun n ->
      let g = Generators.connected_gnp r ~n ~p:(min 0.5 (8.0 /. float_of_int n)) in
      let u = Rng.int r n and v = Rng.int r n in
      if u <> v then
        List.iter
          (fun mode ->
            let shared = Lbc.decide ~ws ~mode g ~u ~v ~t:3 ~alpha:2 in
            let fresh = Lbc.decide ~mode g ~u ~v ~t:3 ~alpha:2 in
            match (shared, fresh) with
            | Lbc.Yes { cut = c1 }, Lbc.Yes { cut = c2 } ->
                check
                  Alcotest.(list int)
                  (Printf.sprintf "same cut at n=%d" n)
                  (List.sort compare c2) (List.sort compare c1)
            | Lbc.No _, Lbc.No _ -> ()
            | _ ->
                Alcotest.failf "verdict diverged at n=%d: shared=%b fresh=%b" n
                  (is_yes shared) (is_yes fresh))
          [ Fault.VFT; Fault.EFT ])
    sizes

let test_lbc_rejects_bad_args () =
  let g = Generators.path 3 in
  (try
     ignore (Lbc.decide ~mode:Fault.VFT g ~u:1 ~v:1 ~t:1 ~alpha:1);
     Alcotest.fail "u = v should fail"
   with Invalid_argument _ -> ());
  (try
     ignore (Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:1 ~t:0 ~alpha:1);
     Alcotest.fail "t = 0 should fail"
   with Invalid_argument _ -> ());
  try
    ignore (Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:1 ~t:1 ~alpha:(-1));
    Alcotest.fail "alpha < 0 should fail"
  with Invalid_argument _ -> ()

let test_lbc_monotone_in_alpha () =
  (* More removal rounds can only flip NO -> YES. *)
  let r = rng () in
  for _ = 1 to 30 do
    let g = Generators.connected_gnp r ~n:16 ~p:0.25 in
    let u = Rng.int r 16 and v = Rng.int r 16 in
    if u <> v then begin
      let weaker = is_yes (Lbc.decide ~mode:Fault.VFT g ~u ~v ~t:3 ~alpha:1) in
      let stronger = is_yes (Lbc.decide ~mode:Fault.VFT g ~u ~v ~t:3 ~alpha:4) in
      if weaker then checkb "YES stays YES as alpha grows" true stronger
    end
  done

let test_lbc_does_not_mutate_graph () =
  let g = Generators.cycle 8 in
  let before = Graph.m g in
  ignore (Lbc.decide ~mode:Fault.VFT g ~u:0 ~v:4 ~t:4 ~alpha:2);
  ignore (Lbc.decide ~mode:Fault.EFT g ~u:0 ~v:4 ~t:4 ~alpha:2);
  checki "m unchanged" before (Graph.m g)

(* The smallest non-terminal fault set of size <= limit that is a
   length-t cut, by trying every set. *)
let brute_min_cut ~mode g ~u ~v ~t ~limit =
  let best = ref None in
  Fault.enumerate mode g ~f:limit (fun { Fault.members; _ } ->
      let terminal = mode = Fault.VFT && (List.mem u members || List.mem v members) in
      let size = List.length members in
      let smaller = match !best with None -> true | Some b -> size < b in
      if (not terminal) && smaller && Lbc_exact.is_cut ~mode g ~u ~v ~t members
      then best := Some size);
  !best

let test_exact_matches_brute_force () =
  let r = Rng.create ~seed:77 in
  for i = 0 to 7 do
    let n = 7 + (i mod 3) in
    let g = Generators.connected_gnp r ~n ~p:0.4 in
    List.iter
      (fun mode ->
        for t = 1 to 5 do
          for limit = 0 to 3 do
            let u = Rng.int r n in
            let v = (u + 1 + Rng.int r (n - 1)) mod n in
            let label = Printf.sprintf "graph %d u=%d v=%d t=%d limit=%d" i u v t limit in
            match (Lbc_exact.min_cut ~mode g ~u ~v ~t ~limit, brute_min_cut ~mode g ~u ~v ~t ~limit) with
            | None, None -> ()
            | Some cut, Some size ->
                checki (label ^ ": minimum size") size (List.length cut);
                checkb (label ^ ": is a cut") true (Lbc_exact.is_cut ~mode g ~u ~v ~t cut)
            | found, brute ->
                Alcotest.failf "%s: min_cut %s, brute force %s" label
                  (if found = None then "None" else "Some")
                  (if brute = None then "None" else "Some")
          done
        done)
      [ Fault.VFT; Fault.EFT ]
  done

(* Literal cuts recorded from the branch-and-bound that min_cut replaced:
   the same first minimum cut in DFS preorder, not just one of equal size. *)
let test_exact_pinned_cuts () =
  let r = Rng.create ~seed:31 in
  let graphs = Array.init 4 (fun _ -> Generators.connected_gnp r ~n:14 ~p:0.35) in
  List.iter
    (fun (i, mode, u, v, t, expected) ->
      check
        Alcotest.(option (list int))
        (Printf.sprintf "graph %d %d-%d t=%d" i u v t)
        expected
        (Lbc_exact.min_cut ~mode graphs.(i) ~u ~v ~t ~limit:4))
    [
      (0, Fault.VFT, 0, 13, 3, Some [ 3; 10; 12 ]);
      (0, Fault.VFT, 2, 9, 4, Some [ 4; 8; 12 ]);
      (0, Fault.VFT, 5, 11, 5, None);
      (0, Fault.EFT, 0, 13, 3, Some [ 2; 24; 26 ]);
      (0, Fault.EFT, 2, 9, 4, Some [ 13; 20; 23 ]);
      (0, Fault.EFT, 5, 11, 5, Some [ 9; 15; 25 ]);
      (1, Fault.VFT, 2, 9, 4, Some [ 10; 11 ]);
      (1, Fault.VFT, 5, 11, 5, Some [ 3; 6; 7; 8 ]);
      (1, Fault.EFT, 0, 13, 3, None);
      (1, Fault.EFT, 5, 11, 5, Some [ 12; 18; 19; 20 ]);
      (2, Fault.VFT, 2, 9, 4, Some [ 5; 11; 13 ]);
      (2, Fault.VFT, 5, 11, 5, Some [ 3; 9; 12 ]);
      (2, Fault.EFT, 0, 13, 3, Some [ 0; 1 ]);
      (2, Fault.EFT, 2, 9, 4, Some [ 19; 27; 28 ]);
      (3, Fault.EFT, 2, 9, 4, Some [ 11; 15 ]);
    ]

let test_find_cut_existence () =
  (* Theta graph with 3 disjoint 2-hop paths: the 3 middle vertices form a
     cut, 2 vertices do not. *)
  let g, u, v = theta ~paths:3 ~len:2 in
  let find within limit = Lbc_exact.find_cut ~mode:Fault.VFT g ~u ~v ~within ~limit in
  check Alcotest.(option (list int)) "three paths need three faults" None
    (find (Lbc_exact.Weight 2.) 2);
  check Alcotest.(option (list int)) "the middle vertices" (Some [ 2; 3; 4 ])
    (find (Lbc_exact.Hops 2) 3)

let test_exact_rejects_bad_args () =
  let g = Generators.path 3 in
  let rejects label f =
    match f () with
    | _ -> Alcotest.failf "%s should fail" label
    | exception Invalid_argument _ -> ()
  in
  rejects "u = v" (fun () -> Lbc_exact.min_cut ~mode:Fault.VFT g ~u:1 ~v:1 ~t:1 ~limit:1);
  rejects "t = 0" (fun () -> Lbc_exact.min_cut ~mode:Fault.VFT g ~u:0 ~v:2 ~t:0 ~limit:1);
  rejects "limit < 0" (fun () -> Lbc_exact.min_cut ~mode:Fault.VFT g ~u:0 ~v:2 ~t:2 ~limit:(-1));
  rejects "Hops 0" (fun () ->
      Lbc_exact.find_cut ~mode:Fault.VFT g ~u:0 ~v:2 ~within:(Lbc_exact.Hops 0) ~limit:1);
  rejects "find_cut limit < 0" (fun () ->
      Lbc_exact.find_cut ~mode:Fault.EFT g ~u:0 ~v:2 ~within:(Lbc_exact.Weight 2.) ~limit:(-1))

let () =
  Alcotest.run "length-bounded cut"
    [
      ( "exact",
        [
          Alcotest.test_case "single path" `Quick test_exact_single_path;
          Alcotest.test_case "direct edge VFT" `Quick test_exact_direct_edge_vft_uncuttable;
          Alcotest.test_case "theta graphs" `Quick test_exact_theta_graphs;
          Alcotest.test_case "limit respected" `Quick test_exact_limit_respected;
          Alcotest.test_case "t sensitivity" `Quick test_exact_t_sensitivity;
          Alcotest.test_case "certificates" `Quick test_exact_cut_certificate_valid;
          Alcotest.test_case "matches brute force" `Quick test_exact_matches_brute_force;
          Alcotest.test_case "pinned cuts" `Quick test_exact_pinned_cuts;
          Alcotest.test_case "find_cut existence" `Quick test_find_cut_existence;
          Alcotest.test_case "rejects bad args" `Quick test_exact_rejects_bad_args;
        ] );
      ( "algorithm 2",
        [
          Alcotest.test_case "no path = YES" `Quick test_lbc_no_path_is_immediate_yes;
          Alcotest.test_case "direct edge VFT = NO" `Quick test_lbc_direct_edge_vft_is_no;
          Alcotest.test_case "direct edge EFT = YES" `Quick test_lbc_direct_edge_eft_is_yes;
          Alcotest.test_case "single path YES" `Quick test_lbc_single_path_yes;
          Alcotest.test_case "alpha=0 reachability" `Quick test_lbc_alpha_zero_is_reachability;
          Alcotest.test_case "gap YES side (Thm 4)" `Quick test_lbc_gap_yes_side;
          Alcotest.test_case "gap NO side (Thm 4)" `Quick test_lbc_gap_no_side;
          Alcotest.test_case "YES certificates" `Quick test_lbc_yes_certificate_is_cut;
          Alcotest.test_case "EFT theta" `Quick test_lbc_eft_theta;
          Alcotest.test_case "workspace reuse" `Quick test_lbc_workspace_reuse_consistent;
          Alcotest.test_case "workspace growth" `Quick
            test_lbc_workspace_growth_preserves_state;
          Alcotest.test_case "rejects bad args" `Quick test_lbc_rejects_bad_args;
          Alcotest.test_case "monotone in alpha" `Quick test_lbc_monotone_in_alpha;
          Alcotest.test_case "no graph mutation" `Quick test_lbc_does_not_mutate_graph;
        ] );
    ]
