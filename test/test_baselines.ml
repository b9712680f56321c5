(* Tests for the baseline constructions (Baswana-Sen, DK11) and the
   supporting modules (Fault, Selection, Verify, Bounds, Spanner facade). *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

let rng () = Rng.create ~seed:2024

let stretch k = float_of_int ((2 * k) - 1)

(* --------------------------- Fault ---------------------------------- *)

let test_fault_masks_vft () =
  let g = Generators.cycle 5 in
  let fault = Fault.of_vertices [ 1; 3 ] in
  match Fault.masks g fault with
  | Some bv, None ->
      checkb "1 blocked" true bv.(1);
      checkb "3 blocked" true bv.(3);
      checkb "0 free" false bv.(0)
  | _ -> Alcotest.fail "expected vertex mask only"

let test_fault_masks_eft () =
  let g = Generators.cycle 5 in
  let fault = Fault.of_edges [ 0; 4 ] in
  match Fault.masks g fault with
  | None, Some be ->
      checkb "0 blocked" true be.(0);
      checkb "2 free" false be.(2)
  | _ -> Alcotest.fail "expected edge mask only"

let test_fault_dedup () =
  checki "dedup" 2 (List.length (Fault.of_vertices [ 3; 1; 3; 1 ]).Fault.members)

(* Whether a fault set spares a pair's endpoints, read off the masks the
   searches consume. *)
let test_fault_spares () =
  let g = Generators.path 4 in
  let spares fault u v =
    match fst (Fault.masks g fault) with
    | None -> true
    | Some bv -> not (bv.(u) || bv.(v))
  in
  let f = Fault.of_vertices [ 2 ] in
  checkb "pair away from fault" true (spares f 0 1);
  checkb "pair hit by fault" false (spares f 2 1);
  let fe = Fault.of_edges [ 0 ] in
  checkb "EFT never removes endpoints" true (spares fe 0 1)

let test_fault_random_size_and_range () =
  let r = rng () in
  let g = Generators.cycle 10 in
  for _ = 1 to 20 do
    let fv = Fault.random r Fault.VFT g ~f:3 in
    checki "vft size" 3 (List.length fv.Fault.members);
    List.iter (fun x -> checkb "vertex range" true (x >= 0 && x < 10)) fv.Fault.members;
    let fe = Fault.random r Fault.EFT g ~f:4 in
    checki "eft size" 4 (List.length fe.Fault.members);
    List.iter (fun x -> checkb "edge range" true (x >= 0 && x < 10)) fe.Fault.members
  done

let test_fault_random_capped_by_universe () =
  let r = rng () in
  let g = Generators.path 3 in
  checki "capped" 3 (List.length (Fault.random r Fault.VFT g ~f:50).Fault.members)

let test_fault_enumerate_counts () =
  let g = Generators.path 4 in
  (* n = 4: subsets of size <= 2 over 4 vertices: 1 + 4 + 6 = 11 *)
  let count = ref 0 in
  Fault.enumerate Fault.VFT g ~f:2 (fun _ -> incr count);
  checki "subset count" 11 !count;
  checkf "count_subsets agrees" 11. (Fault.count_subsets ~universe:4 ~f:2)

let test_fault_enumerate_distinct () =
  let g = Generators.path 4 in
  let seen = Hashtbl.create 16 in
  Fault.enumerate Fault.VFT g ~f:2 (fun fault ->
      let key = String.concat "," (List.map string_of_int fault.Fault.members) in
      checkb "no duplicates" false (Hashtbl.mem seen key);
      Hashtbl.replace seen key ());
  checki "all distinct" 11 (Hashtbl.length seen)

let test_fault_adversarial_near_edge () =
  let r = rng () in
  let g = Generators.complete 8 in
  for _ = 1 to 10 do
    let fault = Fault.random_adversarial r Fault.VFT g ~f:3 in
    checkb "size within f" true (List.length fault.Fault.members <= 3)
  done

(* Members drawn for f = 1, 2, 3 from one stream per (mode, seed), and
   the stream's next draw: the candidate scan and every rng draw are
   pinned, so both modes keep sampling exactly what they did. *)
let test_fault_adversarial_pinned () =
  let g = Generators.connected_gnp (Rng.create ~seed:3) ~n:20 ~p:0.3 in
  let pin mode seed expect next =
    let r = Rng.create ~seed in
    let got =
      List.init 3 (fun i -> (Fault.random_adversarial r mode g ~f:(i + 1)).Fault.members)
    in
    let name = Format.asprintf "%a seed=%d" Fault.pp_mode mode seed in
    check (Alcotest.list (Alcotest.list Alcotest.int)) name expect got;
    checki (name ^ " next draw") next (Rng.int r 1000000)
  in
  pin Fault.VFT 1 [ [ 12 ]; [ 8; 12 ]; [ 5; 9; 10 ] ] 570435;
  pin Fault.VFT 2 [ [ 5 ]; [ 5; 19 ]; [ 5; 12; 13 ] ] 577104;
  pin Fault.VFT 3 [ [ 11 ]; [ 10; 18 ]; [ 0; 3; 8 ] ] 415555;
  pin Fault.VFT 42 [ [ 9 ]; [ 10; 13 ]; [ 0; 11; 13 ] ] 1342;
  pin Fault.EFT 1 [ [ 19 ]; [ 16; 34 ]; [ 8; 38; 55 ] ] 975714;
  pin Fault.EFT 2 [ [ 38 ]; [ 14; 42 ]; [ 19; 32; 53 ] ] 6115;
  pin Fault.EFT 3 [ [ 11 ]; [ 42; 43 ]; [ 13; 28; 29 ] ] 759029;
  pin Fault.EFT 42 [ [ 55 ]; [ 2; 53 ]; [ 4; 48; 62 ] ] 609586

(* -------------------------- Selection ------------------------------- *)

let test_selection_of_ids_and_mem () =
  let g = Generators.cycle 5 in
  let sel = Selection.of_ids g [ 0; 2 ] in
  checki "size" 2 sel.Selection.size;
  checkb "mem 0" true sel.Selection.selected.(0);
  checkb "mem 1" false sel.Selection.selected.(1);
  check (Alcotest.list Alcotest.int) "ids sorted" [ 0; 2 ] (Selection.ids sel)

let test_selection_union () =
  let g = Generators.cycle 6 in
  let a = Selection.of_ids g [ 0; 1 ] in
  let b = Selection.of_ids g [ 1; 4 ] in
  let u = Selection.union a b in
  check (Alcotest.list Alcotest.int) "union" [ 0; 1; 4 ] (Selection.ids u)

let test_selection_weight_and_subgraph () =
  let g = Graph.of_weighted_edges 4 [ (0, 1, 2.); (1, 2, 3.); (2, 3, 4.) ] in
  let sel = Selection.of_ids g [ 0; 2 ] in
  checkf "weight" 6. (Selection.weight sel);
  let sub = Selection.to_subgraph sel in
  checki "subgraph m" 2 (Graph.m sub.Subgraph.graph);
  checki "subgraph n preserved" 4 (Graph.n sub.Subgraph.graph)

let test_selection_blocked_edges () =
  let g = Generators.cycle 4 in
  let sel = Selection.of_ids g [ 0; 1 ] in
  let blocked = Selection.blocked_edges sel [ 1 ] in
  checkb "unselected blocked" true blocked.(2);
  checkb "faulted blocked" true blocked.(1);
  checkb "selected unfaulted open" false blocked.(0)

let test_selection_full () =
  let g = Generators.cycle 7 in
  checki "full" 7 (Selection.full g).Selection.size

let test_selection_rejects_bad_ids () =
  let g = Generators.cycle 4 in
  try
    ignore (Selection.of_ids g [ 9 ]);
    Alcotest.fail "bad id should fail"
  with Invalid_argument _ -> ()

(* -------------------------- Verify ---------------------------------- *)

let test_verify_full_selection_always_ok () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:25 ~p:0.2 in
  let sel = Selection.full g in
  let report = Verify.random ~cfg:(Verify.config ~rng:r ~trials:25 ()) sel ~mode:Fault.VFT ~stretch:1.0 ~f:3 in
  checkb "G is a 1-spanner of itself under any faults" true (Verify.ok report)

let test_verify_detects_bad_spanner () =
  (* C6 minus one edge is not a 1-FT spanner of C6: fault another edge and
     the two sides disconnect. *)
  let g = Generators.cycle 6 in
  let sel = Selection.of_ids g [ 0; 1; 2; 3; 4 ] (* drop edge 5 *) in
  let report = Verify.exhaustive sel ~mode:Fault.EFT ~stretch:(stretch 2) ~f:1 in
  checkb "violation found" false (Verify.ok report);
  (* The whole record, pinned: the empty fault set already breaks the
     dropped edge {0,5}, whose detour in H is the other five edges. *)
  checki "checked" 1 report.Verify.checked;
  checkb "record" true
    (report.Verify.violation
    = Some
        {
          Verify.fault = Fault.of_edges [];
          u = 0;
          v = 5;
          d_source = 1.0;
          d_spanner = 5.0;
        })

let test_verify_spanning_tree_f0 () =
  (* A BFS tree of a cycle is a valid (n-1)-spanner at f=0 but breaks at
     stretch 3 for long cycles. *)
  let g = Generators.cycle 10 in
  let sel = Selection.of_ids g [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let bad = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:3.0 ~f:0 in
  checkb "stretch 3 violated by path detour of length 9" false (Verify.ok bad);
  let good = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:9.0 ~f:0 in
  checkb "stretch 9 fine" true (Verify.ok good)

let test_verify_exhaustive_refuses_huge () =
  let g = Generators.complete 30 in
  let sel = Selection.full g in
  try
    ignore (Verify.exhaustive sel ~mode:Fault.VFT ~stretch:3.0 ~f:10);
    Alcotest.fail "should refuse"
  with Invalid_argument _ -> ()

let test_verify_max_stretch () =
  let g = Generators.cycle 6 in
  let sel = Selection.of_ids g [ 0; 1; 2; 3; 4 ] in
  (* dropped edge {0,5}: detour length 5 *)
  checkf "stretch of dropped edge" 5.0
    (Verify.max_stretch_under_fault sel (Fault.empty Fault.VFT));
  (* faulting edge 0 disconnects 5 from 0 within the spanner? no - the
     spanner is the path 0..5; faulting path edge 2 disconnects {0,5}'s
     detour but the cycle edge {0,5} is also gone from the spanner ->
     infinite stretch for surviving source edge? Source edge {0,5} still
     exists in G \ {edge 2}. *)
  let s = Verify.max_stretch_under_fault sel (Fault.of_edges [ 2 ]) in
  checkb "disconnection = infinite stretch" true (s = infinity)

let test_verify_stretch_profile () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.2 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  let p = Verify.profile ~cfg:(Verify.config ~rng:r ~trials:40 ()) sel ~mode:Fault.VFT ~f:2 in
  checki "samples" 40 p.Verify.samples;
  checki "no disconnections for a 2-FT spanner at f=2" 0 p.Verify.disconnections;
  checkb "worst within guarantee" true (p.Verify.worst <= 3.0 +. 1e-9);
  checkb "mean <= p95 <= worst" true
    (p.Verify.mean <= p.Verify.p95 +. 1e-9 && p.Verify.p95 <= p.Verify.worst +. 1e-9);
  (* an under-provisioned spanner shows strictly worse profile *)
  let weak = Classic_greedy.build ~k:2 g in
  let pw = Verify.profile ~cfg:(Verify.config ~rng:r ~trials:40 ()) weak ~mode:Fault.VFT ~f:2 in
  checkb "non-FT spanner degrades" true
    (pw.Verify.worst > p.Verify.worst || pw.Verify.disconnections > 0)

let test_verify_report_counts () =
  let r = rng () in
  let g = Generators.cycle 8 in
  let sel = Selection.full g in
  let report = Verify.random ~cfg:(Verify.config ~rng:r ~trials:17 ()) sel ~mode:Fault.VFT ~stretch:3.0 ~f:2 in
  checki "trials counted" 17 report.Verify.checked

(* ------------------------- Baswana-Sen ------------------------------ *)

let test_bs_is_spanner_unweighted () =
  let r = rng () in
  for seed = 1 to 5 do
    let g = Generators.connected_gnp (Rng.create ~seed) ~n:60 ~p:0.2 in
    let sel = Baswana_sen.build r ~k:2 g in
    let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:0 in
    checkb "BS k=2 valid" true (Verify.ok report)
  done

let test_bs_is_spanner_weighted () =
  let r = rng () in
  for seed = 1 to 5 do
    let base = Generators.connected_gnp (Rng.create ~seed) ~n:50 ~p:0.25 in
    let g = Generators.with_uniform_weights (Rng.create ~seed:(seed + 100)) base ~lo:0.1 ~hi:9.0 in
    let sel = Baswana_sen.build r ~k:3 g in
    let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 3) ~f:0 in
    checkb "BS k=3 weighted valid" true (Verify.ok report)
  done

let test_bs_k1_returns_everything () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:20 ~p:0.3 in
  checki "1-spanner is G" (Graph.m g) (Baswana_sen.build r ~k:1 g).Selection.size

let test_bs_sparsifies () =
  let r = rng () in
  let g = Generators.complete 64 in
  let sel = Baswana_sen.build r ~k:2 g in
  (* expected O(k n^1.5) = ~2*512 = 1024 < 2016; allow generous slack *)
  checkb
    (Printf.sprintf "sparsified: %d < %d" sel.Selection.size (Graph.m g))
    true
    (sel.Selection.size < Graph.m g)

let test_bs_size_expected_bound () =
  let r = rng () in
  let k = 2 in
  let g = Generators.connected_gnp r ~n:200 ~p:0.25 in
  let total = ref 0 in
  let runs = 5 in
  for _ = 1 to runs do
    total := !total + (Baswana_sen.build r ~k g).Selection.size
  done;
  let avg = float_of_int !total /. float_of_int runs in
  let bound = float_of_int k *. (float_of_int 200 ** 1.5) in
  checkb (Printf.sprintf "avg %.0f within 3x of k n^{1+1/k} = %.0f" avg bound)
    true (avg <= 3. *. bound)

let test_bs_keeps_tree_edges_of_sparse () =
  let r = rng () in
  let g = Generators.path 15 in
  let sel = Baswana_sen.build r ~k:2 g in
  checki "trees survive" 14 sel.Selection.size

let test_bs_state_exposed () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  let _, st = Baswana_sen.build_with_state r ~k:3 g in
  checki "phases" 2 st.Baswana_sen.phases;
  Array.iter
    (fun c -> checkb "center valid or retired" true (c >= -1 && c < 30))
    st.Baswana_sen.center_of

(* Literal selections and clusterings: any change to the cluster scan's
   tie-breaking, grouping order or kill timing moves one of these. *)
let test_bs_pinned () =
  let input ~weighted =
    let g = Generators.connected_gnp (Rng.create ~seed:17) ~n:24 ~p:0.3 in
    if weighted then
      Generators.with_uniform_weights (Rng.create ~seed:18) g ~lo:0.5 ~hi:4.0
    else g
  in
  let pin ~k ~weighted ids centers =
    let sel, st = Baswana_sen.build_with_state (Rng.create ~seed:5) ~k (input ~weighted) in
    let name = Printf.sprintf "k=%d weighted=%b" k weighted in
    check (Alcotest.list Alcotest.int) (name ^ " ids") ids (Selection.ids sel);
    check (Alcotest.array Alcotest.int) (name ^ " centers") centers st.Baswana_sen.center_of
  in
  pin ~k:2 ~weighted:false
    [ 0; 1; 2; 4; 5; 6; 7; 8; 9; 10; 11; 12; 14; 15; 16; 18; 19; 20; 21; 22;
      23; 24; 25; 28; 29; 31; 32; 35; 36; 37; 38; 39; 40; 41; 42; 44; 45; 46;
      47; 48; 49; 51; 52; 53; 54; 55; 57; 58; 59; 60; 61; 62; 64; 65; 66; 67;
      69; 70; 71; 72; 73; 74; 75 ]
    [| 4; 1; 11; 4; 4; 8; 1; 4; 8; 11; 4; 11; 1; 13; 14; 8; 1; 1; 18; 19; 8;
       4; 23; 23 |];
  pin ~k:2 ~weighted:true
    [ 0; 1; 2; 3; 4; 5; 6; 8; 9; 11; 12; 13; 14; 15; 16; 17; 19; 20; 21; 22;
      24; 25; 26; 27; 28; 29; 30; 31; 32; 34; 37; 38; 39; 40; 41; 42; 43; 44;
      46; 47; 48; 49; 50; 51; 53; 54; 55; 56; 57; 58; 59; 60; 61; 62; 63; 64;
      65; 66; 67; 68; 69; 70; 71; 72; 73; 74; 75 ]
    [| 4; 1; 11; 4; 4; 8; 8; 11; 8; 11; 19; 11; 19; 13; 14; 14; 1; 13; 18;
       19; 14; 19; 23; 23 |];
  pin ~k:3 ~weighted:false
    [ 0; 1; 2; 3; 5; 6; 7; 8; 9; 11; 12; 13; 14; 15; 16; 18; 19; 20; 22; 23;
      24; 25; 28; 29; 31; 34; 35; 36; 37; 38; 39; 40; 41; 42; 44; 45; 46; 47;
      48; 49; 50; 51; 52; 53; 54; 55; 56; 57; 58; 59; 61; 62; 63; 64; 65; 66;
      67; 69; 70; 71; 72; 73; 74; 75 ]
    [| -1; 1; 11; 11; 1; 1; 1; 11; 10; 10; 10; 11; 11; 13; 10; 1; 1; 1; 11;
       1; -1; 10; 23; 23 |];
  pin ~k:3 ~weighted:true
    [ 1; 3; 4; 6; 8; 9; 11; 12; 13; 14; 15; 16; 17; 19; 20; 21; 22; 24; 25;
      26; 27; 28; 29; 30; 31; 32; 34; 36; 37; 38; 39; 40; 41; 42; 43; 44; 46;
      47; 48; 49; 50; 51; 52; 53; 54; 55; 56; 57; 58; 59; 60; 61; 62; 64; 65;
      66; 67; 69; 70; 71; 72; 74; 75 ]
    [| 10; 1; 11; 23; 10; 23; 10; 11; 11; 10; 10; 11; 1; 13; 10; 1; 1; 13;
       11; 10; -1; 10; 23; 23 |]

(* ----------------------------- DK11 ---------------------------------- *)

let test_dk11_iterations_formula () =
  checki "f=0" 1 (Dk11.iterations ~f:0 ~n:100 ());
  let j1 = Dk11.iterations ~f:1 ~n:100 () in
  let j4 = Dk11.iterations ~f:4 ~n:100 () in
  (* (f+1)^3 ratio: (5/2)^3 = 15.6 *)
  checkb "grows cubically" true (j4 >= 15 * j1);
  let jc = Dk11.iterations ~c:2.0 ~f:1 ~n:100 () in
  checkb "c scales" true (jc >= 2 * j1 - 1)

let test_dk11_f0_single_spanner () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.3 in
  let sel = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:0 g in
  let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:0 in
  checkb "valid" true (Verify.ok report)

let test_dk11_vft_exhaustive_small () =
  let r = rng () in
  let g = Generators.complete 12 in
  let sel = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:1 ~c:2.0 g in
  let report = Verify.exhaustive sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:1 in
  checkb "valid w.h.p." true (Verify.ok report)

let test_dk11_vft_sampled_medium () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.25 in
  let sel = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:2 ~c:1.5 g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:2
  in
  checkb "valid on adversarial samples" true (Verify.ok report)

let test_dk11_eft_sampled () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.3 in
  let sel = Dk11.build r ~mode:Fault.EFT ~k:2 ~f:2 ~c:1.5 g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) sel ~mode:Fault.EFT ~stretch:(stretch 2) ~f:2
  in
  checkb "EFT variant valid" true (Verify.ok report)

let test_dk11_custom_algo_plugged () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  (* plug the classic greedy instead of Baswana-Sen *)
  let algo _rng sub = Classic_greedy.build ~k:2 sub in
  let sel = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:1 ~algo g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) sel ~mode:Fault.VFT ~stretch:(stretch 2) ~f:1
  in
  checkb "valid with plugged algo" true (Verify.ok report)

let test_dk11_denser_than_greedy_at_large_f () =
  (* E8's claim, spot-checked: at f = 4 the DK11 union is denser than the
     polynomial greedy. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:80 ~p:0.3 in
  let dk = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:4 g in
  let greedy = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:4 g in
  checkb
    (Printf.sprintf "dk11 %d >= greedy %d" dk.Selection.size greedy.Selection.size)
    true
    (dk.Selection.size >= greedy.Selection.size)

(* ----------------------------- Bounds -------------------------------- *)

let test_bounds_formulas () =
  checkf "optimal k=1" (float_of_int (10 * 10)) (Bounds.optimal_size ~k:1 ~f:1 ~n:10);
  checkf "poly = k * optimal" (2. *. Bounds.optimal_size ~k:2 ~f:3 ~n:50)
    (Bounds.poly_greedy_size ~k:2 ~f:3 ~n:50);
  checkb "dk11 denser than optimal" true
    (Bounds.dk11_size ~k:2 ~f:4 ~n:100 > Bounds.optimal_size ~k:2 ~f:4 ~n:100)

let test_bounds_monotonicity () =
  checkb "grows in f" true
    (Bounds.optimal_size ~k:2 ~f:8 ~n:100 > Bounds.optimal_size ~k:2 ~f:2 ~n:100);
  checkb "grows in n" true
    (Bounds.optimal_size ~k:2 ~f:2 ~n:200 > Bounds.optimal_size ~k:2 ~f:2 ~n:100)

let test_bounds_log_log_slope () =
  (* y = 3 x^2 has log-log slope 2. *)
  let pts = List.map (fun x -> (x, 3. *. x *. x)) [ 1.; 2.; 4.; 8.; 16. ] in
  checkb "slope 2" true (abs_float (Bounds.log_log_slope pts -. 2.) < 1e-9);
  try
    ignore (Bounds.log_log_slope [ (1., 1.) ]);
    Alcotest.fail "single point should fail"
  with Invalid_argument _ -> ()

(* -------------------------- Spanner facade --------------------------- *)

let test_facade_dispatch () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.3 in
  let params = { Spanner.k = 2; f = 1; mode = Fault.VFT } in
  List.iter
    (fun algorithm ->
      let sel = Spanner.build ~rng:r ~algorithm params g in
      let report =
        Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:30 ()) sel ~mode:Fault.VFT
          ~stretch:(Spanner.stretch params) ~f:1
      in
      checkb (Spanner.algorithm_name algorithm) true (Verify.ok report))
    Spanner.all_algorithms

let test_facade_stretch () =
  checkf "stretch" 3.0 (Spanner.stretch { Spanner.k = 2; f = 1; mode = Fault.VFT })

let test_facade_summary () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.3 in
  let params = { Spanner.k = 2; f = 2; mode = Fault.VFT } in
  let sel = Spanner.build ~rng:r params g in
  let s = Spanner.summarize ~algorithm:Spanner.Greedy_poly params sel in
  checki "m source" (Graph.m g) s.Spanner.m_source;
  checki "m spanner" sel.Selection.size s.Spanner.m_spanner;
  checkb "ratio positive" true (s.Spanner.bound_ratio > 0.)

let () =
  Alcotest.run "baselines and support"
    [
      ( "fault",
        [
          Alcotest.test_case "masks vft" `Quick test_fault_masks_vft;
          Alcotest.test_case "masks eft" `Quick test_fault_masks_eft;
          Alcotest.test_case "dedup" `Quick test_fault_dedup;
          Alcotest.test_case "spares" `Quick test_fault_spares;
          Alcotest.test_case "random size/range" `Quick test_fault_random_size_and_range;
          Alcotest.test_case "random capped" `Quick test_fault_random_capped_by_universe;
          Alcotest.test_case "enumerate counts" `Quick test_fault_enumerate_counts;
          Alcotest.test_case "enumerate distinct" `Quick test_fault_enumerate_distinct;
          Alcotest.test_case "adversarial" `Quick test_fault_adversarial_near_edge;
          Alcotest.test_case "adversarial pinned" `Quick test_fault_adversarial_pinned;
        ] );
      ( "selection",
        [
          Alcotest.test_case "ids and mem" `Quick test_selection_of_ids_and_mem;
          Alcotest.test_case "union" `Quick test_selection_union;
          Alcotest.test_case "weight/subgraph" `Quick test_selection_weight_and_subgraph;
          Alcotest.test_case "blocked edges" `Quick test_selection_blocked_edges;
          Alcotest.test_case "full" `Quick test_selection_full;
          Alcotest.test_case "bad ids" `Quick test_selection_rejects_bad_ids;
        ] );
      ( "verify",
        [
          Alcotest.test_case "full ok" `Quick test_verify_full_selection_always_ok;
          Alcotest.test_case "detects bad" `Quick test_verify_detects_bad_spanner;
          Alcotest.test_case "tree f=0" `Quick test_verify_spanning_tree_f0;
          Alcotest.test_case "refuses huge" `Quick test_verify_exhaustive_refuses_huge;
          Alcotest.test_case "max stretch" `Quick test_verify_max_stretch;
          Alcotest.test_case "stretch profile" `Quick test_verify_stretch_profile;
          Alcotest.test_case "report counts" `Quick test_verify_report_counts;
        ] );
      ( "baswana-sen",
        [
          Alcotest.test_case "unweighted valid" `Quick test_bs_is_spanner_unweighted;
          Alcotest.test_case "weighted valid" `Quick test_bs_is_spanner_weighted;
          Alcotest.test_case "k=1 keeps all" `Quick test_bs_k1_returns_everything;
          Alcotest.test_case "sparsifies" `Quick test_bs_sparsifies;
          Alcotest.test_case "expected size" `Quick test_bs_size_expected_bound;
          Alcotest.test_case "trees survive" `Quick test_bs_keeps_tree_edges_of_sparse;
          Alcotest.test_case "state exposed" `Quick test_bs_state_exposed;
          Alcotest.test_case "pinned selections" `Quick test_bs_pinned;
        ] );
      ( "dk11",
        [
          Alcotest.test_case "iteration formula" `Quick test_dk11_iterations_formula;
          Alcotest.test_case "f=0" `Quick test_dk11_f0_single_spanner;
          Alcotest.test_case "VFT exhaustive" `Quick test_dk11_vft_exhaustive_small;
          Alcotest.test_case "VFT sampled" `Quick test_dk11_vft_sampled_medium;
          Alcotest.test_case "EFT sampled" `Quick test_dk11_eft_sampled;
          Alcotest.test_case "plugged algo" `Quick test_dk11_custom_algo_plugged;
          Alcotest.test_case "denser than greedy" `Quick test_dk11_denser_than_greedy_at_large_f;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "formulas" `Quick test_bounds_formulas;
          Alcotest.test_case "monotonicity" `Quick test_bounds_monotonicity;
          Alcotest.test_case "log-log slope" `Quick test_bounds_log_log_slope;
        ] );
      ( "facade",
        [
          Alcotest.test_case "dispatch" `Quick test_facade_dispatch;
          Alcotest.test_case "stretch" `Quick test_facade_stretch;
          Alcotest.test_case "summary" `Quick test_facade_summary;
        ] );
    ]
