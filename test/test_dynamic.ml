(* Tests for the Dynamic spanner service: the differential story (any op
   sequence is equivalent to a fresh Spanner.build on the final graph, up
   to the verified stretch bound), repair locality, the shed pass, the
   batched query plane's determinism, and the handle's error surface. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let stretch k = float_of_int ((2 * k) - 1)

let dyn ~mode ~k ~f n =
  Dynamic.create ~opts:(Dynamic.opts ~mode ~k ~f ()) (Graph.create n)

let insert d u v = ignore (Dynamic.apply d [ Dynamic.Insert { u; v; w = 1.0 } ])

(* ------------------------ unit helpers ------------------------------- *)

let path_graph n =
  let d = dyn ~mode:Fault.VFT ~k:2 ~f:1 n in
  for v = 0 to n - 2 do
    insert d v (v + 1)
  done;
  d

(* [create g] is [Poly_greedy.build g] plus bookkeeping: the snapshot
   keeps g's edge ids and the greedy's verdicts bit for bit, including
   on tied weights, where the order the greedy breaks ties in decides
   which edges survive. *)
let test_create_seeds_like_build () =
  let case name ~mode g =
    let d = Dynamic.create ~opts:(Dynamic.opts ~mode ~k:2 ~f:1 ()) g in
    let sel = Dynamic.snapshot d in
    let fresh = Poly_greedy.build ~mode ~k:2 ~f:1 g in
    checkb (name ^ ": selected = Poly_greedy.build") true
      (sel.Selection.selected = fresh.Selection.selected);
    checki (name ^ ": size") fresh.Selection.size (Dynamic.size d);
    checkb (name ^ ": g's edge ids") true
      (List.init (Graph.m g) (Graph.endpoints sel.Selection.source)
      = List.init (Graph.m g) (Graph.endpoints g));
    checki (name ^ ": epoch starts at 0") 0 (Dynamic.epoch d);
    checki (name ^ ": all edges live") (Graph.m g) (Dynamic.live_edges d)
  in
  let gnp ~seed ~n = Generators.connected_gnp (Rng.create ~seed) ~n ~p:0.3 in
  case "gnp n=60" ~mode:Fault.VFT (gnp ~seed:11 ~n:60);
  case "grid 10x10" ~mode:Fault.VFT (Generators.grid ~rows:10 ~cols:10);
  case "gnp n=30" ~mode:Fault.VFT (gnp ~seed:11 ~n:30);
  case "weighted gnp" ~mode:Fault.VFT
    (Generators.with_uniform_weights (Rng.create ~seed:12) (gnp ~seed:11 ~n:30)
       ~lo:1.0 ~hi:9.0);
  case "EFT gnp" ~mode:Fault.EFT (gnp ~seed:13 ~n:24)

let test_delete_and_query () =
  let d = path_graph 6 in
  let q = Dynamic.query_batch d ~faults:(Fault.empty Fault.VFT) [| (0, 5) |] in
  checki "path distance" 5 q.(0).Dynamic.hops;
  let s = Dynamic.apply d [ Dynamic.Delete_edge { u = 2; v = 3 } ] in
  checki "one edge deleted" 1 s.Dynamic.deleted_edges;
  let q = Dynamic.query_batch d ~faults:(Fault.empty Fault.VFT) [| (0, 5) |] in
  checkb "disconnected after cut" true (q.(0).Dynamic.distance = infinity);
  checki "hops flag disconnection" (-1) q.(0).Dynamic.hops

let test_delete_vertex_retires () =
  let d = path_graph 5 in
  let s = Dynamic.apply d [ Dynamic.Delete_vertex 2 ] in
  checki "vertex deleted" 1 s.Dynamic.deleted_vertices;
  checki "incident edges die with it" 2 s.Dynamic.deleted_edges;
  (try
     insert d 2 4;
     Alcotest.fail "insert on retired vertex should fail"
   with Invalid_argument _ -> ());
  (* a retired endpoint answers as disconnected, not as an error *)
  let q = Dynamic.query_batch d ~faults:(Fault.empty Fault.VFT) [| (2, 4) |] in
  checkb "retired endpoint disconnected" true (q.(0).Dynamic.distance = infinity)

let test_epoch_and_snapshot_cache () =
  let d = path_graph 4 in
  let e0 = Dynamic.epoch d in
  let s1 = Dynamic.snapshot d in
  let s2 = Dynamic.snapshot d in
  checkb "snapshot cached per epoch" true (s1 == s2);
  insert d 0 2;
  checkb "mutating apply bumps epoch" true (Dynamic.epoch d > e0);
  checkb "snapshot refreshed" true (Dynamic.snapshot d != s1);
  (* no-op batch: no epoch bump *)
  let e1 = Dynamic.epoch d in
  ignore (Dynamic.apply d []);
  checki "empty batch keeps epoch" e1 (Dynamic.epoch d)

let test_error_surface () =
  let d = path_graph 4 in
  let expect_invalid label ops =
    try
      ignore (Dynamic.apply d ops);
      Alcotest.failf "%s should raise" label
    with Invalid_argument _ -> ()
  in
  expect_invalid "self loop" [ Dynamic.Insert { u = 1; v = 1; w = 1.0 } ];
  expect_invalid "out of range" [ Dynamic.Insert { u = 0; v = 9; w = 1.0 } ];
  expect_invalid "duplicate" [ Dynamic.Insert { u = 0; v = 1; w = 1.0 } ];
  expect_invalid "bad weight" [ Dynamic.Insert { u = 0; v = 2; w = 0.0 } ];
  expect_invalid "absent edge" [ Dynamic.Delete_edge { u = 0; v = 3 } ];
  try
    ignore (Dynamic.query_batch d ~faults:(Fault.empty Fault.VFT) [| (0, 99) |]);
    Alcotest.fail "out-of-range query should raise"
  with Invalid_argument _ -> ()

(* The insert check is [Graph.valid_weight]: a non-finite weight is
   refused before it is stored, like a non-positive one. *)
let test_rejects_non_finite_weight () =
  let d = path_graph 4 in
  let live = Dynamic.live_edges d and e0 = Dynamic.epoch d in
  List.iter
    (fun w ->
      Alcotest.check_raises (Printf.sprintf "weight %g" w)
        (Invalid_argument "Dynamic.apply: weight must be finite and > 0")
        (fun () -> ignore (Dynamic.apply d [ Dynamic.Insert { u = 0; v = 2; w } ])))
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; 0.0 ];
  checki "nothing stored" live (Dynamic.live_edges d);
  checki "epoch unchanged" e0 (Dynamic.epoch d);
  insert d 0 2;
  checki "a finite weight still inserts" (live + 1) (Dynamic.live_edges d)

(* ---------------------- repair locality ------------------------------ *)

let test_repair_is_local_on_grid () =
  (* On a sparse grid the 2k-1 = 3-hop neighborhood of one deleted edge
     is a few dozen vertices; repair must not walk the whole graph. *)
  let g = Generators.grid ~rows:20 ~cols:20 in
  let d = Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ()) g in
  let sel = Dynamic.snapshot d in
  let kept_id = List.hd (Selection.ids sel) in
  let u, v = Graph.endpoints sel.Selection.source kept_id in
  let s = Dynamic.apply d [ Dynamic.Delete_edge { u; v } ] in
  checkb
    (Printf.sprintf "touched %d << n=400" s.Dynamic.touched_vertices)
    true
    (s.Dynamic.touched_vertices > 0 && s.Dynamic.touched_vertices < 150)

(* ------------------- differential vs fresh build --------------------- *)

(* Scripted op soup over a base graph, built in memory or [~mapped] from
   its binary copy: delete a slice of edges (spanner and non-spanner
   alike), retire a vertex, re-insert some deleted edges.  The surviving selection must verify to the same stretch bound a fresh
   build on the final graph satisfies. *)
let differential_case ~mode ~mapped ~seed ~n ~p =
  let r = Rng.create ~seed in
  let g0 = Generators.connected_gnp r ~n ~p in
  let g = if mapped then Int32_graph.of_graph g0 else g0 in
  let k = 2 and f = 1 in
  let d = Dynamic.create ~opts:(Dynamic.opts ~mode ~k ~f ()) g in
  (* delete every 5th edge, arbitrary order *)
  let doomed = ref [] in
  Graph.iter_edges g (fun e -> if e.Graph.id mod 5 = 0 then doomed := e :: !doomed);
  List.iter
    (fun e ->
      ignore
        (Dynamic.apply d [ Dynamic.Delete_edge { u = e.Graph.u; v = e.Graph.v } ]))
    !doomed;
  (* retire one vertex *)
  let victim = n - 1 in
  ignore (Dynamic.apply d [ Dynamic.Delete_vertex victim ]);
  (* re-insert half of the deleted edges (skip the retired vertex) *)
  List.iteri
    (fun i e ->
      if i mod 2 = 0 && e.Graph.u <> victim && e.Graph.v <> victim then
        insert d e.Graph.u e.Graph.v)
    !doomed;
  let sel = Dynamic.snapshot d in
  (* the maintained selection is a valid f-FT (2k-1)-spanner of the live
     graph — the same bound a fresh build satisfies *)
  let report = Verify.exhaustive sel ~mode ~stretch:(stretch k) ~f in
  (match report.Verify.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "dynamic selection violated: %s"
        (Format.asprintf "%a" Verify.pp_violation v));
  let fresh = Spanner.build { Spanner.k; f; mode } sel.Selection.source in
  let freshr = Verify.exhaustive fresh ~mode ~stretch:(stretch k) ~f in
  checkb "fresh build verifies too" true (Verify.ok freshr)

let test_differential_vft_built () =
  differential_case ~mode:Fault.VFT ~mapped:false ~seed:21 ~n:14 ~p:0.35

let test_differential_vft_mapped () =
  differential_case ~mode:Fault.VFT ~mapped:true ~seed:22 ~n:14 ~p:0.35

let test_differential_eft_built () =
  differential_case ~mode:Fault.EFT ~mapped:false ~seed:23 ~n:12 ~p:0.4

let test_differential_eft_mapped () =
  differential_case ~mode:Fault.EFT ~mapped:true ~seed:24 ~n:12 ~p:0.4

let arb_ops =
  (* (seed, n, ops): a random interleaved op script over an initially
     empty graph; ops reference only vertices < n and are repaired into
     validity during execution (inserts of existing edges and deletes of
     absent ones are skipped). *)
  QCheck.make
    ~print:(fun (seed, n, ops) ->
      Printf.sprintf "(seed=%d, n=%d, %d ops)" seed n (List.length ops))
    QCheck.Gen.(
      triple (int_range 1 1000) (int_range 6 13)
        (list_size (int_range 10 60) (triple (int_range 0 2) small_nat small_nat)))

let run_random_script ~mode (seed, n, ops) =
  let d = dyn ~mode ~k:2 ~f:1 n in
  let retired = Array.make n false in
  let live = Hashtbl.create 16 in
  let keyp u v = (min u v, max u v) in
  let rng = Rng.create ~seed in
  List.iter
    (fun (kind, a, b) ->
      let u = a mod n and v = b mod n in
      if u <> v && (not retired.(u)) && not retired.(v) then
        match kind with
        | 0 ->
            if not (Hashtbl.mem live (keyp u v)) then begin
              Hashtbl.replace live (keyp u v) ();
              insert d u v
            end
        | 1 ->
            if Hashtbl.mem live (keyp u v) then begin
              Hashtbl.remove live (keyp u v);
              ignore (Dynamic.apply d [ Dynamic.Delete_edge { u; v } ])
            end
        | _ ->
            (* occasionally retire a vertex (low probability) *)
            if Rng.int rng 10 = 0 then begin
              retired.(u) <- true;
              Hashtbl.reset live;
              (* recompute the live set from the handle *)
              let src = (Dynamic.snapshot d).Selection.source in
              ignore (Dynamic.apply d [ Dynamic.Delete_vertex u ]);
              Graph.iter_edges src (fun e ->
                  if e.Graph.u <> u && e.Graph.v <> u then
                    Hashtbl.replace live (keyp e.Graph.u e.Graph.v) ())
            end)
    ops;
  d

let prop_random_scripts mode name =
  QCheck.Test.make ~count:40 ~name arb_ops (fun case ->
      let d = run_random_script ~mode case in
      let sel = Dynamic.snapshot d in
      Verify.ok (Verify.exhaustive sel ~mode ~stretch:3.0 ~f:1))

let prop_random_scripts_vft =
  prop_random_scripts Fault.VFT "dynamic: random op scripts stay valid (VFT)"

let prop_random_scripts_eft =
  prop_random_scripts Fault.EFT "dynamic: random op scripts stay valid (EFT)"

(* The shed pass promises validity, not size (its closing re-check may
   re-admit more than it shed), so the size side is not asserted.  On
   this 8-vertex graph, inserted edge by edge in the listed order,
   deleting two spanner edges sheds three redundant ones; the result
   must still verify exhaustively. *)
let test_shed_after_deletions () =
  let d = dyn ~mode:Fault.VFT ~k:2 ~f:1 8 in
  List.iter
    (fun (u, v) -> insert d u v)
    [ (0, 1); (0, 3); (0, 4); (0, 5); (0, 6); (0, 7); (1, 3); (1, 4);
      (1, 5); (1, 7); (2, 3); (2, 4); (2, 5); (3, 4); (3, 5); (4, 5);
      (4, 6); (5, 6); (5, 7) ];
  let s =
    Dynamic.apply d
      [ Dynamic.Delete_edge { u = 0; v = 1 }; Dynamic.Delete_edge { u = 0; v = 3 } ]
  in
  checkb (Printf.sprintf "shed %d > 0" s.Dynamic.shed) true (s.Dynamic.shed > 0);
  checkb "valid after shedding" true
    (Verify.ok
       (Verify.exhaustive (Dynamic.snapshot d) ~mode:Fault.VFT ~stretch:3.0 ~f:1))

(* A literal script through the admit step and the anchored-edge
   listing: inserts given high endpoint first (the LBC search runs from
   [u]), a vertex retirement, and deletion batches whose repair sheds.
   Every per-apply counter and the final selection are pinned. *)
let test_pinned_script () =
  let g =
    Generators.with_uniform_weights (Rng.create ~seed:32)
      (Generators.connected_gnp (Rng.create ~seed:31) ~n:16 ~p:0.38)
      ~lo:1.0 ~hi:3.0
  in
  let d = Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ()) g in
  checki "seed size" 29 (Dynamic.size d);
  let del u v = Dynamic.Delete_edge { u; v } in
  let ins u v w = Dynamic.Insert { u; v; w } in
  let step ops (i, k, de, dv, tv, rc, ra, sh, ep) =
    let s = Dynamic.apply d ops in
    check
      (Alcotest.list Alcotest.int)
      (Printf.sprintf "epoch %d stats" ep)
      [ i; k; de; dv; tv; rc; ra; sh; ep ]
      Dynamic.
        [
          s.inserted; s.kept; s.deleted_edges; s.deleted_vertices;
          s.touched_vertices; s.rechecked; s.readded; s.shed; s.epoch;
        ]
  in
  step [ del 1 0; del 8 0 ] (0, 0, 2, 0, 32, 19, 3, 3, 1);
  Obs_trace.start ();
  step [ ins 15 14 0.7; ins 15 0 2.5; ins 13 5 1.0 ] (3, 1, 0, 0, 0, 0, 0, 0, 2);
  Obs_trace.stop ();
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "inserts search from their first endpoint"
    [ (15, 14); (15, 0); (13, 5) ]
    (List.filter_map
       (fun ev ->
         match ev.Obs_trace.payload with
         | Obs_trace.Lbc_begin { u; v; _ } -> Some (u, v)
         | _ -> None)
       (Obs_trace.events ()));
  step [ Dynamic.Delete_vertex 4 ] (0, 0, 5, 1, 31, 19, 4, 4, 3);
  step
    [ del 10 2; del 11 2; del 14 2; del 12 3; ins 12 5 1.2; ins 10 7 0.9 ]
    (2, 1, 4, 0, 30, 15, 2, 1, 4);
  step [ del 14 5; del 8 6; del 11 7; del 10 8 ] (0, 0, 4, 0, 30, 15, 3, 2, 5);
  check
    (Alcotest.list Alcotest.int)
    "final selection"
    [ 0; 1; 3; 4; 5; 6; 7; 8; 10; 11; 14; 15; 16; 17; 18; 19; 20; 24; 25; 26 ]
    (Selection.ids (Dynamic.snapshot d));
  checki "final size" 20 (Dynamic.size d)

(* ---------------------- query-plane determinism ---------------------- *)

let test_query_batch_deterministic_across_jobs () =
  let r = Rng.create ~seed:31 in
  let g = Generators.connected_gnp r ~n:60 ~p:0.12 in
  let mk pool =
    let d = Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ?pool ()) g in
    ignore (Dynamic.apply d [ Dynamic.Delete_vertex 3 ]);
    d
  in
  let pairs =
    Array.init 40 (fun i -> (i mod 60, (7 * i + 13) mod 60))
  in
  let faults = Fault.of_vertices [ 5; 17 ] in
  let answers pool = Dynamic.query_batch (mk pool) ~faults pairs in
  let seq = answers None in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains @@ fun pool ->
      let par = answers (Some pool) in
      checkb
        (Printf.sprintf "jobs=%d identical" domains)
        true (par = seq))
    [ 2; 4 ]

let test_query_batch_matches_reference_distances () =
  let r = Rng.create ~seed:32 in
  let g = Generators.connected_gnp r ~n:30 ~p:0.25 in
  let d = Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ()) g in
  let sel = Dynamic.snapshot d in
  let faults = Fault.of_vertices [ 2 ] in
  let bv, _ = Fault.masks sel.Selection.source faults in
  let blocked = Selection.blocked_edges sel [] in
  let pairs = [| (0, 1); (5, 20); (11, 29) |] in
  let res = Dynamic.query_batch d ~faults pairs in
  Array.iteri
    (fun i (u, v) ->
      let dist =
        Bfs.distances ?blocked_vertices:bv ~blocked_edges:blocked
          sel.Selection.source u
      in
      let expect = if dist.(v) < 0 then infinity else float_of_int dist.(v) in
      checkb
        (Printf.sprintf "query %d matches spanner BFS" i)
        true
        (res.(i).Dynamic.distance = expect))
    pairs

(* the spanner distance respects the FT stretch bound under f faults *)
let test_query_respects_stretch_bound () =
  let r = Rng.create ~seed:33 in
  let g = Generators.connected_gnp r ~n:40 ~p:0.2 in
  let d = Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ()) g in
  let sel = Dynamic.snapshot d in
  let faults = Fault.of_vertices [ 7 ] in
  let bv, _ = Fault.masks sel.Selection.source faults in
  let ok = ref true in
  for u = 0 to 19 do
    let d_g = Bfs.distances ?blocked_vertices:bv sel.Selection.source u in
    let res =
      Dynamic.query_batch d ~faults (Array.init 40 (fun v -> (u, v)))
    in
    Array.iteri
      (fun v r ->
        if v <> u && u <> 7 && v <> 7 && d_g.(v) >= 0 then
          if r.Dynamic.distance > (3.0 *. float_of_int d_g.(v)) +. 1e-9 then
            ok := false)
      res
  done;
  checkb "all faulted distances within 3x" true !ok

(* ---------------------- insertion-stream replay ---------------------- *)

(* The coverage the removed Incremental alias test carried: feeding the
   same edge stream one insert at a time is deterministic and agrees
   with a single batched apply. *)
let test_insert_stream_equivalence () =
  let r = Rng.create ~seed:34 in
  let g = Generators.connected_gnp r ~n:25 ~p:0.3 in
  let one = dyn ~mode:Fault.VFT ~k:2 ~f:1 25 in
  let batched = dyn ~mode:Fault.VFT ~k:2 ~f:1 25 in
  let ops = ref [] in
  Graph.iter_edges g (fun e ->
      let op = Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = e.Graph.w } in
      ops := op :: !ops;
      ignore (Dynamic.apply one [ op ]));
  ignore (Dynamic.apply batched (List.rev !ops));
  checki "sizes agree" (Dynamic.size batched) (Dynamic.size one);
  check (Alcotest.list Alcotest.int) "selections agree"
    (Selection.ids (Dynamic.snapshot batched))
    (Selection.ids (Dynamic.snapshot one))

let () =
  Alcotest.run "dynamic"
    [
      ( "handle",
        [
          Alcotest.test_case "create seeds like build" `Quick test_create_seeds_like_build;
          Alcotest.test_case "delete and query" `Quick test_delete_and_query;
          Alcotest.test_case "delete vertex" `Quick test_delete_vertex_retires;
          Alcotest.test_case "epoch and snapshot" `Quick test_epoch_and_snapshot_cache;
          Alcotest.test_case "error surface" `Quick test_error_surface;
          Alcotest.test_case "rejects non-finite weight" `Quick
            test_rejects_non_finite_weight;
          Alcotest.test_case "insert stream equivalence" `Quick test_insert_stream_equivalence;
        ] );
      ( "repair",
        [
          Alcotest.test_case "locality on grid" `Quick test_repair_is_local_on_grid;
          Alcotest.test_case "shed after deletions" `Quick test_shed_after_deletions;
          Alcotest.test_case "pinned script" `Quick test_pinned_script;
          (* The case names predate the single storage layout and are kept
             so their history reads on: "int" runs the graph built in
             memory, "int32" its copy mapped from a binary file. *)
          Alcotest.test_case "differential VFT int" `Quick test_differential_vft_built;
          Alcotest.test_case "differential VFT int32" `Quick test_differential_vft_mapped;
          Alcotest.test_case "differential EFT int" `Quick test_differential_eft_built;
          Alcotest.test_case "differential EFT int32" `Quick test_differential_eft_mapped;
        ] );
      ( "random scripts",
        [
          QCheck_alcotest.to_alcotest prop_random_scripts_vft;
          QCheck_alcotest.to_alcotest prop_random_scripts_eft;
        ] );
      ( "queries",
        [
          Alcotest.test_case "jobs determinism" `Quick test_query_batch_deterministic_across_jobs;
          Alcotest.test_case "reference distances" `Quick test_query_batch_matches_reference_distances;
          Alcotest.test_case "stretch bound" `Quick test_query_respects_stretch_bound;
        ] );
    ]
