(* Tests for the application-layer modules: the dynamic maintainer's
   insertion-only face, the Thorup-Zwick distance oracle, the
   asynchronous simulator and the synchronizer. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

let rng () = Rng.create ~seed:808

let stretch k = float_of_int ((2 * k) - 1)

(* ----------------- Dynamic (insertion-only face) --------------------- *)

let dyn ~mode ~k ~f ~n =
  Dynamic.create ~opts:(Dynamic.opts ~mode ~k ~f ()) (Graph.create n)

let test_incremental_matches_offline_input_order () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.25 in
  let d = dyn ~mode:Fault.VFT ~k:2 ~f:2 ~n:40 in
  Graph.iter_edges g (fun e ->
      ignore (Dynamic.apply d [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = e.Graph.w } ]));
  let offline = Poly_greedy.build ~order:Poly_greedy.Input_order ~mode:Fault.VFT ~k:2 ~f:2 g in
  let snap = Dynamic.snapshot d in
  checki "same size" offline.Selection.size (Dynamic.size d);
  (* insertion-only: the maintainer's edge ids are arrival-ordered, hence
     identical to the source graph's. *)
  check (Alcotest.list Alcotest.int) "same selection" (Selection.ids offline)
    (Selection.ids snap)

let test_incremental_snapshot_is_valid_spanner () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:13 ~p:0.4 in
  let d = dyn ~mode:Fault.VFT ~k:2 ~f:1 ~n:13 in
  Graph.iter_edges g (fun e ->
      ignore (Dynamic.apply d [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = 1.0 } ]));
  let report =
    Verify.exhaustive (Dynamic.snapshot d) ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:1
  in
  checkb "valid" true (Verify.ok report)

let test_incremental_prefix_validity () =
  (* Every prefix of the stream yields a valid spanner of the prefix. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:12 ~p:0.4 in
  let d = dyn ~mode:Fault.VFT ~k:2 ~f:1 ~n:12 in
  let count = ref 0 in
  Graph.iter_edges g (fun e ->
      ignore (Dynamic.apply d [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = 1.0 } ]);
      incr count;
      if !count mod 10 = 0 then begin
        let report =
          Verify.exhaustive (Dynamic.snapshot d) ~mode:Fault.VFT
            ~stretch:(stretch 2) ~f:1
        in
        checkb (Printf.sprintf "prefix %d valid" !count) true (Verify.ok report)
      end)

let test_incremental_monotone_flag () =
  let d = dyn ~mode:Fault.VFT ~k:2 ~f:1 ~n:4 in
  ignore (Dynamic.apply d [ Dynamic.Insert { u = 0; v = 1; w = 1.0 } ]);
  ignore (Dynamic.apply d [ Dynamic.Insert { u = 1; v = 2; w = 2.0 } ]);
  checkb "still monotone" true (Dynamic.weight_monotone d);
  ignore (Dynamic.apply d [ Dynamic.Insert { u = 2; v = 3; w = 1.5 } ]);
  checkb "violation detected" false (Dynamic.weight_monotone d)

let test_incremental_counts () =
  let d = dyn ~mode:Fault.EFT ~k:2 ~f:1 ~n:3 in
  let s1 = Dynamic.apply d [ Dynamic.Insert { u = 0; v = 1; w = 1.0 } ] in
  checki "first kept" 1 s1.Dynamic.kept;
  let s2 = Dynamic.apply d [ Dynamic.Insert { u = 1; v = 2; w = 1.0 } ] in
  checki "second kept" 1 s2.Dynamic.kept;
  checki "seen" 2 (Dynamic.live_edges d);
  checki "kept" 2 (Dynamic.size d)

let test_incremental_replay_determinism () =
  (* The guarantee the removed Incremental alias leaned on: an insertion
     stream replayed through a fresh handle reproduces the selection
     bit for bit. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:20 ~p:0.3 in
  let feed () =
    let d = dyn ~mode:Fault.VFT ~k:2 ~f:1 ~n:20 in
    Graph.iter_edges g (fun e ->
        ignore
          (Dynamic.apply d
             [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = e.Graph.w } ]));
    d
  in
  let a = feed () and b = feed () in
  checki "replay size" (Dynamic.size a) (Dynamic.size b);
  checki "replay seen" (Dynamic.live_edges a) (Dynamic.live_edges b);
  check (Alcotest.list Alcotest.int) "replay selection"
    (Selection.ids (Dynamic.snapshot a))
    (Selection.ids (Dynamic.snapshot b))

(* ------------------------ Distance oracle ---------------------------- *)

let oracle_instance ~seed ~n ~p ~k ~weighted =
  let r = Rng.create ~seed in
  let g0 = Generators.connected_gnp r ~n ~p in
  let g = if weighted then Generators.with_uniform_weights r g0 ~lo:0.5 ~hi:7. else g0 in
  (g, Oracle.build r ~k g)

let check_oracle_stretch g oracle ~k =
  let bound = stretch k in
  for u = 0 to Graph.n g - 1 do
    let exact = Dijkstra.distances g u in
    for v = 0 to Graph.n g - 1 do
      let est = Oracle.query oracle u v in
      if exact.(v) = infinity then
        checkb "disconnected pairs answer infinity" true (est = infinity)
      else begin
        checkb
          (Printf.sprintf "estimate >= exact (%d,%d): %.3f >= %.3f" u v est exact.(v))
          true
          (est >= exact.(v) -. 1e-9);
        checkb
          (Printf.sprintf "stretch bound (%d,%d): %.3f <= %.0f * %.3f" u v est
             bound exact.(v))
          true
          (est <= (bound *. exact.(v)) +. 1e-9)
      end
    done
  done

let test_oracle_unweighted_k2 () =
  let g, oracle = oracle_instance ~seed:1 ~n:40 ~p:0.15 ~k:2 ~weighted:false in
  check_oracle_stretch g oracle ~k:2

let test_oracle_weighted_k2 () =
  let g, oracle = oracle_instance ~seed:2 ~n:35 ~p:0.2 ~k:2 ~weighted:true in
  check_oracle_stretch g oracle ~k:2

let test_oracle_weighted_k3 () =
  let g, oracle = oracle_instance ~seed:3 ~n:35 ~p:0.2 ~k:3 ~weighted:true in
  check_oracle_stretch g oracle ~k:3

let test_oracle_k1_exact () =
  (* k = 1: bunches hold everything, answers are exact. *)
  let g, oracle = oracle_instance ~seed:4 ~n:20 ~p:0.3 ~k:1 ~weighted:true in
  for u = 0 to 19 do
    let exact = Dijkstra.distances g u in
    for v = 0 to 19 do
      if exact.(v) < infinity then
        checkf (Printf.sprintf "exact (%d,%d)" u v) exact.(v) (Oracle.query oracle u v)
    done
  done

let test_oracle_self_distance () =
  let _, oracle = oracle_instance ~seed:5 ~n:15 ~p:0.3 ~k:2 ~weighted:false in
  for v = 0 to 14 do
    checkf "d(v,v)=0" 0. (Oracle.query oracle v v)
  done

let test_oracle_disconnected () =
  let r = rng () in
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let oracle = Oracle.build r ~k:2 g in
  checkb "cross-component = infinity" true (Oracle.query oracle 0 5 = infinity);
  checkb "within component finite" true (Oracle.query oracle 0 2 < infinity)

let test_oracle_storage_reasonable () =
  let r = rng () in
  let g = Generators.complete 50 in
  let oracle = Oracle.build r ~k:2 g in
  (* k n^{1+1/k} = 2 * 50^1.5 ~ 707; storage must beat the n^2 = 2500 table *)
  checkb
    (Printf.sprintf "storage %d below quadratic" (Oracle.storage oracle))
    true
    (Oracle.storage oracle < 2500)

(* ------------------------- Async_net -------------------------------- *)

let test_async_delivery_order_and_time () =
  let r = rng () in
  let g = Generators.path 3 in
  let net = Async_net.create r ~min_delay:0.5 ~max_delay:0.5 g in
  let log = ref [] in
  Async_net.send net ~src:0 ~dst:1 (fun () -> log := (`A, Async_net.now net) :: !log);
  Async_net.at net ~time:0.2 (fun () ->
      Async_net.send net ~src:1 ~dst:2 (fun () -> log := (`B, Async_net.now net) :: !log));
  let events = Async_net.run net in
  checki "three events" 3 events;
  (match List.rev !log with
  | [ (`A, ta); (`B, tb) ] ->
      checkf "A at 0.5" 0.5 ta;
      checkf "B at 0.7" 0.7 tb
  | _ -> Alcotest.fail "unexpected log");
  checki "two messages" 2 (Async_net.messages net)

let test_async_requires_adjacency () =
  let r = rng () in
  let net = Async_net.create r (Generators.path 3) in
  try
    Async_net.send net ~src:0 ~dst:2 (fun () -> ());
    Alcotest.fail "non-adjacent send should fail"
  with Invalid_argument _ -> ()

let test_async_until_pauses () =
  let r = rng () in
  let net = Async_net.create r ~min_delay:1.0 ~max_delay:1.0 (Generators.path 2) in
  let hits = ref 0 in
  Async_net.send net ~src:0 ~dst:1 (fun () -> incr hits);
  ignore (Async_net.run ~until:0.5 net);
  checki "not yet delivered" 0 !hits;
  ignore (Async_net.run net);
  checki "delivered on resume" 1 !hits

let test_async_rejects_past_timer () =
  let r = rng () in
  let net = Async_net.create r ~min_delay:1.0 ~max_delay:1.0 (Generators.path 2) in
  Async_net.send net ~src:0 ~dst:1 (fun () -> ());
  ignore (Async_net.run net);
  try
    Async_net.at net ~time:0.1 (fun () -> ());
    Alcotest.fail "past timer should fail"
  with Invalid_argument _ -> ()

(* ------------------------ Synchronizer ------------------------------- *)

let test_sync_full_graph_completes () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.2 in
  let rep = Synchronizer.run r ~pulses:5 ~skeleton:(Selection.full g) g in
  checki "all pulses done" 5 rep.Synchronizer.pulses;
  checkb "connected" true rep.Synchronizer.survivors_connected;
  (* alpha over full graph: one safe per edge direction per pulse round
     (pulses 0..5 send) *)
  checki "messages = 2m(P+1)" (2 * Graph.m g * 6) rep.Synchronizer.messages

let test_sync_skeleton_fewer_messages () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.3 in
  let spanner = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:0 g in
  let full = Synchronizer.run (Rng.create ~seed:1) ~pulses:5 ~skeleton:(Selection.full g) g in
  let sparse = Synchronizer.run (Rng.create ~seed:1) ~pulses:5 ~skeleton:spanner g in
  checkb "skeleton cuts traffic" true
    (sparse.Synchronizer.messages < full.Synchronizer.messages);
  checki "still completes" 5 sparse.Synchronizer.pulses

let test_sync_skew_zero_on_full_like () =
  (* With the full skeleton, neighbors are directly synchronized: skew is
     bounded by one max delay per pulse difference; just sanity-check it is
     finite and small. *)
  let r = rng () in
  let g = Generators.cycle 12 in
  let rep = Synchronizer.run r ~pulses:6 ~skeleton:(Selection.full g) g in
  checkb "skew below 2 pulses worth" true (rep.Synchronizer.max_skew < 2.0)

let test_sync_tree_dies_spanner_survives () =
  let g = Generators.connected_gnp (Rng.create ~seed:6) ~n:40 ~p:0.25 in
  (* a BFS tree as skeleton *)
  let tree_ids = ref [] in
  let dist = Bfs.distances g 0 in
  for v = 1 to 39 do
    let best = ref (-1) in
    Graph.iter_neighbors g v (fun y id -> if dist.(y) = dist.(v) - 1 && !best < 0 then best := id);
    if !best >= 0 then tree_ids := !best :: !tree_ids
  done;
  let tree = Selection.of_ids g !tree_ids in
  let ft = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  (* kill an internal tree vertex *)
  let victim = ref (-1) in
  let deg = Array.make 40 0 in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    !tree_ids;
  for v = 39 downto 1 do
    if deg.(v) >= 2 then victim := v
  done;
  checkb "internal tree vertex exists" true (!victim >= 0);
  let failures = (1.5, [ !victim ]) in
  let tree_rep = Synchronizer.run (Rng.create ~seed:2) ~failures ~pulses:8 ~skeleton:tree g in
  let ft_rep = Synchronizer.run (Rng.create ~seed:2) ~failures ~pulses:8 ~skeleton:ft g in
  checkb "tree skeleton partitions" false tree_rep.Synchronizer.survivors_connected;
  checkb "FT spanner skeleton survives" true ft_rep.Synchronizer.survivors_connected;
  checki "FT skeleton finishes all pulses" 8 ft_rep.Synchronizer.pulses

let test_sync_rejects_foreign_skeleton () =
  let r = rng () in
  let g = Generators.cycle 5 and h = Generators.cycle 5 in
  let skel = Selection.full h in
  try
    ignore (Synchronizer.run r ~pulses:2 ~skeleton:skel g);
    Alcotest.fail "foreign skeleton should fail"
  with Invalid_argument _ -> ()

let test_sync_rejects_bad_failure_time () =
  let g = Generators.cycle 5 in
  let skeleton = Selection.full g in
  List.iter
    (fun time ->
      match Synchronizer.run (rng ()) ~failures:(time, [ 0 ]) ~pulses:2 ~skeleton g with
      | _ -> Alcotest.failf "failure time %g accepted" time
      | exception Invalid_argument m ->
          check Alcotest.string (Printf.sprintf "time %g" time)
            "Synchronizer.run: failure time must be finite and >= 0" m)
    [ nan; -1.; infinity; neg_infinity ];
  (* time 0 crashes the victims before anyone moves; the rest finish *)
  let rep = Synchronizer.run (rng ()) ~failures:(0., [ 0 ]) ~pulses:2 ~skeleton g in
  checki "survivors finish" 2 rep.Synchronizer.pulses;
  checkb "survivors connected" true rep.Synchronizer.survivors_connected

let () =
  Alcotest.run "applications"
    [
      ( "incremental",
        [
          Alcotest.test_case "matches offline" `Quick test_incremental_matches_offline_input_order;
          Alcotest.test_case "valid snapshot" `Quick test_incremental_snapshot_is_valid_spanner;
          Alcotest.test_case "prefix validity" `Quick test_incremental_prefix_validity;
          Alcotest.test_case "monotone flag" `Quick test_incremental_monotone_flag;
          Alcotest.test_case "counts" `Quick test_incremental_counts;
          Alcotest.test_case "replay determinism" `Quick test_incremental_replay_determinism;
        ] );
      ( "distance oracle",
        [
          Alcotest.test_case "unweighted k=2" `Quick test_oracle_unweighted_k2;
          Alcotest.test_case "weighted k=2" `Quick test_oracle_weighted_k2;
          Alcotest.test_case "weighted k=3" `Quick test_oracle_weighted_k3;
          Alcotest.test_case "k=1 exact" `Quick test_oracle_k1_exact;
          Alcotest.test_case "self distance" `Quick test_oracle_self_distance;
          Alcotest.test_case "disconnected" `Quick test_oracle_disconnected;
          Alcotest.test_case "storage" `Quick test_oracle_storage_reasonable;
        ] );
      ( "async net",
        [
          Alcotest.test_case "delivery" `Quick test_async_delivery_order_and_time;
          Alcotest.test_case "adjacency" `Quick test_async_requires_adjacency;
          Alcotest.test_case "until pauses" `Quick test_async_until_pauses;
          Alcotest.test_case "past timer" `Quick test_async_rejects_past_timer;
        ] );
      ( "synchronizer",
        [
          Alcotest.test_case "full graph completes" `Quick test_sync_full_graph_completes;
          Alcotest.test_case "skeleton cuts traffic" `Quick test_sync_skeleton_fewer_messages;
          Alcotest.test_case "skew sanity" `Quick test_sync_skew_zero_on_full_like;
          Alcotest.test_case "tree dies, spanner survives" `Quick test_sync_tree_dies_spanner_survives;
          Alcotest.test_case "foreign skeleton" `Quick test_sync_rejects_foreign_skeleton;
          Alcotest.test_case "failure time checked" `Quick test_sync_rejects_bad_failure_time;
        ] );
    ]
