(* Tests for the distributed substrate (Net) and the Section 5 algorithms:
   padded decompositions (Theorem 11), the LOCAL spanner (Theorem 12),
   CONGEST Baswana-Sen (Theorem 14) and the CONGEST fault-tolerant spanner
   (Theorem 15). *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let rng () = Rng.create ~seed:7777

let stretch k = float_of_int ((2 * k) - 1)

(* ------------------------------ Net ---------------------------------- *)

let test_net_delivery_next_round_only () =
  let g = Generators.path 3 in
  let net = Net.create ~model:Net.Local ~bits:(fun _ -> 8) g in
  Net.send net ~src:0 ~dst:1 "hello";
  checki "not delivered yet" 0 (List.length (Net.inbox net 1));
  Net.next_round net;
  (match Net.inbox net 1 with
  | [ (0, "hello") ] -> ()
  | _ -> Alcotest.fail "expected exactly the staged message");
  Net.next_round net;
  checki "cleared after round" 0 (List.length (Net.inbox net 1))

let test_net_requires_adjacency () =
  let g = Generators.path 3 in
  let net = Net.create ~model:Net.Local ~bits:(fun _ -> 8) g in
  try
    Net.send net ~src:0 ~dst:2 "nope";
    Alcotest.fail "non-adjacent send should fail"
  with Invalid_argument _ -> ()

let test_net_broadcast () =
  let g = Generators.complete 4 in
  let net = Net.create ~model:Net.Local ~bits:(fun _ -> 8) g in
  Net.broadcast net ~src:0 "x";
  Net.next_round net;
  for v = 1 to 3 do
    checki (Printf.sprintf "inbox %d" v) 1 (List.length (Net.inbox net v))
  done

let test_net_stats_accounting () =
  let g = Generators.path 2 in
  let net = Net.create ~model:Net.Local ~bits:String.length g in
  Net.send net ~src:0 ~dst:1 "four";
  Net.send net ~src:1 ~dst:0 "sevenchr";
  Net.next_round net;
  let s = Net.stats net in
  checki "rounds" 1 s.Net.rounds;
  checki "messages" 2 s.Net.messages;
  checki "total bits" 12 s.Net.total_bits;
  checki "max message" 8 s.Net.max_message_bits

let test_net_congest_violations () =
  let g = Generators.path 2 in
  let net = Net.create ~model:(Net.Congest 16) ~bits:(fun b -> b) g in
  Net.send net ~src:0 ~dst:1 10;
  Net.send net ~src:0 ~dst:1 99;
  Net.next_round net;
  let s = Net.stats net in
  checki "one oversized send" 1 s.Net.congest_violations;
  checki "edge load sums" 109 s.Net.max_edge_round_bits

let test_net_charge_rounds () =
  let g = Generators.path 2 in
  let net = Net.create ~model:Net.Local ~bits:(fun _ -> 1) g in
  Net.charge_rounds net 5;
  checki "rounds charged" 5 (Net.stats net).Net.rounds

let test_net_history () =
  let g = Generators.path 3 in
  let net = Net.create ~record_history:true ~model:(Net.Congest 64) ~bits:(fun _ -> 10) g in
  Net.send net ~src:0 ~dst:1 ();
  Net.send net ~src:1 ~dst:0 ();
  Net.next_round net;
  Net.send net ~src:1 ~dst:2 ();
  Net.next_round net;
  let h = Net.history net in
  checki "two rounds recorded" 2 (Array.length h);
  checki "round 0 loads" 2 (List.length h.(0));
  checki "round 1 loads" 1 (List.length h.(1))

(* -------------------------- Decomposition ---------------------------- *)

let test_decomposition_is_partition () =
  let r = rng () in
  let g = Generators.grid ~rows:8 ~cols:8 in
  let d = Decomposition.run r g in
  Array.iter
    (fun c ->
      Array.iteri
        (fun v ctr ->
          checkb "center in range" true (ctr >= 0 && ctr < Graph.n g);
          (* center of a center is itself *)
          if v = ctr then
            checki "center self" ctr c.Shard_partition.center_of.(ctr))
        c.Shard_partition.center_of)
    d.Shard_partition.partitions

let test_decomposition_trees_consistent () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.1 in
  let d = Decomposition.run r g in
  Array.iter
    (fun c ->
      Array.iteri
        (fun v parent ->
          if parent >= 0 then begin
            checkb "parent adjacent" true (Graph.mem_edge g v parent);
            checki "same cluster as parent"
              c.Shard_partition.center_of.(parent)
              c.Shard_partition.center_of.(v);
            checki "depth = parent + 1"
              (c.Shard_partition.depth_of.(parent) + 1)
              c.Shard_partition.depth_of.(v)
          end
          else checki "root is its own center" v c.Shard_partition.center_of.(v))
        c.Shard_partition.parent_of)
    d.Shard_partition.partitions

let test_decomposition_coverage_whp () =
  (* Theorem 11.4: with the default ~2 log n partitions, every edge should
     be padded in some partition.  Allow a tiny slack for unlucky seeds. *)
  let r = rng () in
  let g = Generators.connected_gnp r ~n:80 ~p:0.08 in
  let d = Decomposition.run r g in
  checkb
    (Printf.sprintf "coverage %.3f >= 0.99" (Shard_partition.coverage d))
    true
    (Shard_partition.coverage d >= 0.99)

let test_decomposition_cluster_diameter_logarithmic () =
  let r = rng () in
  let g = Generators.grid ~rows:12 ~cols:12 in
  let d = Decomposition.run r ~beta:0.25 g in
  (* max shift of Exp(0.25) over ~144*partitions draws is ~(ln N)/0.25 ~ 35;
     tree depth is bounded by the max shift.  Grid diameter is 22, so this
     only bites via the shifts; just check sanity. *)
  checkb
    (Printf.sprintf "max depth %d reasonable" d.Shard_partition.max_depth)
    true
    (d.Shard_partition.max_depth <= 60);
  checkb "rounds = horizon >= depth" true
    (d.Shard_partition.horizon >= d.Shard_partition.max_depth)

let test_decomposition_members_consistent () =
  let r = rng () in
  let g = Generators.cycle 30 in
  let d = Decomposition.run r g in
  let c = d.Shard_partition.partitions.(0) in
  let members = Shard_partition.members c in
  let total = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 members in
  checki "members cover all vertices" 30 total;
  List.iter
    (fun (ctr, l) ->
      List.iter
        (fun v -> checki "member's center" ctr c.Shard_partition.center_of.(v))
        l)
    members

let test_decomposition_beta_tradeoff () =
  (* Smaller beta -> fewer cut edges per partition (bigger clusters). *)
  let g = Generators.grid ~rows:10 ~cols:10 in
  let cut_fraction beta =
    let r = Rng.create ~seed:31415 in
    let d = Decomposition.run r ~beta ~partitions:1 g in
    let c = d.Shard_partition.partitions.(0) in
    let cut = ref 0 in
    Graph.iter_edges g (fun e ->
        let center = c.Shard_partition.center_of in
        if center.(e.Graph.u) <> center.(e.Graph.v) then incr cut);
    float_of_int !cut /. float_of_int (Graph.m g)
  in
  let many = ref 0 in
  (* average over a few seeds to keep the check stable *)
  for _ = 1 to 3 do
    if cut_fraction 0.08 < cut_fraction 0.7 then incr many
  done;
  checkb "beta=0.08 cuts fewer edges than beta=0.7" true (!many >= 2)

let test_decomposition_assigns_exactly_once () =
  (* Every vertex lands in exactly one cluster of every partition — over
     several seeds, not just one lucky draw. *)
  let g = Generators.connected_gnp (rng ()) ~n:45 ~p:0.12 in
  List.iter
    (fun seed ->
      let d = Decomposition.run (Rng.create ~seed) g in
      Array.iteri
        (fun p c ->
          let seen = Array.make (Graph.n g) 0 in
          List.iter
            (fun (_, members) ->
              List.iter (fun v -> seen.(v) <- seen.(v) + 1) members)
            (Shard_partition.members c);
          Array.iteri
            (fun v count ->
              checki
                (Printf.sprintf "seed %d partition %d vertex %d" seed p v)
                1 count)
            seen)
        d.Shard_partition.partitions)
    [ 1; 2; 3; 4; 5 ]

let test_decomposition_edge_cases () =
  (* Singleton graph: one cluster, itself, depth 0, full coverage. *)
  let one = Graph.create 1 in
  let d1 = Decomposition.run (rng ()) one in
  Array.iter
    (fun c ->
      checki "singleton is its own center" 0 c.Shard_partition.center_of.(0);
      checki "singleton parent" (-1) c.Shard_partition.parent_of.(0);
      checki "singleton depth" 0 c.Shard_partition.depth_of.(0))
    d1.Shard_partition.partitions;
  checkb "edgeless coverage is 1.0" true (Shard_partition.coverage d1 = 1.0);
  (* Edgeless graph: every cluster is a singleton in every partition. *)
  let iso = Graph.create 4 in
  let d4 = Decomposition.run (rng ()) iso in
  Array.iter
    (fun c ->
      let members = Shard_partition.members c in
      checki "four singleton clusters" 4 (List.length members);
      List.iter
        (fun (ctr, ms) -> checki (Printf.sprintf "cluster %d" ctr) 1 (List.length ms))
        members)
    d4.Shard_partition.partitions;
  (* Parameter validation. *)
  List.iter
    (fun beta ->
      try
        ignore (Decomposition.run (rng ()) ~beta iso);
        Alcotest.fail "beta outside (0,1) should fail"
      with Invalid_argument _ -> ())
    [ 0.0; 1.0 ];
  try
    ignore (Decomposition.run (rng ()) ~partitions:0 iso);
    Alcotest.fail "partitions=0 should fail"
  with Invalid_argument _ -> ()

let test_decomposition_padding_probability () =
  (* Theorem 11.4 quantitatively: a single partition pads a constant
     fraction of edges, and the default ell = ~2 log2 n stack pushes the
     uncovered fraction to ~0 on every seed. *)
  let g = Generators.connected_gnp (rng ()) ~n:70 ~p:0.08 in
  let single = ref 0.0 and stacked = ref 0.0 in
  let seeds = [ 11; 22; 33; 44; 55 ] in
  List.iter
    (fun seed ->
      let d1 = Decomposition.run (Rng.create ~seed) ~partitions:1 g in
      single := !single +. Shard_partition.coverage d1;
      let dl = Decomposition.run (Rng.create ~seed) g in
      stacked := !stacked +. Shard_partition.coverage dl)
    seeds;
  let nseeds = float_of_int (List.length seeds) in
  checkb
    (Printf.sprintf "single partition pads a constant fraction (%.3f >= 0.3)"
       (!single /. nseeds))
    true
    (!single /. nseeds >= 0.3);
  checkb
    (Printf.sprintf "default stack pads almost everything (%.3f >= 0.99)"
       (!stacked /. nseeds))
    true
    (!stacked /. nseeds >= 0.99)

(* -------------------------- LOCAL spanner ---------------------------- *)

let test_local_spanner_valid_sampled () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:50 ~p:0.12 in
  let res = Local_spanner.build r ~mode:Fault.VFT ~k:2 ~f:2 g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) res.Local_spanner.selection ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:2
  in
  (match report.Verify.violation with
  | None -> ()
  | Some v -> Alcotest.failf "local: %s" (Format.asprintf "%a" Verify.pp_violation v));
  let report2 =
    Verify.random ~cfg:(Verify.config ~rng:r ~trials:40 ()) res.Local_spanner.selection ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:2
  in
  checkb "random faults ok" true (Verify.ok report2)

let test_local_spanner_exponential_engine () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:25 ~p:0.2 in
  let res =
    Local_spanner.build r ~engine:Local_spanner.Exponential ~mode:Fault.VFT ~k:2
      ~f:1 g
  in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) res.Local_spanner.selection ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:1
  in
  checkb "exact engine valid" true (Verify.ok report)

let test_local_spanner_eft () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.15 in
  let res = Local_spanner.build r ~mode:Fault.EFT ~k:2 ~f:1 g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) res.Local_spanner.selection ~mode:Fault.EFT
      ~stretch:(stretch 2) ~f:1
  in
  checkb "EFT valid" true (Verify.ok report)

let test_local_spanner_round_structure () =
  let r = rng () in
  let g = Generators.grid ~rows:7 ~cols:7 in
  let res = Local_spanner.build r ~mode:Fault.VFT ~k:2 ~f:1 g in
  checki "total = decomp + announce + gather + scatter"
    (res.Local_spanner.decomposition.Shard_partition.horizon
    + res.Local_spanner.announce_rounds + res.Local_spanner.gather_rounds
    + res.Local_spanner.scatter_rounds)
    res.Local_spanner.total_rounds;
  checkb "rounds positive" true (res.Local_spanner.total_rounds > 0)

let test_local_spanner_size_vs_bound () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:90 ~p:0.25 in
  let res = Local_spanner.build r ~mode:Fault.VFT ~k:2 ~f:1 g in
  let bound = Bounds.local_size ~k:2 ~f:1 ~n:90 in
  checkb
    (Printf.sprintf "size %d <= 3x bound %.0f" res.Local_spanner.selection.Selection.size bound)
    true
    (float_of_int res.Local_spanner.selection.Selection.size <= 3. *. bound)

(* ------------------------- CONGEST Baswana-Sen ----------------------- *)

let test_congest_bs_valid () =
  let r = rng () in
  for seed = 1 to 4 do
    let g = Generators.connected_gnp (Rng.create ~seed) ~n:45 ~p:0.2 in
    let res = Congest_bs.build r ~k:2 g in
    let report =
      Verify.exhaustive res.Congest_bs.selection ~mode:Fault.VFT
        ~stretch:(stretch 2) ~f:0
    in
    match report.Verify.violation with
    | None -> ()
    | Some v -> Alcotest.failf "congest bs: %s" (Format.asprintf "%a" Verify.pp_violation v)
  done

let test_congest_bs_weighted_valid () =
  let r = rng () in
  let base = Generators.connected_gnp r ~n:40 ~p:0.25 in
  let g = Generators.with_uniform_weights r base ~lo:0.2 ~hi:7.0 in
  let res = Congest_bs.build r ~k:3 g in
  let report =
    Verify.exhaustive res.Congest_bs.selection ~mode:Fault.VFT
      ~stretch:(stretch 3) ~f:0
  in
  checkb "weighted k=3 valid" true (Verify.ok report)

let test_congest_bs_rounds_scale_k2 () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.15 in
  let r2 = (Congest_bs.build r ~k:2 g).Congest_bs.rounds in
  let r4 = (Congest_bs.build r ~k:4 g).Congest_bs.rounds in
  (* sum_{i<k}(i+2)+2: k=2 -> 5, k=4 -> 14, both graph-independent *)
  checki "k=2 rounds" 5 r2;
  checki "k=4 rounds" 14 r4

let test_congest_bs_no_violations () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:60 ~p:0.15 in
  let res = Congest_bs.build r ~k:3 g in
  checki "no CONGEST violations" 0 res.Congest_bs.stats.Net.congest_violations

let test_congest_bs_history_recorded () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.2 in
  let res = Congest_bs.build r ~record_history:true ~k:2 g in
  checki "history rounds = rounds" res.Congest_bs.rounds
    (Array.length res.Congest_bs.history);
  let without = Congest_bs.build r ~k:2 g in
  checki "no history by default" 0 (Array.length without.Congest_bs.history)

let test_congest_bs_matches_size_shape () =
  let r = rng () in
  let g = Generators.complete 50 in
  let res = Congest_bs.build r ~k:2 g in
  checkb "sparsifies K50" true
    (res.Congest_bs.selection.Selection.size < Graph.m g / 2)

(* ------------------------- CONGEST FT spanner ------------------------ *)

let test_congest_ft_valid_sampled () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:36 ~p:0.2 in
  let res = Congest_ft.build r ~mode:Fault.VFT ~k:2 ~f:1 g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) res.Congest_ft.selection ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:1
  in
  (match report.Verify.violation with
  | None -> ()
  | Some v -> Alcotest.failf "congest ft: %s" (Format.asprintf "%a" Verify.pp_violation v));
  checkb "iterations positive" true (res.Congest_ft.iterations >= 1)

let test_congest_ft_eft () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.25 in
  let res = Congest_ft.build r ~mode:Fault.EFT ~k:2 ~f:1 g in
  let report =
    Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:40 ()) res.Congest_ft.selection ~mode:Fault.EFT
      ~stretch:(stretch 2) ~f:1
  in
  checkb "EFT valid" true (Verify.ok report)

let test_congest_ft_round_accounting () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:30 ~p:0.25 in
  let res = Congest_ft.build r ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:2 g in
  checki "total = phase1 + phase2"
    (res.Congest_ft.phase1_rounds + res.Congest_ft.phase2_rounds)
    res.Congest_ft.total_rounds;
  checkb "scheduling only adds rounds" true
    (res.Congest_ft.phase2_rounds >= res.Congest_ft.phase2_base_rounds);
  checkb "overlap observed" true (res.Congest_ft.max_overlap >= 1)

let test_congest_ft_f0_degenerates () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:25 ~p:0.3 in
  let res = Congest_ft.build r ~mode:Fault.VFT ~k:2 ~f:0 g in
  checki "one iteration" 1 res.Congest_ft.iterations;
  let report =
    Verify.exhaustive res.Congest_ft.selection ~mode:Fault.VFT
      ~stretch:(stretch 2) ~f:0
  in
  checkb "plain spanner" true (Verify.ok report)

let test_congest_ft_overlap_grows_with_f () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:40 ~p:0.2 in
  let o1 = (Congest_ft.build r ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:1 g).Congest_ft.max_overlap in
  let o3 = (Congest_ft.build r ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:3 g).Congest_ft.max_overlap in
  checkb (Printf.sprintf "more iterations, more overlap (%d vs %d)" o1 o3) true (o3 >= o1)

(* --------------------------- async net -------------------------------- *)

let test_async_at_rejects_past () =
  let g = Generators.path 2 in
  let net = Async_net.create (rng ()) g in
  (* a timer at the current instant is fine... *)
  Async_net.at net ~time:(Async_net.now net) (fun () -> ());
  ignore (Async_net.run net);
  (* ...but strictly in the past is refused, also after the clock moved *)
  Async_net.at net ~time:2. (fun () -> ());
  ignore (Async_net.run net);
  checkb "clock advanced" true (Async_net.now net >= 2.);
  try
    Async_net.at net ~time:1. (fun () -> ());
    Alcotest.fail "timer in the past accepted"
  with Invalid_argument _ -> ()

let test_async_send_requires_adjacency () =
  let g = Generators.path 3 in
  let net = Async_net.create (rng ()) g in
  (try
     Async_net.send net ~src:0 ~dst:2 (fun () -> ());
     Alcotest.fail "non-adjacent send accepted"
   with Invalid_argument _ -> ());
  checki "rejected send not counted" 0 (Async_net.messages net)

let test_async_run_max_events_pauses_mid_queue () =
  let g = Generators.path 2 in
  let net = Async_net.create (rng ()) g in
  let hits = ref 0 in
  for i = 0 to 4 do
    Async_net.at net ~time:(float_of_int i) (fun () -> incr hits)
  done;
  checki "stops at the budget" 2 (Async_net.run ~max_events:2 net);
  checki "exactly two handlers ran" 2 !hits;
  checkb "clock at the last processed event" true (Async_net.now net = 1.);
  checki "remainder still queued" 3 (Async_net.run net);
  checki "all handlers ran" 5 !hits

let test_async_run_until_keeps_future_events () =
  let g = Generators.path 2 in
  let net = Async_net.create (rng ()) g in
  let log = ref [] in
  List.iter
    (fun t -> Async_net.at net ~time:t (fun () -> log := t :: !log))
    [ 1.; 2.; 10. ];
  checki "events up to the horizon" 2 (Async_net.run ~until:5. net);
  checkb "clock does not pass the horizon" true (Async_net.now net <= 5.);
  checki "future event survives the pause" 1 (Async_net.run net);
  checkb "order preserved" true (!log = [ 10.; 2.; 1. ])

let () =
  Alcotest.run "distributed"
    [
      ( "net",
        [
          Alcotest.test_case "round delivery" `Quick test_net_delivery_next_round_only;
          Alcotest.test_case "adjacency required" `Quick test_net_requires_adjacency;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
          Alcotest.test_case "stats" `Quick test_net_stats_accounting;
          Alcotest.test_case "congest violations" `Quick test_net_congest_violations;
          Alcotest.test_case "charge rounds" `Quick test_net_charge_rounds;
          Alcotest.test_case "history" `Quick test_net_history;
        ] );
      ( "decomposition (Thm 11)",
        [
          Alcotest.test_case "partition" `Quick test_decomposition_is_partition;
          Alcotest.test_case "trees consistent" `Quick test_decomposition_trees_consistent;
          Alcotest.test_case "edge coverage" `Quick test_decomposition_coverage_whp;
          Alcotest.test_case "cluster diameter" `Quick test_decomposition_cluster_diameter_logarithmic;
          Alcotest.test_case "members" `Quick test_decomposition_members_consistent;
          Alcotest.test_case "beta tradeoff" `Quick test_decomposition_beta_tradeoff;
          Alcotest.test_case "assigns exactly once" `Quick test_decomposition_assigns_exactly_once;
          Alcotest.test_case "edge cases" `Quick test_decomposition_edge_cases;
          Alcotest.test_case "padding probability" `Quick test_decomposition_padding_probability;
        ] );
      ( "local spanner (Thm 12)",
        [
          Alcotest.test_case "valid sampled" `Quick test_local_spanner_valid_sampled;
          Alcotest.test_case "exponential engine" `Quick test_local_spanner_exponential_engine;
          Alcotest.test_case "EFT" `Quick test_local_spanner_eft;
          Alcotest.test_case "round structure" `Quick test_local_spanner_round_structure;
          Alcotest.test_case "size vs bound" `Quick test_local_spanner_size_vs_bound;
        ] );
      ( "congest baswana-sen (Thm 14)",
        [
          Alcotest.test_case "valid" `Quick test_congest_bs_valid;
          Alcotest.test_case "weighted" `Quick test_congest_bs_weighted_valid;
          Alcotest.test_case "rounds O(k^2)" `Quick test_congest_bs_rounds_scale_k2;
          Alcotest.test_case "no violations" `Quick test_congest_bs_no_violations;
          Alcotest.test_case "history" `Quick test_congest_bs_history_recorded;
          Alcotest.test_case "sparsifies" `Quick test_congest_bs_matches_size_shape;
        ] );
      ( "congest ft spanner (Thm 15)",
        [
          Alcotest.test_case "valid sampled" `Quick test_congest_ft_valid_sampled;
          Alcotest.test_case "EFT" `Quick test_congest_ft_eft;
          Alcotest.test_case "round accounting" `Quick test_congest_ft_round_accounting;
          Alcotest.test_case "f=0" `Quick test_congest_ft_f0_degenerates;
          Alcotest.test_case "overlap grows" `Quick test_congest_ft_overlap_grows_with_f;
        ] );
      ( "async net",
        [
          Alcotest.test_case "at rejects past" `Quick test_async_at_rejects_past;
          Alcotest.test_case "adjacency required" `Quick test_async_send_requires_adjacency;
          Alcotest.test_case "max_events pauses" `Quick test_async_run_max_events_pauses_mid_queue;
          Alcotest.test_case "until keeps future" `Quick test_async_run_until_keeps_future_events;
        ] );
    ]
