(* Tests of the native decomposition-sharded builder (lib/core/shard):
   the differential harness of the sharding PR.

   - Shard_partition must compute the exact fixed point the simulated
     Decomposition floods to (same seed, same clustering, bit for bit);
   - Shard_build must produce valid f-VFT/f-EFT spanners within the
     paper's O(log n) size factor of the sequential build, bit-identical
     at every pool size, across storage backends, and on seed replay;
   - Dk11's pooled path must be bit-identical at every pool size. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkil = check (Alcotest.list Alcotest.int)
let rng ?(seed = 0x5AD3) () = Rng.create ~seed

let graph_families () =
  let r = rng () in
  [
    ("gnp", Generators.connected_gnp r ~n:80 ~p:0.15);
    ("grid", Generators.grid ~rows:8 ~cols:8);
    ( "hard",
      Lower_bound.hard_instance ~f:1 (Lower_bound.projective_plane_incidence ~q:3)
    );
  ]

let log2n g = log (float_of_int (max 2 (Graph.n g))) /. log 2.

(* ----------------- native vs simulated decomposition ----------------- *)

(* Same seed, same fixed point: centres, depths, coverage and the round
   horizon all agree with the Net-flooded run.  (Parents may differ on
   equal-key relays — both are valid shortest-path trees — so they are
   deliberately not compared.) *)
let test_partition_matches_simulation () =
  List.iter
    (fun (name, g) ->
      let native = Shard_partition.run (Rng.create ~seed:91) g in
      let simulated = Decomposition.run (Rng.create ~seed:91) g in
      checki (name ^ ": partition count")
        (Array.length simulated.Shard_partition.partitions)
        (Array.length native.Shard_partition.partitions);
      checki (name ^ ": horizon = rounds") simulated.Shard_partition.horizon
        native.Shard_partition.horizon;
      checki (name ^ ": max depth") simulated.Shard_partition.max_depth
        native.Shard_partition.max_depth;
      Array.iteri
        (fun p (nc : Shard_partition.clustering) ->
          let sc = simulated.Shard_partition.partitions.(p) in
          checkil
            (Printf.sprintf "%s: centers of partition %d" name p)
            (Array.to_list sc.Shard_partition.center_of)
            (Array.to_list nc.Shard_partition.center_of);
          checkil
            (Printf.sprintf "%s: depths of partition %d" name p)
            (Array.to_list sc.Shard_partition.depth_of)
            (Array.to_list nc.Shard_partition.depth_of))
        native.Shard_partition.partitions;
      check
        (Alcotest.list Alcotest.bool)
        (name ^ ": covered edges")
        (Array.to_list simulated.Shard_partition.covered)
        (Array.to_list native.Shard_partition.covered))
    (graph_families ())

let test_partition_replay_determinism () =
  let g = Generators.connected_gnp (rng ()) ~n:70 ~p:0.12 in
  let run () = Shard_partition.run (Rng.create ~seed:17) ~beta:0.3 g in
  let a = run () and b = run () in
  Array.iteri
    (fun p (c : Shard_partition.clustering) ->
      checkil
        (Printf.sprintf "replayed centers of partition %d" p)
        (Array.to_list c.Shard_partition.center_of)
        (Array.to_list b.Shard_partition.partitions.(p).Shard_partition.center_of))
    a.Shard_partition.partitions

let test_members_partition_vertices () =
  let g = Generators.connected_gnp (rng ()) ~n:50 ~p:0.1 in
  let part = Shard_partition.run (Rng.create ~seed:3) g in
  Array.iter
    (fun (c : Shard_partition.clustering) ->
      let seen = Array.make (Graph.n g) 0 in
      List.iter
        (fun (ctr, ms) ->
          checki "centre is its own centre" ctr c.Shard_partition.center_of.(ctr);
          checkb "centre listed among members" true (List.mem ctr ms);
          List.iter (fun v -> seen.(v) <- seen.(v) + 1) ms)
        (Shard_partition.members c);
      Array.iteri
        (fun v count ->
          checki (Printf.sprintf "vertex %d in exactly one cluster" v) 1 count)
        seen)
    part.Shard_partition.partitions

let test_partition_rejects_bad_arguments () =
  let g = Generators.grid ~rows:3 ~cols:3 in
  List.iter
    (fun beta ->
      try
        ignore (Shard_partition.run (rng ()) ~beta g);
        Alcotest.fail "beta outside (0,1) should fail"
      with Invalid_argument _ -> ())
    [ 0.0; 1.0; -0.5 ];
  try
    ignore (Shard_partition.run (rng ()) ~partitions:0 g);
    Alcotest.fail "partitions=0 should fail"
  with Invalid_argument _ -> ()

(* --------------------------- sharded build --------------------------- *)

let shard ?pool ?engine ~mode ~k ~f ~seed g =
  Shard_build.build ?pool ?engine ~rng:(Rng.create ~seed) ~mode ~k ~f g

let test_build_is_valid_spanner () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun mode ->
          let res = shard ~mode ~k:2 ~f:1 ~seed:5 g in
          let cfg = Verify.config ~rng:(rng ()) ~trials:30 () in
          checkb
            (name ^ ": random battery")
            true
            (Verify.ok
               (Verify.random ~cfg res.Shard_build.selection ~mode ~stretch:3.0
                  ~f:1));
          checkb
            (name ^ ": adversarial battery")
            true
            (Verify.ok
               (Verify.adversarial ~cfg res.Shard_build.selection ~mode
                  ~stretch:3.0 ~f:1)))
        [ Fault.VFT; Fault.EFT ])
    (graph_families ())

let test_build_within_log_factor () =
  List.iter
    (fun (name, g) ->
      let seq =
        Spanner.build { Spanner.k = 2; f = 1; mode = Fault.VFT } g
      in
      let res = shard ~mode:Fault.VFT ~k:2 ~f:1 ~seed:5 g in
      let bound = log2n g *. float_of_int seq.Selection.size in
      checkb
        (Printf.sprintf "%s: sharded %d <= log2(n) * sequential %d" name
           res.Shard_build.selection.Selection.size seq.Selection.size)
        true
        (float_of_int res.Shard_build.selection.Selection.size <= bound))
    (graph_families ())

let test_build_bit_identical_across_pool_sizes () =
  List.iter
    (fun (name, g) ->
      let reference =
        Selection.ids (shard ~mode:Fault.VFT ~k:2 ~f:1 ~seed:11 g).Shard_build.selection
      in
      List.iter
        (fun domains ->
          Exec.Pool.with_pool ~domains @@ fun pool ->
          let sel =
            (shard ~pool ~mode:Fault.VFT ~k:2 ~f:1 ~seed:11 g)
              .Shard_build.selection
          in
          checkil
            (Printf.sprintf "%s: jobs=%d matches no-pool build" name domains)
            reference (Selection.ids sel))
        [ 1; 2; 4 ])
    (graph_families ())

let test_build_bit_identical_across_backends () =
  let g = Generators.connected_gnp (rng ()) ~n:60 ~p:0.15 in
  let g32 = Int32_graph.of_graph g in
  let ids g = Selection.ids (shard ~mode:Fault.VFT ~k:2 ~f:1 ~seed:29 g).Shard_build.selection in
  checkil "int vs int32 selections" (ids g) (ids g32)

let test_build_replay_determinism () =
  let g = Generators.connected_gnp (rng ()) ~n:60 ~p:0.15 in
  let run () = shard ~mode:Fault.EFT ~k:2 ~f:1 ~seed:41 g in
  let a = run () and b = run () in
  checkil "replayed selections"
    (Selection.ids a.Shard_build.selection)
    (Selection.ids b.Shard_build.selection);
  checki "replayed cluster count" a.Shard_build.clusters b.Shard_build.clusters;
  checki "replayed boundary count" a.Shard_build.boundary_edges
    b.Shard_build.boundary_edges

let test_build_exponential_engine () =
  let g = Generators.connected_gnp (rng ()) ~n:24 ~p:0.25 in
  let res =
    shard ~engine:Shard_build.Exponential ~mode:Fault.VFT ~k:2 ~f:1 ~seed:13 g
  in
  checkb "exp-engine shard is a valid spanner" true
    (Verify.ok
       (Verify.exhaustive res.Shard_build.selection ~mode:Fault.VFT
          ~stretch:3.0 ~f:1))

let test_boundary_edges_force_kept () =
  (* With a single partition, padding fails for some edges on most seeds;
     every uncovered edge must appear in the selection. *)
  let g = Generators.connected_gnp (rng ()) ~n:40 ~p:0.1 in
  let res =
    Shard_build.build ~rng:(Rng.create ~seed:2) ~partitions:1 ~mode:Fault.VFT
      ~k:2 ~f:1 g
  in
  let uncovered = ref 0 in
  Array.iteri
    (fun id covered ->
      if not covered then begin
        incr uncovered;
        checkb
          (Printf.sprintf "uncovered edge %d kept" id)
          true
          (Selection.mem res.Shard_build.selection id)
      end)
    res.Shard_build.partition.Shard_partition.covered;
  checki "boundary counter matches uncovered edges" !uncovered
    res.Shard_build.boundary_edges

(* ------------------------- facade and dk11 --------------------------- *)

let test_spanner_facade_shard_option () =
  let g = Generators.connected_gnp (rng ()) ~n:50 ~p:0.15 in
  let params = { Spanner.k = 2; f = 1; mode = Fault.VFT } in
  let direct =
    Selection.ids (shard ~mode:Fault.VFT ~k:2 ~f:1 ~seed:0x5eed g).Shard_build.selection
  in
  let via_facade =
    Selection.ids
      (Spanner.build ~rng:(Rng.create ~seed:0x5eed)
         ~options:(Spanner.options ~shard:true ()) params g)
  in
  checkil "facade ~shard:true routes through Shard_build" direct via_facade

let test_dk11_pooled_bit_identical () =
  let g = Generators.connected_gnp (rng ()) ~n:40 ~p:0.12 in
  let build pool =
    Selection.ids
      (Dk11.build (Rng.create ~seed:77) ~mode:Fault.VFT ~k:2 ~f:1 ~pool g)
  in
  let reference = Exec.Pool.with_pool ~domains:1 build in
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains @@ fun pool ->
      checkil
        (Printf.sprintf "dk11 jobs=%d matches jobs=1" domains)
        reference (build pool))
    [ 2; 4 ];
  let sel =
    Exec.Pool.with_pool ~domains:4 (fun pool ->
        Dk11.build (Rng.create ~seed:77) ~mode:Fault.VFT ~k:2 ~f:1 ~pool g)
  in
  let cfg = Verify.config ~rng:(rng ()) ~trials:30 () in
  checkb "pooled dk11 is a valid spanner" true
    (Verify.ok (Verify.random ~cfg sel ~mode:Fault.VFT ~stretch:3.0 ~f:1))

(* --------------------------- qcheck sweep ---------------------------- *)

let arb_instance =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "(seed=%d, n=%d, p=%d%%)" seed n p)
    QCheck.Gen.(triple (int_range 1 1000) (int_range 8 14) (int_range 25 50))

let prop_shard_valid mode name =
  QCheck.Test.make ~count:25 ~name arb_instance (fun (seed, n, p) ->
      let g =
        Generators.connected_gnp (Rng.create ~seed) ~n
          ~p:(float_of_int p /. 100.)
      in
      let res = shard ~mode ~k:2 ~f:1 ~seed g in
      Verify.ok
        (Verify.exhaustive res.Shard_build.selection ~mode ~stretch:3.0 ~f:1))

let prop_shard_valid_vft =
  prop_shard_valid Fault.VFT "shard: random instances stay valid (VFT)"

let prop_shard_valid_eft =
  prop_shard_valid Fault.EFT "shard: random instances stay valid (EFT)"

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "matches simulated decomposition" `Quick
            test_partition_matches_simulation;
          Alcotest.test_case "replay determinism" `Quick
            test_partition_replay_determinism;
          Alcotest.test_case "members partition the vertices" `Quick
            test_members_partition_vertices;
          Alcotest.test_case "error surface" `Quick
            test_partition_rejects_bad_arguments;
        ] );
      ( "build",
        [
          Alcotest.test_case "valid spanner" `Quick test_build_is_valid_spanner;
          Alcotest.test_case "within log factor" `Quick
            test_build_within_log_factor;
          Alcotest.test_case "bit-identical across pool sizes" `Quick
            test_build_bit_identical_across_pool_sizes;
          Alcotest.test_case "bit-identical across backends" `Quick
            test_build_bit_identical_across_backends;
          Alcotest.test_case "replay determinism" `Quick
            test_build_replay_determinism;
          Alcotest.test_case "exponential engine" `Quick
            test_build_exponential_engine;
          Alcotest.test_case "boundary edges force-kept" `Quick
            test_boundary_edges_force_kept;
        ] );
      ( "facade",
        [
          Alcotest.test_case "Spanner ~shard:true" `Quick
            test_spanner_facade_shard_option;
          Alcotest.test_case "dk11 pooled determinism" `Quick
            test_dk11_pooled_bit_identical;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_shard_valid_vft;
          QCheck_alcotest.to_alcotest prop_shard_valid_eft;
        ] );
    ]
