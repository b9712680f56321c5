(* Tests of the persistent domain-pool executor (lib/exec) and its
   determinism contract: results computed through Exec.parallel_for must
   be bit-identical to the sequential computation at every domain count,
   chunk size, and steal order. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let rng ?(seed = 0xC0FFEE) () = Rng.create ~seed
let ids sel = Selection.ids sel

(* ------------------------- parallel_for core ------------------------ *)

let test_covers_every_index_once () =
  List.iter
    (fun domains ->
      Exec.Pool.with_pool ~domains @@ fun pool ->
      List.iter
        (fun chunk ->
          let n = 1013 in
          let hits = Array.make n 0 in
          Exec.parallel_for ?chunk ~pool ~lo:0 ~hi:n (fun ~worker:_ l h ->
              for i = l to h - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Array.iteri
            (fun i c ->
              checki (Printf.sprintf "index %d hit once (d=%d)" i domains) 1 c)
            hits)
        [ None; Some 1; Some 7; Some 64; Some 10_000 ])
    [ 1; 2; 4 ]

let test_empty_range_runs_nothing () =
  Exec.Pool.with_pool ~domains:2 @@ fun pool ->
  let ran = ref false in
  Exec.parallel_for ~pool ~lo:5 ~hi:5 (fun ~worker:_ _ _ -> ran := true);
  Exec.parallel_for ~pool ~lo:9 ~hi:3 (fun ~worker:_ _ _ -> ran := true);
  checkb "no body call on empty range" false !ran

let test_worker_indices_in_range () =
  let domains = 4 in
  Exec.Pool.with_pool ~domains @@ fun pool ->
  checki "pool size" domains (Exec.Pool.size pool);
  let bad = Atomic.make 0 in
  Exec.parallel_for ~chunk:1 ~pool ~lo:0 ~hi:500 (fun ~worker _ _ ->
      if worker < 0 || worker >= domains then Atomic.incr bad);
  checki "worker index always in [0, size)" 0 (Atomic.get bad)

let test_rejects_bad_arguments () =
  (try
     ignore (Exec.Pool.create ~domains:0 ());
     Alcotest.fail "domains=0 should fail"
   with Invalid_argument _ -> ());
  Exec.Pool.with_pool ~domains:2 @@ fun pool ->
  try
    Exec.parallel_for ~chunk:0 ~pool ~lo:0 ~hi:10 (fun ~worker:_ _ _ -> ());
    Alcotest.fail "chunk=0 should fail"
  with Invalid_argument _ -> ()

(* -------------------- failure and lifecycle -------------------------- *)

exception Boom

let test_exception_propagates_pool_survives () =
  let pool = Exec.Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
  (* A body raise must reach the caller... *)
  let raised =
    try
      Exec.parallel_for ~chunk:1 ~pool ~lo:0 ~hi:200 (fun ~worker:_ l _ ->
          if l = 97 then raise Boom);
      false
    with Boom -> true
  in
  checkb "exception re-raised in caller" true raised;
  (* ...and leave every helper parked, not leaked or wedged: the same
     pool must run a full region afterwards. *)
  let n = 300 in
  let out = Array.make n 0 in
  Exec.parallel_for ~chunk:8 ~pool ~lo:0 ~hi:n (fun ~worker:_ l h ->
      for i = l to h - 1 do
        out.(i) <- i * i
      done);
  let ok = ref true in
  Array.iteri (fun i v -> if v <> i * i then ok := false) out;
  checkb "pool usable after exception" true !ok

let test_shutdown_idempotent_and_fences () =
  let pool = Exec.Pool.create ~domains:3 () in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  (* idempotent *)
  try
    Exec.parallel_for ~chunk:1 ~pool ~lo:0 ~hi:100 (fun ~worker:_ _ _ -> ());
    Alcotest.fail "submit to a shut-down pool should fail"
  with Invalid_argument _ -> ()

let test_worker_local_lazy_per_worker () =
  Exec.Pool.with_pool ~domains:3 @@ fun pool ->
  let inits = Atomic.make 0 in
  let slots =
    Exec.Worker_local.create ~pool (fun w ->
        Atomic.incr inits;
        ref w)
  in
  (* Alcotest is not domain-safe: workers only count mismatches, and the
     calling domain asserts. *)
  let mismatches = Atomic.make 0 in
  Exec.parallel_for ~chunk:1 ~pool ~lo:0 ~hi:300 (fun ~worker _ _ ->
      let r = Exec.Worker_local.get slots ~worker in
      if !r <> worker then Atomic.incr mismatches);
  checki "every slot bound to its worker" 0 (Atomic.get mismatches);
  checkb "each worker initialized at most once"
    true
    (Atomic.get inits <= Exec.Pool.size pool);
  checki "outside a region, worker 0" 0 !(Exec.Worker_local.get slots ~worker:0)

(* ------------------------------ no pool ------------------------------ *)

(* Without a pool the caller is the one worker: the body runs once,
   inline, over the whole range. *)
let test_no_pool_runs_once_inline () =
  let calls = ref [] in
  Exec.parallel_for ~lo:3 ~hi:250 (fun ~worker l h ->
      calls := (worker, l, h) :: !calls);
  check
    Alcotest.(list (triple int int int))
    "one call on worker 0 over the whole range" [ (0, 3, 250) ] !calls;
  let ran = ref false in
  Exec.parallel_for ~lo:9 ~hi:3 (fun ~worker:_ _ _ -> ran := true);
  checkb "empty range runs nothing" false !ran

(* ...and nothing is recorded: no region, no traced phase.  The same
   call on a 1-domain pool records both, so the test can fail. *)
let test_no_pool_records_nothing () =
  let regions = Obs.counter "pool.regions" in
  let traced_regions body =
    let before = Obs.Counter.value regions in
    Obs_trace.start ();
    Fun.protect ~finally:Obs_trace.stop body;
    let phases =
      List.filter
        (fun ev ->
          match ev.Obs_trace.payload with
          | Obs_trace.Phase { name = "pool.parallel_for"; _ } -> true
          | _ -> false)
        (Obs_trace.events ())
    in
    (Obs.Counter.value regions - before, List.length phases)
  in
  let noop ~worker:_ _ _ = () in
  check Alcotest.(pair int int) "no pool: no region, no phase" (0, 0)
    (traced_regions (fun () -> Exec.parallel_for ~lo:0 ~hi:100 noop));
  Exec.Pool.with_pool ~domains:1 @@ fun pool ->
  check Alcotest.(pair int int) "1-domain pool: one region, one phase" (1, 1)
    (traced_regions (fun () -> Exec.parallel_for ~pool ~lo:0 ~hi:100 noop))

let test_no_pool_exception_propagates () =
  checkb "exception reaches the caller" true
    (try
       Exec.parallel_for ~lo:0 ~hi:10 (fun ~worker:_ _ _ -> raise Boom);
       false
     with Boom -> true)

let test_no_pool_worker_local_one_slot () =
  let inits = ref 0 in
  let slots =
    Exec.Worker_local.create (fun w ->
        incr inits;
        w)
  in
  Exec.parallel_for ~lo:0 ~hi:50 (fun ~worker _ _ ->
      ignore (Exec.Worker_local.get slots ~worker));
  checki "worker 0's slot" 0 (Exec.Worker_local.get slots ~worker:0);
  checki "initialized once" 1 !inits;
  let seen = ref 0 in
  Exec.Worker_local.iter slots (fun _ -> incr seen);
  checki "one slot" 1 !seen;
  try
    ignore (Exec.Worker_local.get slots ~worker:1);
    Alcotest.fail "worker 1 has no slot without a pool"
  with Invalid_argument _ -> ()

(* ----------------- determinism: builds and verify -------------------- *)

(* The tentpole's acceptance bar: selections through a pool are
   bit-identical to the sequential batched build on every family, both
   fault modes, at any domain count. *)
let graph_families () =
  let r = rng () in
  [
    ("gnp", Generators.connected_gnp r ~n:80 ~p:0.15);
    ("grid", Generators.grid ~rows:8 ~cols:8);
    ( "hard",
      Lower_bound.hard_instance ~f:1 (Lower_bound.projective_plane_incidence ~q:3)
    );
  ]

let test_build_bit_identical_across_domains () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun mode ->
          let seq = Poly_greedy.build ~batch:32 ~mode ~k:2 ~f:1 g in
          List.iter
            (fun domains ->
              let par =
                Exec.Pool.with_pool ~domains (fun pool ->
                    Poly_greedy.build ~batch:32 ~pool ~mode ~k:2 ~f:1 g)
              in
              check
                (Alcotest.list Alcotest.int)
                (Printf.sprintf "%s %s domains=%d" name
                   (match mode with Fault.VFT -> "VFT" | Fault.EFT -> "EFT")
                   domains)
                (ids seq)
                (ids par))
            [ 1; 2; 4 ])
        [ Fault.VFT; Fault.EFT ])
    (graph_families ())

let test_pool_reused_across_builds () =
  let r = rng () in
  let g1 = Generators.connected_gnp r ~n:60 ~p:0.2 in
  let g2 = Generators.grid ~rows:7 ~cols:7 in
  let seq1 = Poly_greedy.build ~batch:16 ~mode:Fault.VFT ~k:2 ~f:2 g1 in
  let seq2 = Poly_greedy.build ~batch:16 ~mode:Fault.EFT ~k:3 ~f:1 g2 in
  Exec.Pool.with_pool ~domains:4 @@ fun pool ->
  (* Two consecutive builds on one pool: per-worker workspaces are
     cached and reused, and both results stay sequential-identical. *)
  let par1 = Poly_greedy.build ~batch:16 ~pool ~mode:Fault.VFT ~k:2 ~f:2 g1 in
  let par2 = Poly_greedy.build ~batch:16 ~pool ~mode:Fault.EFT ~k:3 ~f:1 g2 in
  check (Alcotest.list Alcotest.int) "first build on shared pool"
    (ids seq1)
    (ids par1);
  check (Alcotest.list Alcotest.int) "second build on shared pool"
    (ids seq2)
    (ids par2)

let test_spanner_options_facade () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:50 ~p:0.25 in
  let params = { Spanner.k = 2; f = 1; mode = Fault.VFT } in
  let plain = Spanner.build params g in
  (* Default options are the historical sequential path. *)
  let dflt = Spanner.build ~options:(Spanner.options ()) params g in
  check (Alcotest.list Alcotest.int) "default options = plain" (ids plain)
    (ids dflt);
  (* batch=1 through a pool still equals the sequential greedy. *)
  let pooled =
    Exec.Pool.with_pool ~domains:2 (fun pool ->
        Spanner.build ~options:(Spanner.options ~batch:1 ~pool ()) params g)
  in
  check (Alcotest.list Alcotest.int) "pooled batch=1 = sequential" (ids plain)
    (ids pooled);
  try
    ignore (Spanner.options ~batch:0 ());
    Alcotest.fail "batch=0 should fail"
  with Invalid_argument _ -> ()

let digest sel =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int (ids sel))))

let pin name (size, md5) sel =
  check Alcotest.(pair int string) name (size, md5) (sel.Selection.size, digest sel)

(* Selections recorded before the batched greedy, DK11 and the sharded
   build lost their private pools and sequential forks: the pool-less
   and pooled runs of every block size must still produce them. *)
let test_pinned_selections () =
  let g = Generators.connected_gnp (Rng.create ~seed:23) ~n:120 ~p:0.15 in
  checki "gnp m" 1063 (Graph.m g);
  Exec.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (mode, k, f, batch, expect) ->
          let name =
            Format.asprintf "%a k=%d f=%d batch=%d" Fault.pp_mode mode k f batch
          in
          pin (name ^ " no pool") expect (Poly_greedy.build ~batch ~mode ~k ~f g);
          pin (name ^ " 2 domains") expect
            (Poly_greedy.build ~batch ~pool ~mode ~k ~f g))
        [
          (Fault.VFT, 2, 2, 1, (585, "aaa4ea5c9221b775d375bccb6a99f63c"));
          (Fault.VFT, 2, 2, 16, (621, "ffd2e92e2446289e3ad34de49ec17d0f"));
          (Fault.VFT, 2, 2, 512, (815, "dff291311b51b02c8c226da8952184fd"));
          (Fault.EFT, 3, 1, 1, (243, "25211ff8a5759141ed6f9669cc6d2335"));
          (Fault.EFT, 3, 1, 16, (259, "49d77dd186cb495ca97eca32448fa8fb"));
          (Fault.EFT, 3, 1, 512, (539, "bfd053bced34a718a7d8e29b528229e6"));
        ]);
  let dense = Generators.gnp (Rng.create ~seed:9) ~n:80 ~p:0.8 in
  pin "dk11 VFT" (2498, "4fd617634378b90771742019d3378feb")
    (Dk11.build (Rng.create ~seed:7) ~mode:Fault.VFT ~k:3 ~f:1 dense);
  pin "dk11 EFT" (2537, "0f2a1ebe05634e266bd5c922ce838f21")
    (Dk11.build (Rng.create ~seed:7) ~mode:Fault.EFT ~k:3 ~f:1 dense);
  let sg = Generators.connected_gnp (Rng.create ~seed:31) ~n:60 ~p:0.12 in
  List.iter
    (fun (name, engine, expect) ->
      let r =
        Shard_build.build ~rng:(Rng.create ~seed:4) ~engine ~mode:Fault.VFT ~k:2
          ~f:1 sg
      in
      pin ("shard " ^ name) expect r.Shard_build.selection;
      checki ("shard " ^ name ^ " clusters") 18 r.Shard_build.clusters)
    [
      ("polynomial", Shard_build.Polynomial, (198, "91bbd6d25e849d84a1195cb491a51b6d"));
      ("exponential", Shard_build.Exponential, (197, "cba9a34650d061729e62c6463d389c25"));
    ]

(* Sampled batteries that find nothing check every trial and leave the
   stream where the streaming scan left it; one that finds a violation
   still reports it at its sample index. *)
let test_verify_sampled_pinned () =
  let small = Generators.connected_gnp (Rng.create ~seed:3) ~n:20 ~p:0.3 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 small in
  let empty = Selection.of_ids small [] in
  let run name ~adversarial sel ~checked ~next =
    let rng = Rng.create ~seed:77 in
    let cfg = Verify.config ~rng ~trials:25 () in
    let r =
      if adversarial then Verify.adversarial ~cfg sel ~mode:Fault.VFT ~stretch:3. ~f:1
      else Verify.random ~cfg sel ~mode:Fault.VFT ~stretch:3. ~f:1
    in
    checki (name ^ " checked") checked r.Verify.checked;
    match next with
    | Some draw ->
        checkb (name ^ " ok") true (Verify.ok r);
        checki (name ^ " next draw") draw (Rng.int rng 1000000)
    | None -> checkb (name ^ " violated") false (Verify.ok r)
  in
  run "random" ~adversarial:false sel ~checked:25 ~next:(Some 574196);
  run "adversarial" ~adversarial:true sel ~checked:25 ~next:(Some 592979);
  run "random, empty selection" ~adversarial:false empty ~checked:1 ~next:None;
  run "adversarial, empty selection" ~adversarial:true empty ~checked:1 ~next:None

let test_verify_batteries_deterministic () =
  let r = rng () in
  let g = Generators.connected_gnp r ~n:50 ~p:0.25 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  let run ?pool () =
    let rv = Rng.create ~seed:77 in
    let cfg = Verify.config ?pool ~rng:rv ~trials:40 () in
    let a = Verify.adversarial ~cfg sel ~mode:Fault.VFT ~stretch:3.0 ~f:2 in
    let b = Verify.random ~cfg sel ~mode:Fault.VFT ~stretch:3.0 ~f:2 in
    let p =
      Verify.profile ~cfg:(Verify.config ?pool ~rng:rv ~trials:20 ()) sel
        ~mode:Fault.VFT ~f:2
    in
    (a, b, p)
  in
  let seq = run () in
  Exec.Pool.with_pool ~domains:4 @@ fun pool ->
  let par = run ~pool () in
  checkb "verify batteries identical under a pool" true (seq = par)

(* ------------------------- default_jobs ------------------------------ *)

(* Kept last: set_default_jobs installs a process-wide override that
   cannot be cleared again. *)
let test_default_jobs () =
  let case env expect =
    Unix.putenv "FTSPAN_JOBS" env;
    checki (Printf.sprintf "FTSPAN_JOBS=%S" env) expect (Exec.default_jobs ())
  in
  case "3" 3;
  case " 5 " 5;
  case "0" 1;
  case "-2" 1;
  case "abc" 1;
  Exec.set_default_jobs 2;
  case "7" 2;
  (* the override wins over the environment *)
  Exec.set_default_jobs 1;
  try
    Exec.set_default_jobs 0;
    Alcotest.fail "set_default_jobs 0 should fail"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "exec"
    [
      ( "parallel_for",
        [
          Alcotest.test_case "covers once" `Quick test_covers_every_index_once;
          Alcotest.test_case "empty range" `Quick test_empty_range_runs_nothing;
          Alcotest.test_case "worker indices" `Quick test_worker_indices_in_range;
          Alcotest.test_case "bad arguments" `Quick test_rejects_bad_arguments;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "exception survives" `Quick
            test_exception_propagates_pool_survives;
          Alcotest.test_case "shutdown fences" `Quick
            test_shutdown_idempotent_and_fences;
          Alcotest.test_case "worker-local" `Quick test_worker_local_lazy_per_worker;
        ] );
      ( "no pool",
        [
          Alcotest.test_case "runs once inline" `Quick test_no_pool_runs_once_inline;
          Alcotest.test_case "records nothing" `Quick test_no_pool_records_nothing;
          Alcotest.test_case "exception propagates" `Quick
            test_no_pool_exception_propagates;
          Alcotest.test_case "worker-local one slot" `Quick
            test_no_pool_worker_local_one_slot;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "builds bit-identical" `Quick
            test_build_bit_identical_across_domains;
          Alcotest.test_case "pool reuse" `Quick test_pool_reused_across_builds;
          Alcotest.test_case "spanner options" `Quick test_spanner_options_facade;
          Alcotest.test_case "verify batteries" `Quick
            test_verify_batteries_deterministic;
          Alcotest.test_case "pinned selections" `Quick test_pinned_selections;
          Alcotest.test_case "pinned sampled verify" `Quick test_verify_sampled_pinned;
        ] );
      ( "default_jobs",
        [ Alcotest.test_case "parsing and override" `Quick test_default_jobs ] );
    ]
