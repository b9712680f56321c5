(* Domain-safety stress tests: library entry points that fall back to
   internal scratch space when the caller passes no workspace must give
   the same answers on an Exec pool as sequentially.  The inputs are
   large enough, and the repetitions many enough, that a scratch buffer
   shared between domains corrupts answers (or raises) in practice, not
   just in principle. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Unit-weight random geometric graph, average degree about 10. *)
let geometric ~seed ~n =
  let radius = sqrt (10. /. (Float.pi *. float_of_int n)) in
  Generators.random_geometric (Rng.create ~seed) ~n ~radius ~euclidean_weights:false

(* 200 single-fault batches of 64 queries each, answered by a pooled
   handle and by a sequential one over the same graph.  Unit weights
   route every query through the workspace-less Bfs.hop_bounded_path. *)
let test_pooled_query_batches () =
  let n = 600 in
  let g = geometric ~seed:0xD1412 ~n in
  let handle pool =
    Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ?pool ()) g
  in
  let seq = handle None in
  Exec.Pool.with_pool ~domains:2 @@ fun pool ->
  let par = handle (Some pool) in
  let r = Rng.create ~seed:7 in
  let mismatches = ref 0 in
  for _ = 1 to 200 do
    let faults = Fault.random r Fault.VFT g ~f:1 in
    let pairs = Array.init 64 (fun _ -> (Rng.int r n, Rng.int r n)) in
    let expected = Dynamic.query_batch seq ~faults pairs in
    if Dynamic.query_batch par ~faults pairs <> expected then incr mismatches
  done;
  checki "pooled batches identical to sequential" 0 !mismatches

(* The Exponential engine decides every cluster edge with workspace-less
   witness searches, on several pool workers at once. *)
let test_exponential_shard_build () =
  let g = geometric ~seed:0x5eed ~n:400 in
  List.iter
    (fun mode ->
      let build pool =
        (Shard_build.build ~rng:(Rng.create ~seed:3) ~engine:Shard_build.Exponential
           ?pool ~mode ~k:2 ~f:1 g)
          .Shard_build.selection
      in
      let seq = Selection.ids (build None) in
      List.iter
        (fun domains ->
          Exec.Pool.with_pool ~domains @@ fun pool ->
          checkb
            (Printf.sprintf "%s jobs=%d identical"
               (Format.asprintf "%a" Fault.pp_mode mode)
               domains)
            true
            (Selection.ids (build (Some pool)) = seq))
        [ 2; 4 ])
    [ Fault.VFT; Fault.EFT ]

(* Two domains each drive batched builds on a pool of their own at the
   same time: per-worker workspaces must belong to the build, not to a
   table shared by every pool in the process. *)
let test_concurrent_batch_builds () =
  let g = geometric ~seed:0xBA7C ~n:300 in
  let build pool =
    Selection.ids
      (Poly_greedy.build ~batch:16 ?pool ~mode:Fault.VFT ~k:2 ~f:1 g)
  in
  let seq = build None in
  let run_builds () =
    Exec.Pool.with_pool ~domains:2 @@ fun pool ->
    List.init 4 (fun _ -> build (Some pool) = seq)
  in
  let others = Domain.spawn run_builds in
  let mine = run_builds () in
  let theirs = Domain.join others in
  checkb "this domain's builds identical to sequential" true
    (List.for_all Fun.id mine);
  checkb "other domain's builds identical to sequential" true
    (List.for_all Fun.id theirs)

(* Pool workers on a second domain emit trace events and heartbeat
   pulses while the main domain polls the trace and heartbeat summaries.
   Every read must be a consistent snapshot: counts never go backwards,
   and the ring never reports more events kept than seen. *)
let test_observability_polled_while_emitting () =
  let events = 20_000 and capacity = 512 in
  let stream = Filename.temp_file "ftspan_hb" ".jsonl" in
  Obs_trace.start ~capacity ();
  Obs_heartbeat.start
    { Obs_heartbeat.file = stream; interval_s = None; every_ops = Some 50 };
  let finished = Atomic.make false in
  let emitter =
    Domain.spawn (fun () ->
        Exec.Pool.with_pool ~domains:2 (fun pool ->
            Exec.parallel_for ~pool ~lo:0 ~hi:events (fun ~worker:_ lo hi ->
                for _ = lo to hi - 1 do
                  Obs_trace.emit (Obs_trace.Mark "poll-race");
                  Obs_heartbeat.pulse ()
                done));
        Atomic.set finished true)
  in
  let torn = ref 0 in
  let last_seen = ref 0 and last_beats = ref 0 in
  let polling = ref true in
  while !polling do
    polling := not (Atomic.get finished);
    let seen = Obs_trace.seen () and sampled = Obs_trace.sampled () in
    let dropped = Obs_trace.dropped () and beats = Obs_heartbeat.beats () in
    if
      seen < !last_seen || sampled > Obs_trace.seen () || dropped < 0
      || beats < !last_beats || Obs_heartbeat.skipped () < 0
    then incr torn;
    last_seen := seen;
    last_beats := beats
  done;
  Domain.join emitter;
  Obs_trace.stop ();
  Obs_heartbeat.stop ();
  Sys.remove stream;
  checki "no torn reads" 0 !torn;
  (* The pool adds its own span and phase events around the marks. *)
  let seen = Obs_trace.seen () in
  checkb "every mark seen" true (seen >= events);
  checki "ring overflow counted" (seen - capacity) (Obs_trace.dropped ());
  checkb "beats recorded" true (Obs_heartbeat.beats () > 0)

let () =
  Alcotest.run "concurrency"
    [
      ( "domain safety",
        [
          Alcotest.test_case "pooled query batches" `Quick test_pooled_query_batches;
          Alcotest.test_case "exponential shard build" `Quick
            test_exponential_shard_build;
          Alcotest.test_case "concurrent batch builds" `Quick
            test_concurrent_batch_builds;
          Alcotest.test_case "observability polled while emitting" `Quick
            test_observability_polled_while_emitting;
        ] );
    ]
