(* Bechamel micro-benchmarks: one Test.make per experiment family, timing
   the primitive that dominates that experiment (Theorem 4's BFS rounds,
   one LBC decision, full spanner builds, a decomposition).  Estimated
   per-run time comes from bechamel's OLS fit over monotonic-clock
   samples. *)

open Bechamel
open Toolkit

let seed = 0xBEC

(* Fixed inputs, built once; the benchmarks measure the algorithms, not the
   generators. *)
let graph_mid = lazy (Generators.connected_gnp (Rng.create ~seed) ~n:300 ~p:0.08)
let graph_small = lazy (Generators.connected_gnp (Rng.create ~seed) ~n:100 ~p:0.2)
let graph_k24 = lazy (Generators.complete 24)
let graph_weighted =
  lazy
    (let r = Rng.create ~seed in
     Generators.with_uniform_weights r
       (Generators.connected_gnp r ~n:100 ~p:0.2)
       ~lo:0.5 ~hi:5.)

let bfs_test =
  Test.make ~name:"e1: hop-bounded BFS (n=300)"
    (Staged.stage (fun () ->
         let g = Lazy.force graph_mid in
         ignore (Bfs.hop_bounded_path g ~src:0 ~dst:Graph.(n g - 1) ~max_hops:3)))

let lbc_test =
  let ws = Lbc.Workspace.create () in
  Test.make ~name:"e1: LBC decide t=3 alpha=4 (n=300)"
    (Staged.stage (fun () ->
         let g = Lazy.force graph_mid in
         ignore (Lbc.decide ~ws ~mode:Fault.VFT g ~u:0 ~v:(Graph.n g - 1) ~t:3 ~alpha:4)))

let poly_greedy_test =
  Test.make ~name:"e2/e3: poly greedy k=2 f=2 (n=100)"
    (Staged.stage (fun () ->
         ignore (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 (Lazy.force graph_small))))

let poly_greedy_weighted_test =
  Test.make ~name:"e5: poly greedy weighted (n=100)"
    (Staged.stage (fun () ->
         ignore (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 (Lazy.force graph_weighted))))

let exp_greedy_test =
  Test.make ~name:"e4: exponential greedy k=2 f=1 (K24)"
    (Staged.stage (fun () ->
         ignore (Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 (Lazy.force graph_k24))))

let baswana_sen_test =
  Test.make ~name:"e7: baswana-sen k=2 (n=300)"
    (Staged.stage (fun () ->
         ignore (Baswana_sen.build (Rng.create ~seed) ~k:2 (Lazy.force graph_mid))))

let dk11_test =
  Test.make ~name:"e8: dk11 k=2 f=2 (n=100)"
    (Staged.stage (fun () ->
         ignore
           (Dk11.build (Rng.create ~seed) ~mode:Fault.VFT ~k:2 ~f:2
              (Lazy.force graph_small))))

let decomposition_test =
  Test.make ~name:"e6: padded decomposition (n=300)"
    (Staged.stage (fun () ->
         ignore (Decomposition.run (Rng.create ~seed) (Lazy.force graph_mid))))

let verify_test =
  let sel =
    lazy (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 (Lazy.force graph_small))
  in
  Test.make ~name:"verify: one adversarial fault check (n=100)"
    (Staged.stage (fun () ->
         let r = Rng.create ~seed in
         ignore
           (Verify.adversarial
              ~cfg:(Verify.config ~rng:r ~trials:1 ())
              (Lazy.force sel) ~mode:Fault.VFT ~stretch:3. ~f:2)))

let thorup_zwick_test =
  Test.make ~name:"e8: thorup-zwick k=2 (n=300)"
    (Staged.stage (fun () ->
         ignore (Thorup_zwick.build (Rng.create ~seed) ~k:2 (Lazy.force graph_mid))))

let batch_greedy_test =
  Test.make ~name:"e12: batched greedy batch=32 (n=100)"
    (Staged.stage (fun () ->
         ignore
           (Poly_greedy.build ~batch:32 ~mode:Fault.VFT ~k:2 ~f:2
              (Lazy.force graph_small))))

(* Registered on first use, so runs that skip the micro benches never
   list it among their metrics. *)
let micro_hist = lazy (Obs.histogram_log "micro.observe")

let histogram_test =
  Test.make ~name:"obs: Histogram.observe_int (log-linear)"
    (Staged.stage (fun () -> Obs.Histogram.observe_int (Lazy.force micro_hist) 1234))

(* Theorem 15 under loss: the Reliable layer's retransmissions feed the
   per-step congestion rows, so this times the simulation together with
   its schedule. *)
let congest_ft_test =
  let g = lazy (Generators.connected_gnp (Rng.create ~seed) ~n:64 ~p:0.1) in
  let chaos = Chaos.plan ~drop:0.1 ~dup:0.05 ~seed:7 () in
  Test.make ~name:"e7: congest_ft k=2 f=2 under drop/dup (n=64)"
    (Staged.stage (fun () ->
         ignore
           (Congest_ft.build (Rng.create ~seed) ~c:0.1 ~chaos ~mode:Fault.VFT
              ~k:2 ~f:2 (Lazy.force g))))

(* The whole-graph consumers of the one BFS expansion: a workspace per
   call, one expansion per component or source. *)
let graph_1k = lazy (Generators.connected_gnp (Rng.create ~seed) ~n:1000 ~p:0.01)

let components_test =
  Test.make ~name:"graph: Components.labels (gnp n=1000)"
    (Staged.stage (fun () -> ignore (Components.labels (Lazy.force graph_1k))))

let girth_test =
  Test.make ~name:"graph: Girth.girth_exceeds ~bound:4 (gnp n=1000)"
    (Staged.stage (fun () ->
         ignore (Girth.girth_exceeds (Lazy.force graph_1k) ~bound:4)))

let diameter_test =
  Test.make ~name:"graph: Stats.diameter (gnp n=1000)"
    (Staged.stage (fun () -> ignore (Stats.diameter (Lazy.force graph_1k))))

let tests =
  Test.make_grouped ~name:"ftspan"
    [
      bfs_test;
      lbc_test;
      poly_greedy_test;
      poly_greedy_weighted_test;
      exp_greedy_test;
      baswana_sen_test;
      thorup_zwick_test;
      dk11_test;
      decomposition_test;
      batch_greedy_test;
      verify_test;
      histogram_test;
      congest_ft_test;
      components_test;
      girth_test;
      diameter_test;
    ]

let run () =
  Tables.banner "Micro-benchmarks (bechamel OLS estimates, ns/run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "  %-48s %14s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with Some (x :: _) -> x | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square r with Some x -> x | None -> nan in
      let pretty =
        if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
        else Printf.sprintf "%8.0f ns" est
      in
      Printf.printf "  %-48s %14s %8.3f\n" name pretty r2)
    rows
