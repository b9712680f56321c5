(* The experiment harness: one function per experiment in DESIGN.md's
   index (E1..E16).  Each regenerates the table validating the shape of a
   theorem of the paper; EXPERIMENTS.md records paper-claim vs measured.

   All experiments are deterministic given the seeds fixed here. *)

open Tables

let seed = 0xD1412

let stretch k = float_of_int ((2 * k) - 1)

let verify_sampled ?(trials = 12) rng sel ~mode ~k ~f =
  let ok1 =
    Verify.ok (Verify.adversarial ~cfg:(Verify.config ~rng ~trials ()) sel ~mode ~stretch:(stretch k) ~f)
  in
  let ok2 =
    Verify.ok (Verify.random ~cfg:(Verify.config ~rng ~trials ()) sel ~mode ~stretch:(stretch k) ~f)
  in
  ok1 && ok2

let with_temp suffix fn =
  let file = Filename.temp_file "ftspan_bench" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> fn file)

(* ------------------------------------------------------------------ *)
(* E1 (Theorem 4): LBC gap correctness and O((m+n) alpha) running time *)

let e1 () =
  banner "E1 (Theorem 4) - LBC(t, alpha): gap correctness and linear time in alpha";
  let rng = Rng.create ~seed in
  subhead "gap correctness against the exact solver (n=18, 300 instances)";
  let agree_yes = ref 0 and must_yes = ref 0 in
  let certified = ref 0 and yes_total = ref 0 in
  for _ = 1 to 300 do
    let g = Generators.connected_gnp rng ~n:18 ~p:0.22 in
    let u = Rng.int rng 18 and v = Rng.int rng 18 in
    if u <> v then begin
      let t = 3 and alpha = 2 in
      (match Lbc_exact.min_cut ~mode:Fault.VFT g ~u ~v ~t ~limit:alpha with
      | Some _ ->
          incr must_yes;
          (match Lbc.decide ~mode:Fault.VFT g ~u ~v ~t ~alpha with
          | Lbc.Yes _ -> incr agree_yes
          | Lbc.No _ -> ())
      | None -> ());
      match Lbc.decide ~mode:Fault.VFT g ~u ~v ~t ~alpha with
      | Lbc.Yes { cut } ->
          incr yes_total;
          if Lbc_exact.is_cut ~mode:Fault.VFT g ~u ~v ~t cut then incr certified
      | Lbc.No _ -> ()
    end
  done;
  row "  completeness: %d/%d instances with a <=alpha cut answered YES (paper: all)"
    !agree_yes !must_yes;
  row "  certificates: %d/%d YES answers carry a genuine length-t cut (paper: all)"
    !certified !yes_total;
  subhead "running time vs alpha (G(n=600, p=0.08), t=3, 400 calls per point)";
  row "  %6s %12s %16s" "alpha" "time/call" "time/(alpha+1)";
  let g = Generators.connected_gnp rng ~n:600 ~p:0.08 in
  let pairs =
    Array.init 400 (fun _ ->
        let u = Rng.int rng 600 in
        let v = Rng.int rng 600 in
        if u = v then (0, 1) else (u, v))
  in
  let points = ref [] in
  List.iter
    (fun alpha ->
      let ws = Lbc.Workspace.create () in
      let (), dt =
        time (fun () ->
            Array.iter
              (fun (u, v) ->
                ignore (Lbc.decide ~ws ~mode:Fault.VFT g ~u ~v ~t:3 ~alpha))
              pairs)
      in
      let per_call = dt /. 400. in
      points := (float_of_int (alpha + 1), per_call) :: !points;
      row "  %6d %10.2f us %13.2f us" alpha (per_call *. 1e6)
        (per_call /. float_of_int (alpha + 1) *. 1e6))
    [ 1; 2; 4; 8; 16; 32 ];
  let slope = Bounds.log_log_slope !points in
  (* Theorem 4's bound is [alpha+1] BFS rounds of O(m+n) each; early exit
     makes the first rounds cheaper, so the honest check is that the
     per-round cost stays below one full O(m+n) BFS. *)
  let (), full_bfs =
    time (fun () -> for src = 0 to 199 do ignore (Bfs.distances g src) done)
  in
  let full_bfs = full_bfs /. 200. in
  let worst_per_round =
    List.fold_left (fun acc (a, t) -> max acc (t /. a)) 0. !points
  in
  row "  log-log slope of time vs (alpha+1): %.2f" slope;
  row "  max per-round cost %.2f us vs one full O(m+n) BFS %.2f us (paper:"
    (worst_per_round *. 1e6) (full_bfs *. 1e6);
  note "each of the alpha+1 rounds costs at most one BFS - Theorem 4)"

(* ------------------------------------------------------------------ *)
(* E2 (Theorems 5+8): validity and size of Algorithm 3                  *)

let e2 () =
  banner "E2 (Theorems 5, 8) - Algorithm 3: valid f-FT (2k-1)-spanner, size shape";
  let rng = Rng.create ~seed in
  subhead "size scaling on complete graphs (worst-case family), k=2, f=2";
  row "  %6s %8s %10s %14s %10s" "n" "m" "|H|" "bound k*f^.5*n^1.5" "ratio";
  let ratios = ref [] and points = ref [] in
  List.iter
    (fun n ->
      let g = Generators.complete n in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
      let bound = Bounds.poly_greedy_size ~k:2 ~f:2 ~n in
      let ratio = float_of_int sel.Selection.size /. bound in
      ratios := ratio :: !ratios;
      points := (float_of_int n, float_of_int sel.Selection.size) :: !points;
      row "  %6d %8d %10d %14.0f %10.3f" n (Graph.m g) sel.Selection.size bound ratio)
    [ 40; 60; 90; 130; 180 ];
  row "  log-log slope of |H| vs n: %.2f (paper bound: <= 1 + 1/k = 1.50)"
    (Bounds.log_log_slope !points);
  subhead "size across f on G(n=250, p=0.25), k=2 (shape: f^{1-1/k} = f^0.5)";
  row "  %6s %10s %14s %10s" "f" "|H|" "bound" "ratio";
  let fpoints = ref [] in
  List.iter
    (fun f ->
      let g = Generators.connected_gnp rng ~n:250 ~p:0.25 in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g in
      let bound = Bounds.poly_greedy_size ~k:2 ~f ~n:250 in
      fpoints := (float_of_int f, float_of_int sel.Selection.size) :: !fpoints;
      row "  %6d %10d %14.0f %10.3f" f sel.Selection.size bound
        (float_of_int sel.Selection.size /. bound))
    [ 1; 2; 4; 8 ];
  row "  log-log slope of |H| vs f: %.2f (paper bound: <= 1 - 1/k = 0.50; graphs"
    (Bounds.log_log_slope !fpoints);
  note "this sparse saturate early, so measured slope is below the bound)";
  subhead "validity spot checks (adversarial + uniform fault sampling)";
  List.iter
    (fun (label, mode, k, f, g) ->
      let sel = Poly_greedy.build ~mode ~k ~f g in
      let ok = verify_sampled rng sel ~mode ~k ~f in
      row "  %-34s |H| = %5d  %s" label sel.Selection.size (verdict ok))
    [
      ("gnp n=200 k=2 f=2 VFT", Fault.VFT, 2, 2, Generators.connected_gnp rng ~n:200 ~p:0.15);
      ("gnp n=200 k=2 f=2 EFT", Fault.EFT, 2, 2, Generators.connected_gnp rng ~n:200 ~p:0.15);
      ("gnp n=150 k=3 f=3 VFT", Fault.VFT, 3, 3, Generators.connected_gnp rng ~n:150 ~p:0.2);
      ("grid 14x14  k=2 f=2 VFT", Fault.VFT, 2, 2, Generators.grid ~rows:14 ~cols:14);
      ("hypercube d=7 k=2 f=4 VFT", Fault.VFT, 2, 4, Generators.hypercube ~dim:7);
    ]

(* ------------------------------------------------------------------ *)
(* E3 (Theorem 9): running time scaling                                 *)

let e3 () =
  banner "E3 (Theorem 9) - Algorithm 3 running time: O(m k f^{2-1/k} n^{1+1/k})";
  let rng = Rng.create ~seed in
  subhead "wall-clock vs n (G(n, p=0.15), k=2, f=2)";
  row "  %6s %8s %10s %12s" "n" "m" "time" "time/bound";
  let points = ref [] in
  List.iter
    (fun n ->
      let g = Generators.connected_gnp rng ~n ~p:0.15 in
      let _, dt = time (fun () -> Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g) in
      let bound = Bounds.poly_greedy_time ~k:2 ~f:2 ~n ~m:(Graph.m g) in
      points := (float_of_int n, dt) :: !points;
      row "  %6d %8d %8.3f s %12.3g" n (Graph.m g) dt (dt /. bound))
    [ 100; 160; 250; 400 ];
  row "  log-log slope of time vs n: %.2f (bound slope with m ~ n^2: 3.5; BFS"
    (Bounds.log_log_slope !points);
  note "balls are much smaller than |E(H)| on these inputs, so measured < bound)";
  subhead "wall-clock vs f (G(n=220, p=0.15), k=2)";
  row "  %6s %10s %12s" "f" "time" "bfs rounds";
  let fpoints = ref [] in
  List.iter
    (fun f ->
      let g = Generators.connected_gnp rng ~n:220 ~p:0.15 in
      let (_, trace), dt =
        time (fun () -> Poly_greedy.build_traced ~mode:Fault.VFT ~k:2 ~f g)
      in
      fpoints := (float_of_int f, dt) :: !fpoints;
      row "  %6d %8.3f s %12d" f dt trace.Poly_greedy.bfs_rounds)
    [ 1; 2; 4; 8; 16 ];
  row "  log-log slope of time vs f: %.2f (paper bound: <= 2 - 1/k = 1.50)"
    (Bounds.log_log_slope !fpoints)

(* ------------------------------------------------------------------ *)
(* E4 (Theorem 2 vs BDPW18/BP19): poly vs exponential greedy            *)

let e4 () =
  banner "E4 (Theorem 2) - polynomial greedy vs exponential greedy (Algorithm 1)";
  let rng = Rng.create ~seed in
  row "  %-22s %8s %8s %10s %10s %10s" "instance" "|H|poly" "|H|exp" "size ratio"
    "t_poly" "t_exp";
  let totals = ref (0, 0) in
  List.iter
    (fun (label, k, f, g) ->
      let poly, t_poly =
        time (fun () -> Poly_greedy.build ~mode:Fault.VFT ~k ~f g)
      in
      let expo, t_exp = time (fun () -> Exp_greedy.build ~mode:Fault.VFT ~k ~f g) in
      let a, b = !totals in
      totals := (a + poly.Selection.size, b + expo.Selection.size);
      row "  %-22s %8d %8d %10.2f %8.3f s %8.3f s" label poly.Selection.size
        expo.Selection.size
        (float_of_int poly.Selection.size /. float_of_int (max 1 expo.Selection.size))
        t_poly t_exp)
    [
      ("K16 k=2 f=1", 2, 1, Generators.complete 16);
      ("K24 k=2 f=1", 2, 1, Generators.complete 24);
      ("K24 k=2 f=2", 2, 2, Generators.complete 24);
      ("K32 k=2 f=2", 2, 2, Generators.complete 32);
      ("gnp n=40 p=.3 k=2 f=1", 2, 1, Generators.connected_gnp rng ~n:40 ~p:0.3);
      ("gnp n=40 p=.3 k=2 f=2", 2, 2, Generators.connected_gnp rng ~n:40 ~p:0.3);
      ("gnp n=32 p=.4 k=3 f=1", 3, 1, Generators.connected_gnp rng ~n:32 ~p:0.4);
    ];
  let p, e = !totals in
  row "  aggregate size ratio poly/exp: %.2f (paper: within O(k) of optimal; k=2..3)"
    (float_of_int p /. float_of_int e);
  subhead "time blowup of the literal BDPW18/BP19 decision (enumerate all fault sets)";
  row "  %6s %12s %12s %12s" "f" "t_naive" "t_branch" "t_poly";
  let rng2 = Rng.create ~seed:(seed + 1) in
  let g = Generators.connected_gnp rng2 ~n:26 ~p:0.35 in
  List.iter
    (fun f ->
      let _, t_naive = time (fun () -> Exp_greedy.build_naive ~mode:Fault.VFT ~k:2 ~f g) in
      let _, t_branch = time (fun () -> Exp_greedy.build ~mode:Fault.VFT ~k:2 ~f g) in
      let _, t_poly = time (fun () -> Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g) in
      row "  %6d %10.3f s %10.3f s %10.3f s" f t_naive t_branch t_poly)
    [ 0; 1; 2; 3 ];
  note "the naive time grows ~n^f per edge (the paper's 'try all sets'),";
  note "while Algorithm 3 stays polynomial - the headline of Theorem 2."

(* ------------------------------------------------------------------ *)
(* E5 (Theorem 10): weighted graphs                                     *)

let e5 () =
  banner "E5 (Theorem 10) - Algorithm 4 on weighted graphs";
  let rng = Rng.create ~seed in
  row "  %-38s %8s %8s %10s %6s" "instance" "m" "|H|" "max str." "check";
  List.iter
    (fun (label, mode, k, f, g) ->
      let sel = Poly_greedy.build ~mode ~k ~f g in
      let worst = ref 1.0 in
      for _ = 1 to 10 do
        let fault = Fault.random rng mode g ~f in
        let s = Verify.max_stretch_under_fault sel fault in
        if s > !worst then worst := s
      done;
      let ok = verify_sampled rng sel ~mode ~k ~f in
      row "  %-38s %8d %8d %10.2f %6s" label (Graph.m g) sel.Selection.size !worst
        (verdict (ok && !worst <= stretch k +. 1e-6)))
    [
      ( "geometric n=300 r=.12 (euclidean w)",
        Fault.VFT, 2, 2,
        Generators.ensure_connected rng
          (Generators.random_geometric rng ~n:300 ~radius:0.12 ~euclidean_weights:true) );
      ( "gnp n=200 p=.15, w~U[0.5,5]",
        Fault.VFT, 2, 2,
        Generators.with_uniform_weights rng
          (Generators.connected_gnp rng ~n:200 ~p:0.15)
          ~lo:0.5 ~hi:5. );
      ( "gnp n=150 p=.2, w~U[1,100] EFT",
        Fault.EFT, 2, 2,
        Generators.with_uniform_weights rng
          (Generators.connected_gnp rng ~n:150 ~p:0.2)
          ~lo:1. ~hi:100. );
      ( "gnp n=150 p=.2, w~U[1,10] k=3",
        Fault.VFT, 3, 2,
        Generators.with_uniform_weights rng
          (Generators.connected_gnp rng ~n:150 ~p:0.2)
          ~lo:1. ~hi:10. );
    ];
  subhead "ablation: same weighted graph, weight order vs violating orders";
  let g =
    Generators.with_uniform_weights rng
      (Generators.connected_gnp rng ~n:80 ~p:0.25)
      ~lo:0.5 ~hi:8.
  in
  List.iter
    (fun (label, order) ->
      let sel = Poly_greedy.build ~order ~mode:Fault.VFT ~k:2 ~f:1 g in
      let worst = ref 1.0 in
      for _ = 1 to 30 do
        let fault = Fault.random rng Fault.VFT g ~f:1 in
        let s = Verify.max_stretch_under_fault sel fault in
        if s > !worst then worst := s
      done;
      row "  %-24s |H| = %5d  max sampled stretch = %6.2f (allowed %.0f)" label
        sel.Selection.size !worst (stretch 2))
    [
      ("nondecreasing (Alg 4)", Poly_greedy.By_weight);
      ("input order", Poly_greedy.Input_order);
      ("reverse (worst case)", Poly_greedy.Reverse_weight);
    ];
  note "orders other than nondecreasing weight void Theorem 10's guarantee -";
  note "the stretch column shows whether the guarantee happened to survive."

(* ------------------------------------------------------------------ *)
(* E6 (Theorems 11+12): LOCAL model                                     *)

let e6 () =
  banner "E6 (Theorems 11, 12) - LOCAL: decomposition + cluster greedy";
  let rng = Rng.create ~seed in
  subhead "rounds and size vs n (G(n, avg deg ~8), k=2, f=1)";
  row "  %6s %8s %8s %8s %10s %12s %8s %6s" "n" "m" "rounds" "cover" "|H|"
    "bound" "ratio" "check";
  let round_points = ref [] in
  List.iter
    (fun n ->
      let g = Generators.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
      let res = Local_spanner.build rng ~mode:Fault.VFT ~k:2 ~f:1 g in
      let sel = res.Local_spanner.selection in
      let bound = Bounds.local_size ~k:2 ~f:1 ~n in
      let ok = verify_sampled ~trials:8 rng sel ~mode:Fault.VFT ~k:2 ~f:1 in
      round_points := (float_of_int n, float_of_int res.Local_spanner.total_rounds) :: !round_points;
      row "  %6d %8d %8d %7.1f%% %10d %12.0f %8.3f %6s" n (Graph.m g)
        res.Local_spanner.total_rounds
        (100. *. Shard_partition.coverage res.Local_spanner.decomposition)
        sel.Selection.size bound
        (float_of_int sel.Selection.size /. bound)
        (verdict ok))
    [ 64; 128; 256; 512 ];
  let slope = Bounds.log_log_slope !round_points in
  row "  rounds grow with slope %.2f in n on log-log axes (paper: O(log n) =>" slope;
  note "slope well below any polynomial; log n doubling 64->512 is x1.5)"

(* ------------------------------------------------------------------ *)
(* E7 (Theorems 13-15): CONGEST model                                   *)

let e7 () =
  banner "E7 (Theorems 13-15) - CONGEST: DK11 x Baswana-Sen with scheduling";
  let rng = Rng.create ~seed in
  row "  %6s %4s %6s %8s %8s %8s %8s %10s %12s %6s" "n" "f" "iters" "ph1 rds"
    "ph2 rds" "overlap" "|H|" "bound" "paper rds" "check";
  List.iter
    (fun (n, f) ->
      let g = Generators.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
      let res = Congest_ft.build rng ~c:0.35 ~mode:Fault.VFT ~k:2 ~f g in
      let sel = res.Congest_ft.selection in
      let bound = Bounds.congest_size ~k:2 ~f ~n in
      let paper_rounds = Bounds.congest_rounds ~k:2 ~f ~n in
      let ok = verify_sampled ~trials:8 rng sel ~mode:Fault.VFT ~k:2 ~f in
      row "  %6d %4d %6d %8d %8d %8d %8d %10.0f %12.0f %6s" n f
        res.Congest_ft.iterations res.Congest_ft.phase1_rounds
        res.Congest_ft.phase2_rounds res.Congest_ft.max_overlap
        sel.Selection.size bound paper_rounds (verdict ok))
    [ (64, 1); (64, 2); (128, 1); (128, 2); (128, 3); (256, 2) ];
  note "overlap is the max number of BS instances sharing one edge-round;";
  note "the paper bounds it by O(f log n) w.h.p. - compare with f*log2(n).";
  subhead "CONGEST Baswana-Sen alone (Theorem 14): rounds are O(k^2), data-free";
  row "  %6s %4s %8s %12s" "n" "k" "rounds" "violations";
  List.iter
    (fun (n, k) ->
      let g = Generators.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
      let res = Congest_bs.build rng ~k g in
      row "  %6d %4d %8d %12d" n k res.Congest_bs.rounds
        res.Congest_bs.stats.Net.congest_violations)
    [ (128, 2); (128, 3); (128, 4); (512, 3) ]

(* ------------------------------------------------------------------ *)
(* E8: DK11 vs polynomial greedy across f                               *)

let e8 () =
  banner "E8 - centralized DK11 (f^{2-1/k}) vs polynomial greedy (k f^{1-1/k})";
  let rng = Rng.create ~seed in
  row "  %4s %8s %10s %10s %10s %12s %14s" "f" "m" "|H| dk-bs" "|H| dk-tz"
    "|H| greedy" "measured" "paper ratio ~f/k";
  let tz_algo rng sub = Thorup_zwick.build rng ~k:2 sub in
  List.iter
    (fun f ->
      let g = Generators.connected_gnp rng ~n:220 ~p:0.2 in
      let dk = Dk11.build rng ~mode:Fault.VFT ~k:2 ~f g in
      let dk_tz = Dk11.build rng ~mode:Fault.VFT ~k:2 ~f ~algo:tz_algo g in
      let gr = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g in
      row "  %4d %8d %10d %10d %10d %12.2f %14.2f" f (Graph.m g)
        dk.Selection.size dk_tz.Selection.size gr.Selection.size
        (float_of_int dk.Selection.size /. float_of_int gr.Selection.size)
        (float_of_int f *. log (float_of_int 220) /. 2.))
    [ 1; 2; 3; 4; 6 ];
  note "who wins: the greedy, at every f - by 2.4x to 4.7x here.  At this";
  note "scale DK11's bound exceeds m and its union saturates at the WHOLE";
  note "graph (|H| = m for both plug-in spanners - the reduction, not the";
  note "plug-in, is the bottleneck), while the greedy keeps a real margin.";
  note "The bound-level gap (Theorem 13 vs Theorem 2) is ~(f/k) log n."

(* ------------------------------------------------------------------ *)
(* E9: EFT vs VFT                                                       *)

let e9 () =
  banner "E9 - edge faults vs vertex faults (Section 6 open problem, empirically)";
  let rng = Rng.create ~seed in
  row "  %-26s %3s %3s %10s %10s %10s" "graph" "k" "f" "|H| VFT" "|H| EFT" "EFT/VFT";
  List.iter
    (fun (label, k, f, g) ->
      let v = Poly_greedy.build ~mode:Fault.VFT ~k ~f g in
      let e = Poly_greedy.build ~mode:Fault.EFT ~k ~f g in
      row "  %-26s %3d %3d %10d %10d %10.3f" label k f v.Selection.size
        e.Selection.size
        (float_of_int e.Selection.size /. float_of_int v.Selection.size))
    [
      ("gnp n=200 p=.15", 2, 1, Generators.connected_gnp rng ~n:200 ~p:0.15);
      ("gnp n=200 p=.15", 2, 2, Generators.connected_gnp rng ~n:200 ~p:0.15);
      ("gnp n=200 p=.15", 2, 4, Generators.connected_gnp rng ~n:200 ~p:0.15);
      ("gnp n=200 p=.12", 3, 2, Generators.connected_gnp rng ~n:200 ~p:0.12);
      ("gnp n=200 p=.12", 3, 4, Generators.connected_gnp rng ~n:200 ~p:0.12);
      ("K100", 2, 2, Generators.complete 100);
      ("hypercube d=7", 3, 2, Generators.hypercube ~dim:7);
      ("barabasi-albert n=200", 3, 2, Generators.barabasi_albert rng ~n:200 ~attach:4);
    ];
  note "at k=2 the two modes coincide on these inputs: a 2-hop detour has a";
  note "single interior vertex, so vertex cuts and edge cuts collapse.  From";
  note "k=3 on, detours share vertices without sharing edges and EFT spanners";
  note "come out (slightly) sparser - consistent with the weaker EFT lower";
  note "bound (f^{(1-1/k)/2}) the paper's Section 6 highlights as open."

(* ------------------------------------------------------------------ *)
(* E10: ordering ablation (Theorem 8 holds for any order)               *)

let e10 () =
  banner "E10 - edge-ordering ablation on unit weights (Theorem 8: any order works)";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:180 ~p:0.2 in
  let build order = (Poly_greedy.build ~order ~mode:Fault.VFT ~k:2 ~f:2 g).Selection.size in
  let shuffles =
    List.map (fun s -> build (Poly_greedy.Shuffled (Rng.create ~seed:s))) [ 1; 2; 3; 4; 5 ]
  in
  row "  input order       : %d edges" (build Poly_greedy.Input_order);
  row "  by weight         : %d edges" (build Poly_greedy.By_weight);
  row "  reverse weight    : %d edges" (build Poly_greedy.Reverse_weight);
  row "  5 random shuffles : min %d / mean %.0f / max %d edges"
    (List.fold_left min max_int shuffles)
    (mean (List.map float_of_int shuffles))
    (List.fold_left max 0 shuffles);
  let bound = Bounds.poly_greedy_size ~k:2 ~f:2 ~n:180 in
  note "Theorem 8 bound for all orders: %.0f edges; spread across orders is" bound;
  note "small, confirming the order-free size analysis."

(* ------------------------------------------------------------------ *)
(* E11: the analysis machinery (Lemmas 6-7) + how far from minimal      *)

let e11 () =
  banner "E11 (Lemmas 6, 7) - blocking sets, the girth subsample, and minimality";
  subhead "Lemma 6: certificates assemble into a (2k)-blocking set";
  row "  %-22s %8s %10s %12s %10s" "instance" "|H|" "|B|" "Lemma6 bound" "blocking?";
  let lemma7_inputs = ref [] in
  List.iter
    (fun (label, k, f, g) ->
      let sel, certs = Poly_greedy.build_with_certificates ~mode:Fault.VFT ~k ~f g in
      let b = Blocking.of_certificates sel certs in
      let status =
        match Blocking.is_blocking b ~t_bound:(2 * k) with
        | Ok None -> "yes"
        | Ok (Some _) -> "NO"
        | Error _ -> "(cycle limit)"
      in
      if k = 2 then lemma7_inputs := (label, f, b) :: !lemma7_inputs;
      row "  %-22s %8d %10d %12d %10s" label sel.Selection.size (Blocking.size b)
        (Blocking.lemma6_bound ~k ~f ~spanner_size:sel.Selection.size)
        status)
    [
      ("gnp n=60 k=2 f=1", 2, 1, Generators.connected_gnp (Rng.create ~seed) ~n:60 ~p:0.25);
      ("gnp n=60 k=2 f=2", 2, 2, Generators.connected_gnp (Rng.create ~seed) ~n:60 ~p:0.25);
      ("gnp n=40 k=3 f=1", 3, 1, Generators.connected_gnp (Rng.create ~seed) ~n:40 ~p:0.3);
      ("K40  k=2 f=2", 2, 2, Generators.complete 40);
    ];
  subhead "Lemma 7: random subsample minus blocked edges has girth > 2k (deterministic)";
  row "  %-22s %4s %10s %12s %14s %10s" "instance" "f" "nodes" "edges" "lemma E[edges]" "girth>2k";
  let rng = Rng.create ~seed in
  List.iter
    (fun (label, f, b) ->
      let s = Blocking.lemma7_subsample rng b ~k:2 ~f in
      row "  %-22s %4d %10d %12d %14.1f %10s" label f s.Blocking.sampled_nodes
        s.Blocking.surviving_edges s.Blocking.expected_edges
        (if s.Blocking.girth_exceeds_2k then "yes" else "NO"))
    (List.rev !lemma7_inputs);
  subhead "minimality: sound exact pruning of the greedy output (k=2, f=1)";
  row "  %-22s %10s %10s %12s" "instance" "|H| greedy" "|H| pruned" "slack";
  List.iter
    (fun (label, g) ->
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
      let res = Prune.minimalize ~mode:Fault.VFT ~k:2 ~f:1 sel in
      row "  %-22s %10d %10d %11.1f%%" label sel.Selection.size
        res.Prune.pruned.Selection.size
        (100. *. float_of_int res.Prune.removed /. float_of_int (max 1 sel.Selection.size)))
    [
      ("gnp n=40 p=.3", Generators.connected_gnp (Rng.create ~seed) ~n:40 ~p:0.3);
      ("gnp n=50 p=.2", Generators.connected_gnp (Rng.create ~seed) ~n:50 ~p:0.2);
      ("K24", Generators.complete 24);
      ("hypercube d=5", Generators.hypercube ~dim:5);
    ];
  note "small slack = Algorithm 2's k-approximation loses little in practice,";
  note "matching E4's finding that the size ratio to Algorithm 1 is ~1."

(* ------------------------------------------------------------------ *)
(* E12: batched greedy - the conclusion's parallelization question      *)

let e12 () =
  banner "E12 (Conclusion) - batched greedy: size cost of parallel decisions";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:150 ~p:0.2 in
  let m = Graph.m g in
  row "  graph: gnp n=150 p=.2 (m=%d), k=2 f=1, VFT" m;
  row "  %10s %8s %10s %12s" "batch" "rounds" "|H|" "vs batch=1";
  let base = ref 0 in
  List.iter
    (fun batch ->
      let res = Batch_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 ~batch g in
      let size = res.Batch_greedy.selection.Selection.size in
      if batch = 1 then base := size;
      row "  %10d %8d %10d %12.2f" batch res.Batch_greedy.batches size
        (float_of_int size /. float_of_int (max 1 !base)))
    [ 1; 4; 16; 64; 256; m ];
  note "batch=1 is Algorithm 3; batch=m decides every edge against the";
  note "empty spanner and keeps the whole graph.  The curve quantifies the";
  note "conclusion's remark that the greedy resists parallelization: each";
  note "x4 of parallelism costs a modest, then catastrophic, size factor.";
  subhead "multicore decision phase (OCaml domains, batch=512)";
  let cores = Domain.recommended_domain_count () in
  row "  this machine exposes %d core(s) (Domain.recommended_domain_count)" cores;
  row "  %10s %10s %10s" "domains" "time" "speedup";
  let g2 = Generators.connected_gnp rng ~n:300 ~p:0.2 in
  let base_time = ref 0. in
  List.iter
    (fun domains ->
      let _, dt =
        time (fun () ->
            Exec.Pool.with_pool ~domains (fun pool ->
                Batch_greedy.build ~pool ~mode:Fault.VFT ~k:2 ~f:2 ~batch:512
                  g2))
      in
      if domains = 1 then base_time := dt;
      row "  %10d %8.3f s %10.2f" domains dt (!base_time /. dt))
    [ 1; 2; 4 ];
  note "the decision phase shares no mutable state across calls, so extra";
  note "domains give real speedup exactly when the machine has extra cores;";
  note "on a single-core container the table shows pure scheduling overhead.";
  note "Output is identical at every domain count (checked by the tests)."

(* ------------------------------------------------------------------ *)
(* E13: streaming arrivals (order-free Theorem 8 put to work online)    *)

let e13 () =
  banner "E13 - incremental arrivals: the online greedy (unit weights)";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:200 ~p:0.15 in
  let m = Graph.m g in
  row "  graph: gnp n=200 p=.15 (m=%d), k=2 f=2, VFT; sizes after each quarter" m;
  row "  %-18s %8s %8s %8s %8s %10s" "arrival order" "25%" "50%" "75%" "100%"
    "vs offline";
  let offline =
    (Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g).Selection.size
  in
  let stream label order_edges =
    let d =
      Dynamic.create
        ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:2 ())
        (Graph.create 200)
    in
    let marks = ref [] in
    Array.iteri
      (fun i e ->
        ignore
          (Dynamic.apply d
             [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = e.Graph.w } ]);
        if (i + 1) mod (m / 4) = 0 then marks := Dynamic.size d :: !marks)
      order_edges;
    let marks = List.rev !marks in
    let final = Dynamic.size d in
    row "  %-18s %8d %8d %8d %8d %10.2f" label (List.nth marks 0)
      (List.nth marks 1) (List.nth marks 2) final
      (float_of_int final /. float_of_int offline)
  in
  let sorted = Graph.edge_array g in
  stream "insertion order" sorted;
  let shuffled = Graph.edge_array g in
  Rng.shuffle rng shuffled;
  stream "random order" shuffled;
  (* adversarial-ish: highest-degree endpoints first *)
  let busy = Graph.edge_array g in
  let deg e = Graph.degree g e.Graph.u + Graph.degree g e.Graph.v in
  Array.sort (fun a b -> compare (deg b) (deg a)) busy;
  stream "hubs first" busy;
  note "offline (sorted) size: %d.  Theorem 8's order-free bound predicts" offline;
  note "every arrival order lands within the same O(k f^{1-1/k} n^{1+1/k});";
  note "measured spread across orders is a few percent."

(* ------------------------------------------------------------------ *)
(* E14: synchronizers over spanner skeletons (the PU89 application)     *)

let e14 () =
  banner "E14 (application) - alpha synchronizer over spanner skeletons";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:120 ~p:0.08 in
  let bfs_tree =
    let dist = Bfs.distances g 0 in
    let ids = ref [] in
    for v = 1 to Graph.n g - 1 do
      let best = ref (-1) in
      Graph.iter_neighbors g v (fun y id ->
          if dist.(y) = dist.(v) - 1 && !best < 0 then best := id);
      if !best >= 0 then ids := !best :: !ids
    done;
    Selection.of_ids g !ids
  in
  let skeletons =
    [
      ("all edges", Selection.full g);
      ("BFS tree", bfs_tree);
      ("3-spanner f=0", Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:0 g);
      ("FT spanner f=2", Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g);
    ]
  in
  let by_degree = Array.init (Graph.n g) (fun v -> (Graph.degree g v, v)) in
  Array.sort (fun a b -> compare b a) by_degree;
  let victims = [ snd by_degree.(0); snd by_degree.(1) ] in
  List.iter
    (fun (scenario, failures) ->
      subhead scenario;
      row "  %-20s %8s %10s %8s %8s %10s" "skeleton" "edges" "messages" "pulses"
        "skew" "connected";
      List.iter
        (fun (name, skel) ->
          let rep =
            Synchronizer.run (Rng.create ~seed:5) ?failures ~pulses:10
              ~skeleton:skel g
          in
          row "  %-20s %8d %10d %8d %8.2f %10b" name
            rep.Synchronizer.skeleton_edges rep.Synchronizer.messages
            rep.Synchronizer.pulses rep.Synchronizer.max_skew
            rep.Synchronizer.survivors_connected)
        skeletons)
    [
      ("fault-free", None);
      ("two busiest nodes crash at t=2.5", Some (2.5, victims));
    ];
  note "messages scale with skeleton size, skew with skeleton stretch, and";
  note "under crashes only the fault-tolerant skeleton keeps both guarantees";
  note "- the Peleg-Ullman synchronizer story, with fault tolerance added."

(* ------------------------------------------------------------------ *)
(* E15: the BDPW18 lower-bound family - exact optimality of the greedy  *)

let e15 () =
  banner "E15 (BDPW18 lower bound) - hard instances force every edge";
  row "  %-30s %4s %8s %8s %10s %12s" "instance" "f" "n" "m" "|H| greedy"
    "forced = m?";
  List.iter
    (fun (q, f) ->
      let base = Lower_bound.projective_plane_incidence ~q in
      let g = Lower_bound.hard_instance ~f base in
      let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f g in
      row "  PG(2,%d) x%d blow-up %12s %4d %8d %8d %10d %12s" q
        (Lower_bound.copies_for ~f) "" f (Graph.n g) (Graph.m g)
        sel.Selection.size
        (if sel.Selection.size = Graph.m g then "yes" else "NO"))
    [ (2, 0); (2, 2); (2, 4); (3, 2); (3, 4); (5, 2) ];
  note "girth-6 incidence graphs blown up by floor(f/2)+1 admit no sparser";
  note "f-VFT 3-spanner than the whole graph, Theta(f^{1/2} n^{3/2}) edges;";
  note "the greedy keeps exactly that - it is optimal on the extremal";
  note "family, with zero slack.  (Contrast with E2, where random inputs";
  note "sit far below the worst case.)"

(* ------------------------------------------------------------------ *)
(* E16: scalability - the polynomial algorithm at adoption-relevant n    *)

let e16 () =
  banner "E16 - scalability of Algorithm 3 (sparse graphs, avg degree 10)";
  let rng = Rng.create ~seed in
  row "  %8s %10s %10s %10s %12s %10s" "n" "m" "|H|" "time" "edges/sec" "heap MW";
  List.iter
    (fun n ->
      let g = Generators.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
      Gc.compact ();
      let sel, dt = time (fun () -> Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g) in
      let stat = Gc.quick_stat () in
      row "  %8d %10d %10d %8.2f s %12.0f %10.1f" n (Graph.m g)
        sel.Selection.size dt
        (float_of_int (Graph.m g) /. dt)
        (float_of_int stat.Gc.top_heap_words /. 1e6))
    [ 1_000; 2_000; 4_000; 8_000 ];
  subhead "denser inputs (avg degree 40): real sparsification at scale";
  row "  %8s %10s %10s %10s %10s" "n" "m" "|H|" "kept" "time";
  List.iter
    (fun n ->
      let g = Generators.connected_gnp rng ~n ~p:(40. /. float_of_int n) in
      let sel, dt = time (fun () -> Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g) in
      row "  %8d %10d %10d %9.1f%% %8.2f s" n (Graph.m g) sel.Selection.size
        (100. *. float_of_int sel.Selection.size /. float_of_int (Graph.m g))
        dt)
    [ 1_000; 2_000 ];
  subhead "validation at n=2000 (8 sampled fault sets)";
  let g = Generators.connected_gnp rng ~n:2000 ~p:0.005 in
  let sel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:2 g in
  let ok = verify_sampled ~trials:4 rng sel ~mode:Fault.VFT ~k:2 ~f:2 in
  row "  n=2000 m=%d |H|=%d: %s" (Graph.m g) sel.Selection.size (verdict ok);
  subhead "storage tier: 10^6-edge graphs - int vs int32 backend + binary IO";
  row "  %9s %11s %11s %9s %9s %9s %9s" "m" "int B" "int32 B" "bfs int"
    "bfs i32" "load txt" "load bin";
  List.iter
    (fun m ->
      let n = m / 4 in
      let g = Generators.gnm rng ~n ~m in
      (* The binary load is the int32 copy: that layout comes only from
         a mapped .ftsb file. *)
      with_temp ".graph" @@ fun text_file ->
      with_temp ".ftsb" @@ fun bin_file ->
      Graph_io.save g text_file;
      Graph_io.save g bin_file;
      let _, t_text = time (fun () -> Graph_io.load text_file) in
      let g32, t_bin = time (fun () -> Graph_io.load bin_file) in
      let sweep gr () =
        let acc = ref 0 in
        for s = 0 to 9 do
          let d = Bfs.distances gr (s * (n / 10)) in
          acc := !acc + Array.fold_left ( + ) 0 d
        done;
        !acc
      in
      let sum_int, bfs_int = time (sweep g) in
      let sum_i32, bfs_i32 = time (sweep g32) in
      assert (sum_int = sum_i32);
      row "  %9d %11d %11d %7.2f s %7.2f s %7.2f s %7.2f s" m
        (Graph.resident_bytes g)
        (Graph.resident_bytes g32)
        bfs_int bfs_i32 t_text t_bin)
    [ 1_000_000; 2_000_000 ];
  note "the int32 Bigarray backend halves the packed-adjacency bytes and the";
  note "ftspan.graph.v1 binary format loads it near-zero-copy (Unix.map_file);";
  note "the same tier extends to 10^7 edges via ftspan generate -o g.ftsb.";
  note "throughput stays in the ~100k edges/second range across the sweep;";
  note "a commodity core handles 10^4-vertex networks in seconds, which is";
  note "the practical payoff of replacing the exponential-time greedy."

(* ------------------------------------------------------------------ *)
(* E17: reliability of the randomized constructions over many seeds     *)

let e17 () =
  banner "E17 - 'w.h.p.' made concrete: failure rates over 30 seeds";
  let seeds = List.init 30 (fun i -> 1000 + i) in
  subhead "DK11 (Theorem 13): adversarial verification pass rate vs constant c";
  row "  %6s %8s %12s %14s" "c" "iters" "pass rate" "(n=60, f=2, k=2)";
  List.iter
    (fun c ->
      let passes = ref 0 in
      List.iter
        (fun s ->
          let r = Rng.create ~seed:s in
          let g = Generators.connected_gnp r ~n:60 ~p:0.2 in
          let sel = Dk11.build r ~mode:Fault.VFT ~k:2 ~f:2 ~c g in
          if
            Verify.ok
              (Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:20 ()) sel ~mode:Fault.VFT ~stretch:3.0
                 ~f:2)
          then incr passes)
        seeds;
      row "  %6.2f %8d %10d/30 %14s" c
        (Dk11.iterations ~c ~f:2 ~n:60 ())
        !passes "")
    [ 0.05; 0.15; 0.5; 1.0 ];
  note "the iteration formula ceil(c e (f+1)^3 ln n) with c = 1 leaves no";
  note "observed failures; starving it (c <= 0.15) makes the residual risk";
  note "measurable - the experiment DESIGN.md section 5 promises.";
  subhead "padded decomposition (Theorem 11.4): edge coverage over 30 seeds";
  let total_cov = ref 0. and min_cov = ref 1.0 and full = ref 0 in
  List.iter
    (fun s ->
      let r = Rng.create ~seed:s in
      let g = Generators.connected_gnp r ~n:100 ~p:0.08 in
      let d = Decomposition.run r g in
      let cov = Shard_partition.coverage d in
      total_cov := !total_cov +. cov;
      if cov < !min_cov then min_cov := cov;
      if cov >= 1.0 then incr full)
    seeds;
  row "  mean coverage %.4f, min %.4f, fully padded %d/30 (paper: w.h.p. all)"
    (!total_cov /. 30.) !min_cov !full;
  subhead "CONGEST FT spanner (Theorem 15): validity over 30 seeds (n=48, f=2)";
  let passes = ref 0 in
  List.iter
    (fun s ->
      let r = Rng.create ~seed:s in
      let g = Generators.connected_gnp r ~n:48 ~p:0.2 in
      let res = Congest_ft.build r ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:2 g in
      if
        Verify.ok
          (Verify.adversarial ~cfg:(Verify.config ~rng:r ~trials:15 ()) res.Congest_ft.selection ~mode:Fault.VFT
             ~stretch:3.0 ~f:2)
      then incr passes)
    seeds;
  row "  pass rate %d/30 at c = 0.5" !passes

(* ------------------------------------------------------------------ *)
(* Smoke subset: seconds-scale runs of the three core pipelines          *)
(* (centralized LBC, the greedy, the distributed constructions), meant   *)
(* for CI (@bench-smoke alias) and cheap metrics-trajectory snapshots.   *)

let smoke_lbc () =
  banner "smoke-lbc - LBC(t, alpha) decisions on G(200, 0.08)";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:200 ~p:0.08 in
  let ws = Lbc.Workspace.create () in
  let yes = ref 0 and total = ref 0 in
  for _ = 1 to 400 do
    let u = Rng.int rng 200 and v = Rng.int rng 200 in
    if u <> v then begin
      incr total;
      match Lbc.decide ~ws ~mode:Fault.VFT g ~u ~v ~t:3 ~alpha:2 with
      | Lbc.Yes _ -> incr yes
      | Lbc.No _ -> ()
    end
  done;
  row "  %d/%d decisions answered YES (t=3, alpha=2)" !yes !total

let smoke_greedy () =
  banner "smoke-greedy - Algorithm 3 on G(150, 0.1), k=2 f=2";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:150 ~p:0.1 in
  let sel, trace = Poly_greedy.build_traced ~mode:Fault.VFT ~k:2 ~f:2 g in
  let ok = verify_sampled ~trials:4 rng sel ~mode:Fault.VFT ~k:2 ~f:2 in
  row "  |H| = %d/%d edges, %d LBC calls, %d BFS rounds, %s" sel.Selection.size
    (Graph.m g) trace.Poly_greedy.lbc_calls trace.Poly_greedy.bfs_rounds
    (verdict ok)

let smoke_distributed () =
  banner "smoke-distributed - LOCAL (n=64) and CONGEST (n=48) constructions";
  let rng = Rng.create ~seed in
  let g1 = Generators.connected_gnp rng ~n:64 ~p:(8. /. 64.) in
  let res = Local_spanner.build rng ~mode:Fault.VFT ~k:2 ~f:1 g1 in
  row "  LOCAL:   %4d rounds, |H| = %d/%d" res.Local_spanner.total_rounds
    res.Local_spanner.selection.Selection.size (Graph.m g1);
  let g2 = Generators.connected_gnp rng ~n:48 ~p:0.2 in
  let res2 = Congest_ft.build rng ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:1 g2 in
  row "  CONGEST: %4d rounds, |H| = %d/%d" res2.Congest_ft.total_rounds
    res2.Congest_ft.selection.Selection.size (Graph.m g2)

let smoke_synchronizer_lossy () =
  banner
    "synchronizer-lossy - alpha synchronizer over a lossy network \
     (drop=0.15, dup=0.05, reliable delivery)";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:48 ~p:0.15 in
  let skel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let clean =
    Synchronizer.run (Rng.create ~seed:5) ~pulses:6 ~skeleton:skel g
  in
  let chaos = Chaos.plan ~drop:0.15 ~dup:0.05 ~seed:7 () in
  let lossy =
    Synchronizer.run (Rng.create ~seed:5) ~chaos ~pulses:6 ~skeleton:skel g
  in
  row "  clean: %4d messages, %d pulses" clean.Synchronizer.messages
    clean.Synchronizer.pulses;
  row "  lossy: %4d messages (%d retransmits), %d pulses, %s"
    lossy.Synchronizer.messages lossy.Synchronizer.retransmits
    lossy.Synchronizer.pulses
    (verdict (lossy.Synchronizer.pulses = clean.Synchronizer.pulses))

let congest_hotpath () =
  banner
    "congest-hotpath - per-edge physical congestion under a dup-heavy \
     chaos plan (n=32, 8 broadcast rounds)";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:32 ~p:0.2 in
  let skel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let flood chaos =
    let net =
      match chaos with
      | None -> Net.create ~model:Net.Local ~bits:(fun _ -> 16) g
      | Some ch -> Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 16) g
    in
    Net.set_skeleton net skel.Selection.selected;
    for _ = 1 to 8 do
      for v = 0 to Graph.n g - 1 do
        Net.broadcast net ~src:v v
      done;
      Net.next_round net
    done;
    net
  in
  let clean = flood None in
  let lossy = flood (Some (Chaos.start (Chaos.plan ~dup:0.25 ~seed:11 ()))) in
  let sc = Net.stats clean and sl = Net.stats lossy in
  row "  offered load: %d messages / %d bits, %s" sl.Net.messages
    sl.Net.total_bits
    (verdict
       (sc.Net.messages = sl.Net.messages
       && sc.Net.total_bits = sl.Net.total_bits));
  row "  physical hot slot: %d bits/round clean, %d bits/round with dup=0.25"
    sc.Net.max_edge_round_bits sl.Net.max_edge_round_bits;
  row "  spanner-edge bits %d vs other %d (skeleton %d/%d edges)"
    (Obs.Counter.value (Obs.counter "net.bits.spanner"))
    (Obs.Counter.value (Obs.counter "net.bits.other"))
    skel.Selection.size (Graph.m g);
  List.iter
    (fun he -> row "  hot: %s" (Format.asprintf "%a" Net.pp_hot_edge he))
    (Net.hot_edges ~top:5 lossy)

let greedy_parallel () =
  let jobs = Exec.default_jobs () in
  banner
    (Printf.sprintf
       "greedy-parallel - batched greedy on a persistent Exec pool (jobs=%d)"
       jobs);
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:150 ~p:0.1 in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  let res, dt =
    time (fun () ->
        Batch_greedy.build ~pool ~mode:Fault.VFT ~k:2 ~f:2 ~batch:512 g)
  in
  let sel = res.Batch_greedy.selection in
  let ok = verify_sampled ~trials:4 rng sel ~mode:Fault.VFT ~k:2 ~f:2 in
  row "  |H| = %d/%d edges in %d batches, %.3f s, %s" sel.Selection.size
    (Graph.m g) res.Batch_greedy.batches dt (verdict ok);
  row
    "  selection and lbc.*/batch_greedy.* counters are identical at every \
     jobs count; only wall time and the pool.* scheduling series move"

(* The shard gate of the decomposition-sharding PR: Theorem 11 run
   natively — padded partition, per-cluster greedy on the pool, union —
   must stay a valid spanner within the O(log n) size factor of the
   sequential build, with the cluster/boundary counters pinned by the
   baseline (they are seed-deterministic, unlike wall time). *)
let shard_build () =
  let jobs = Exec.default_jobs () in
  banner
    (Printf.sprintf
       "shard-build - decomposition-sharded greedy vs sequential on \
        G(200, 0.08) (jobs=%d)"
       jobs);
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:200 ~p:0.08 in
  let seq, seq_dt =
    time (fun () -> Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g)
  in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  let res, dt =
    time (fun () ->
        Shard_build.build ~rng:(Rng.create ~seed) ~pool ~mode:Fault.VFT ~k:2
          ~f:1 g)
  in
  let sel = res.Shard_build.selection in
  let ok = verify_sampled ~trials:4 rng sel ~mode:Fault.VFT ~k:2 ~f:1 in
  let inflation =
    float_of_int sel.Selection.size /. float_of_int seq.Selection.size
  in
  let log2n = log (float_of_int (Graph.n g)) /. log 2. in
  row "  sequential |H| = %d in %.3f s; sharded |H| = %d/%d in %.3f s"
    seq.Selection.size seq_dt sel.Selection.size (Graph.m g) dt;
  row "  %d clusters over %d partitions, %d boundary edges, coverage %.3f"
    res.Shard_build.clusters
    (Array.length res.Shard_build.partition.Shard_partition.partitions)
    res.Shard_build.boundary_edges
    (Shard_partition.coverage res.Shard_build.partition);
  row "  size inflation %.2fx (log2 n = %.1f), valid spanner: %s" inflation
    log2n
    (verdict (ok && inflation <= log2n));
  row
    "  selection and shard.* counters are identical at every jobs count; \
     only wall time and the pool.* scheduling series move"

(* The other half of the same gate: DK11's independent iterations as
   parallel_for work items over pre-split rng streams. *)
let dk11_parallel () =
  let jobs = Exec.default_jobs () in
  banner
    (Printf.sprintf
       "dk11-parallel - DK11 iterations fanned out over the pool on \
        G(120, 0.08) (jobs=%d)"
       jobs);
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:120 ~p:0.08 in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  let sel, dt =
    time (fun () ->
        Dk11.build (Rng.create ~seed) ~mode:Fault.VFT ~k:2 ~f:1 ~pool g)
  in
  let ok = verify_sampled ~trials:4 rng sel ~mode:Fault.VFT ~k:2 ~f:1 in
  row "  |H| = %d/%d edges over %d iterations in %.3f s, %s"
    sel.Selection.size (Graph.m g)
    (Dk11.iterations ~f:1 ~n:(Graph.n g) ())
    dt (verdict ok);
  row
    "  iterations draw from streams pre-split before the fan-out, so the \
     selection is bit-identical at every jobs count"

let file_bytes file = (Unix.stat file).Unix.st_size

(* The io-load gate of the storage PR: a million-edge graph must survive
   text -> binary -> text bit-identically, and the near-zero-copy binary
   load must beat the text parse by >= 10x. *)
let io_load () =
  banner "io-load - ftspan.graph.v1 binary vs text parse on a 10^6-edge graph";
  let rng = Rng.create ~seed in
  let g, gen_dt = time (fun () -> Generators.gnm rng ~n:250_000 ~m:1_000_000) in
  row "  generated gnm n=%d m=%d in %.2f s" (Graph.n g) (Graph.m g) gen_dt;
  with_temp ".graph" @@ fun text_file ->
  with_temp ".ftsb" @@ fun bin_file ->
  let (), t_text_save = time (fun () -> Graph_io.save g text_file) in
  let (), t_bin_save = time (fun () -> Graph_io.save g bin_file) in
  (* Best of three per load: one GC major slice landing inside a 0.1 s
     load would swing the ratio by 2-3x, so take the min (the standard
     way to measure the code rather than the collector). *)
  let best_load file =
    let graph = ref None in
    let best = ref infinity in
    for _ = 1 to 3 do
      let gr, dt = time (fun () -> Graph_io.load file) in
      if dt < !best then best := dt;
      graph := Some gr
    done;
    (Option.get !graph, !best)
  in
  let gt, t_text_load = best_load text_file in
  let gb, t_bin_load = best_load bin_file in
  row "  text: save %5.2f s, load %5.2f s  (%9d bytes)" t_text_save t_text_load
    (file_bytes text_file);
  row "  ftsb: save %5.2f s, load %5.2f s  (%9d bytes, %s backend)" t_bin_save
    t_bin_load (file_bytes bin_file)
    (Csr.backend_name (Graph.backend gb));
  let speedup = t_text_load /. t_bin_load in
  (* Lossless means the canonical text of all three agrees: the original,
     the text-parsed copy, and the binary-loaded copy. *)
  let canon = Graph_io.to_string g in
  let lossless =
    canon = Graph_io.to_string gt && canon = Graph_io.to_string gb
  in
  let bfs_equal = Bfs.distances gt 0 = Bfs.distances gb 0 in
  row "  round trip lossless: %s   bfs identical: %s"
    (verdict lossless) (verdict bfs_equal);
  row "  binary load speedup: %.1fx over text parse, %s (>= 10x required)"
    speedup
    (verdict (speedup >= 10.))

(* Both storage backends must drive the BFS inner loop to identical
   layers; the entry runs the same sweep twice so the checked-in bfs.*
   counters pin the equality. *)
let bfs_hotpath_int32 () =
  banner "bfs-hotpath-int32 - BFS sweep: int vs int32 backends, identical layers";
  let rng = Rng.create ~seed in
  let n = 20_000 in
  let g = Generators.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
  let g32 =
    with_temp ".ftsb" @@ fun file ->
    Graph_io.save g file;
    Graph_io.load file
  in
  let sweep gr =
    let acc = ref 0 in
    for s = 0 to 49 do
      let d = Bfs.distances gr (s * (n / 50)) in
      acc := !acc + Array.fold_left ( + ) 0 d
    done;
    !acc
  in
  let sum_int, dt_int = time (fun () -> sweep g) in
  let sum_i32, dt_i32 = time (fun () -> sweep g32) in
  row "  %-6s backend: %8d adjacency bytes, 50-source sweep %.3f s" "int"
    (Graph.resident_bytes g) dt_int;
  row "  %-6s backend: %8d adjacency bytes, 50-source sweep %.3f s" "int32"
    (Graph.resident_bytes g32) dt_i32;
  row "  distance checksums %d vs %d: %s" sum_int sum_i32
    (verdict (sum_int = sum_i32 && Bfs.distances g 0 = Bfs.distances g32 0))

(* The dynamic-service gate of the service PR: update throughput on a
   sparse grid, and the repair-locality claim — after a deletion the
   repair walks the (2k-1)-hop neighborhood of the cut in the old
   spanner, so on a grid the touched-vertex count is a small constant
   region, not O(n).  The dynamic.* counters land in the checked-in
   baseline, pinning both the decision stream and the repair extent. *)
let dynamic_updates () =
  banner "dynamic-updates - arbitrary-order updates on a 30x30 grid (n=900)";
  let g = Generators.grid ~rows:30 ~cols:30 in
  let n = Graph.n g and m = Graph.m g in
  let d =
    Dynamic.create
      ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ())
      (Graph.create n)
  in
  let (), dt =
    time (fun () ->
        Graph.iter_edges g (fun e ->
            ignore
              (Dynamic.apply d
                 [ Dynamic.Insert { u = e.Graph.u; v = e.Graph.v; w = e.Graph.w } ])))
  in
  row "  %d inserts in %.3f s (%.0f inserts/s), spanner %d/%d" m dt
    (float_of_int m /. dt) (Dynamic.size d) m;
  let sel = Dynamic.snapshot d in
  let doomed = ref [] in
  List.iteri
    (fun i id ->
      if i mod 97 = 0 then
        doomed := Graph.endpoints sel.Selection.source id :: !doomed)
    (Selection.ids sel);
  let worst = ref 0 and total = ref 0 and dels = ref 0 in
  List.iter
    (fun (u, v) ->
      let s = Dynamic.apply d [ Dynamic.Delete_edge { u; v } ] in
      incr dels;
      total := !total + s.Dynamic.touched_vertices;
      if s.Dynamic.touched_vertices > !worst then
        worst := s.Dynamic.touched_vertices)
    !doomed;
  row "  %d deletions: repair touched %d vertices total, worst region %d" !dels
    !total !worst;
  row "  locality: worst repair region %.1f%% of n=%d, %s (< 25%% required)"
    (100. *. float_of_int !worst /. float_of_int n)
    n
    (verdict (!worst < n / 4));
  let rng = Rng.create ~seed in
  let ok =
    verify_sampled ~trials:2 rng (Dynamic.snapshot d) ~mode:Fault.VFT ~k:2 ~f:1
  in
  row "  post-repair selection verifies sampled: %s" (verdict ok)

(* The query-plane half of the same gate: one large fault-masked batch;
   the dynamic.query_latency log-histogram feeds the report's quantile
   block (p99 is the headline number), and dynamic.queries pins the
   batch shape. *)
let dynamic_query () =
  banner "dynamic-query - fault-masked query batches on G(300, 0.03)";
  let rng = Rng.create ~seed in
  let g = Generators.connected_gnp rng ~n:300 ~p:0.03 in
  let d = Dynamic.create ~opts:(Dynamic.opts ~mode:Fault.VFT ~k:2 ~f:1 ()) g in
  let pairs =
    Array.init 2000 (fun _ -> (Rng.int rng 300, Rng.int rng 300))
  in
  let faults = Fault.of_vertices [ 7; 123 ] in
  let res, dt = time (fun () -> Dynamic.query_batch d ~faults pairs) in
  let reachable =
    Array.fold_left
      (fun acc r -> if r.Dynamic.distance < infinity then acc + 1 else acc)
      0 res
  in
  row "  %d queries in %.3f s (%.0f queries/s), %d reachable under 2 faults"
    (Array.length pairs) dt
    (float_of_int (Array.length pairs) /. dt)
    reachable;
  let h = Obs.histogram_log "dynamic.query_latency" in
  row "  query latency p50 %.1f us, p99 %.1f us"
    (1e6 *. Obs.Histogram.quantile h 0.5)
    (1e6 *. Obs.Histogram.quantile h 0.99)

let smoke =
  [
    ("smoke-lbc", smoke_lbc);
    ("smoke-greedy", smoke_greedy);
    ("smoke-distributed", smoke_distributed);
    ("greedy-parallel", greedy_parallel);
    ("shard-build", shard_build);
    ("dk11-parallel", dk11_parallel);
    ("synchronizer-lossy", smoke_synchronizer_lossy);
    ("congest-hotpath", congest_hotpath);
    ("io-load", io_load);
    ("bfs-hotpath-int32", bfs_hotpath_int32);
    ("dynamic-updates", dynamic_updates);
    ("dynamic-query", dynamic_query);
  ]

let all =
  [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16; e17 ]

let by_name =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17);
  ]
