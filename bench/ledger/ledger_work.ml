(* The five workloads.

   Each one generates its inputs from the seed, saves them as .ftsb files
   and loads them back through [Graph_io.load], so the library sees only
   the files.  One untimed set-up and a warm-up come first, then the
   measured loop of requests for [seconds] (and at least a minimum
   count), then the correctness checks, whose outcome feeds [attempted]
   and [failed]; set-up is timed on its own, repeatedly, at the end.

   A traced run repeats the loop with every library call wrapped in a
   bench-side span.  Each of its iterations also makes one bare request
   (inside a single span, nothing traced within it), so the ratio of the
   traced request's latency to the bare one is the tracing overhead. *)

module T = Ledger_trace
module S = Ledger_stats

let k = 2
let stretch = float_of_int ((2 * k) - 1)
let jobs = 2

type ctx = {
  seed : int;
  seconds : float;
  quick : bool;
  traced : bool;
  mutable attempted : int;
  mutable failures : string list;
  mutable peak_heap_mb : float;
}

let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.failures <- what :: ctx.failures

let timed f =
  let t0 = Obs.now_s () in
  let r = f () in
  (r, Obs.now_s () -. t0)

let push l x = l := x :: !l

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Run [step i] for [ctx.seconds], and at least [min_iters] times.  The
   peak heap is read, and [at_min] run, when step [min_iters] ends, so
   neither depends on how many more steps a faster machine fits in. *)
let measure ctx ?(at_min = ignore) ~min_iters step =
  let t0 = Obs.now_s () in
  let i = ref 0 in
  while !i < min_iters || Obs.now_s () -. t0 < ctx.seconds do
    step !i;
    incr i;
    if !i = min_iters then begin
      ctx.peak_heap_mb <- heap_mb ();
      at_min ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

type input = { file : string; n : int; m : int; digest : string }

let input_dir = "_ledger"

let prepare ~tag ~seed graph =
  if not (Sys.file_exists input_dir) then Sys.mkdir input_dir 0o755;
  let file =
    Filename.concat input_dir
      (Printf.sprintf "%s-s%d%s" tag seed Graph_io.binary_suffix)
  in
  Graph_io.save graph file;
  {
    file;
    n = Graph.n graph;
    m = Graph.m graph;
    digest = Digest.to_hex (Digest.file file);
  }

let gnp rng ~n ~deg =
  Generators.connected_gnp rng ~n ~p:(deg /. float_of_int (n - 1))

let load input () =
  timed (fun () -> T.scope "graph_io.load" (fun () -> Graph_io.load input.file))

(* Time [rep], a fresh set-up, at least [min] and at most [max] times,
   until [budget] seconds have passed; [rep] returns its state, disposed
   of at once, and the seconds its graph load took.  Workloads call this
   after their measured loop: the samples then come from a warm process
   (the first set-ups after start-up read up to 1.7x slower from one
   process to the next), and their garbage cannot raise the peak heap the
   loop reports.  Each starts from a collected heap. *)
let time_setup ctx ?(dispose = ignore) rep =
  let min, max, budget = if ctx.quick then (2, 2, 0.) else (7, 31, 0.5) in
  let started = Obs.now_s () in
  let rec go setups loads =
    Gc.full_major ();
    let (st, load_s), dt = timed rep in
    dispose st;
    let setups = dt :: setups and loads = load_s :: loads in
    let n = List.length setups in
    if n >= max || (n >= min && Obs.now_s () -. started >= budget) then
      (setups, loads)
    else go setups loads
  in
  go [] []

(* ------------------------------------------------------------------ *)
(* Counters read from outside                                          *)

let tally = Hashtbl.create 16
let get name = Option.value ~default:0 (Hashtbl.find_opt tally name)

let counted names f =
  let cs = List.map (fun n -> (n, Obs.counter n)) names in
  let before = List.map (fun (_, c) -> Obs.Counter.value c) cs in
  let r = f () in
  List.iter2
    (fun (n, c) b -> Hashtbl.replace tally n (get n + Obs.Counter.value c - b))
    cs before;
  r

let busy_s () =
  let total = ref 0. in
  for w = 0 to jobs - 1 do
    total := !total +. Obs.Timer.total_s (Obs.timer (Printf.sprintf "pool.busy.%d" w))
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  inputs : input list;
  e2e : (string * S.summary) list;
  info : (string * string * S.summary) list;  (** name, unit, summary *)
  layers : (string * float) list;
}

let e2e ctx ~setup ~requests ~faults_s ~kept =
  [
    ("setup_s", S.summarize setup);
    ("request_p50_ms", S.summarize ~f:(fun s -> s *. 1e3) requests);
    ("verify_faults_per_s", S.summarize ~f:(fun s -> 1. /. s) faults_s);
    ("kept_edges_pct", S.single (100. *. kept));
    ("max_heap_mb", S.single ctx.peak_heap_mb);
  ]

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

let mean_s name =
  match T.layer name with
  | Some l when l.T.calls > 0 -> l.T.total_s /. float_of_int l.T.calls
  | _ -> 0.

let words_per_call name =
  match T.layer name with
  | Some l when l.T.calls > 0 -> l.T.minor_words /. float_of_int l.T.calls
  | _ -> 0.

(* Layer metrics every traced workload reports; the workload's own ones
   are appended. *)
let common_layers ~loads ~graph ~majors ~bare ~traced =
  [
    ("graph_io.load_s", S.median loads);
    ("graph.resident_bytes", float_of_int (Graph.resident_bytes graph));
    ("gc.major_collections", float_of_int majors);
    ("trace.overhead", ratio (S.median traced) (S.median bare));
    ("trace.unattributed_frac", T.unattributed ());
  ]

(* The traced pass's outer frame: one root span, and the major
   collections it saw. *)
let framed ctx body =
  if ctx.traced then T.start ();
  Hashtbl.reset tally;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = T.scope "workload" body in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  (r, majors)

(* Fault sets drawn uniformly on even [i], around one edge on odd [i]. *)
let verify_battery i ~cfg sel ~f =
  if i mod 2 = 0 then Verify.random ~cfg sel ~mode:Fault.VFT ~stretch ~f
  else Verify.adversarial ~cfg sel ~mode:Fault.VFT ~stretch ~f

(* A request timed as a whole; in a traced run, one span around it and
   nothing traced inside. *)
let bare_request bare request =
  let r, dt = timed (fun () -> T.scope "bare.request" request) in
  push bare dt;
  r

(* ------------------------------------------------------------------ *)
(* greedy-unit                                                         *)

(* Algorithm 3 through the engine, with every LBC call in a hot span:
   the same decider Poly_greedy.build runs, so the selection must match
   it bit for bit. *)
let traced_greedy g ~f =
  let t = (2 * k) - 1 in
  let ws = Lbc.Workspace.create () in
  let decide h edges decisions lo hi =
    for i = lo to hi - 1 do
      let e = edges.(i) in
      match
        T.hot "lbc.decide" (fun () ->
            Lbc.decide ~ws ~edge:e.Graph.id ~mode:Fault.VFT h ~u:e.Graph.u
              ~v:e.Graph.v ~t ~alpha:f)
      with
      | Lbc.Yes { cut } -> decisions.(i) <- Engine.Keep { cut }
      | Lbc.No _ -> ()
    done
  in
  let res =
    counted [ "lbc.calls"; "lbc.bfs_rounds"; "bfs.searches"; "bfs.edges_scanned" ]
      (fun () -> T.scope "engine.run" (fun () -> Engine.run ~caller:"ledger" ~decide g))
  in
  res.Engine.selection

let greedy_unit ctx =
  let n, deg = if ctx.quick then (60, 8.) else (1000, 40.) in
  let f = 2 in
  let master = Rng.create ~seed:ctx.seed in
  let input =
    prepare ~tag:(Printf.sprintf "gnp-n%d-d%g" n deg) ~seed:ctx.seed
      (gnp (Rng.split master) ~n ~deg)
  in
  let frng = Rng.split master in
  let requests = ref [] and traced = ref [] and faults_s = ref [] in
  let (g, setup, loads, first), majors =
    framed ctx (fun () ->
        let g, _ = load input () in
        let build () = Poly_greedy.build ~mode:Fault.VFT ~k ~f g in
        let first = T.scope "poly_greedy.build" build in
        measure ctx ~min_iters:(if ctx.quick then 1 else 3) (fun _ ->
            let sel = bare_request requests build in
            check ctx (sel.Selection.selected = first.Selection.selected)
              "greedy-unit: two builds of one graph disagree";
            if ctx.traced then begin
              let tsel, dt = timed (fun () -> traced_greedy g ~f) in
              push traced dt;
              check ctx (tsel.Selection.selected = sel.Selection.selected)
                "greedy-unit: traced selection differs from Poly_greedy.build";
              (* The ordering Engine.run does first, timed on its own. *)
              ignore
                (T.scope "engine.order" (fun () ->
                     Engine.ordered_edges Engine.By_weight g))
            end;
            List.iter
              (fun kind ->
                let rep, dt =
                  timed (fun () ->
                      T.scope "verify.fault" (fun () ->
                          verify_battery kind
                            ~cfg:(Verify.config ~rng:frng ~trials:1 ())
                            sel ~f))
                in
                push faults_s dt;
                check ctx (Verify.ok rep) "greedy-unit: Verify found a violation")
              [ 0; 1 ]);
        let setup, loads = time_setup ctx (load input) in
        (g, setup, loads, first))
  in
  let m = Graph.m g in
  {
    inputs = [ input ];
    e2e =
      e2e ctx ~setup ~requests:!requests ~faults_s:!faults_s
        ~kept:(fratio first.Selection.size m);
    info =
      [
        ("spanner_edges", "count", S.single (float_of_int first.Selection.size));
        ( "build_edges_per_s",
          "1/s",
          S.summarize ~f:(fun s -> float_of_int m /. s) !requests );
      ];
    layers =
      common_layers ~loads ~graph:g ~majors ~bare:!requests ~traced:!traced
      @ [
          ("lbc.decide_us", mean_s "lbc.decide" *. 1e6);
          ("lbc.minor_words_per_call", words_per_call "lbc.decide");
          ("lbc.bfs_rounds_per_call", fratio (get "lbc.bfs_rounds") (get "lbc.calls"));
          ( "bfs.edges_scanned_per_call",
            fratio (get "bfs.edges_scanned") (get "bfs.searches") );
          ("engine.order_s", mean_s "engine.order");
          ( "engine.commit_s",
            match T.layer "engine.run" with
            | Some l when l.T.calls > 0 -> l.T.self_s /. float_of_int l.T.calls
            | _ -> 0. );
          ("verify.fault_s", mean_s "verify.fault");
          ("verify.minor_words_per_fault", words_per_call "verify.fault");
        ];
  }

(* ------------------------------------------------------------------ *)
(* shard-weighted                                                      *)

let shard_weighted ctx =
  let n, radius = if ctx.quick then (80, 0.25) else (1000, 0.085) in
  let f = 1 in
  let master = Rng.create ~seed:ctx.seed in
  let input =
    prepare ~tag:(Printf.sprintf "rggw-n%d-r%g" n radius) ~seed:ctx.seed
      (Generators.random_geometric (Rng.split master) ~n ~radius
         ~euclidean_weights:true)
  in
  let frng = Rng.split master in
  let shard_seed = Rng.int master 0x3fffffff in
  let requests = ref [] and traced = ref [] and faults_s = ref [] in
  let busy = ref 0. and busy_wall = ref 0. and traced_iters = ref 0 in
  let pooled f =
    let b0 = busy_s () in
    let r, dt = timed (fun () -> counted [ "pool.tasks"; "dijkstra.edges_relaxed" ] f) in
    busy := !busy +. (busy_s () -. b0);
    busy_wall := !busy_wall +. dt;
    r
  in
  let (g, first, seq, setup, loads), majors =
    framed ctx (fun () ->
        let g, _ = load input () in
        let first, seq =
          Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
            let build () =
              Shard_build.build ~rng:(Rng.create ~seed:shard_seed) ~pool
                ~mode:Fault.VFT ~k ~f g
            in
            let first = T.scope "shard_build.build" build in
            let same r =
              check ctx
                (r.Shard_build.selection.Selection.selected
                = first.Shard_build.selection.Selection.selected)
                "shard-weighted: two builds of one graph disagree"
            in
            measure ctx ~min_iters:(if ctx.quick then 1 else 3) (fun i ->
                same (bare_request requests build);
                if ctx.traced then begin
                  let r, dt =
                    timed (fun () -> pooled (fun () -> T.scope "shard_build.build" build))
                  in
                  push traced dt;
                  incr traced_iters;
                  same r;
                  (* The partition the build samples first, timed on its own. *)
                  let probe =
                    T.scope "shard_partition.run" (fun () ->
                        Shard_partition.run (Rng.create ~seed:shard_seed) g)
                  in
                  check ctx (probe = r.Shard_build.partition)
                    "shard-weighted: Shard_partition.run differs from the build's partition"
                end
                else same (bare_request requests build);
                let rep, dt =
                  timed (fun () ->
                      pooled (fun () ->
                          T.scope "verify.battery" (fun () ->
                              verify_battery i
                                ~cfg:(Verify.config ~pool ~rng:frng ~trials:jobs ())
                                first.Shard_build.selection ~f)))
                in
                push faults_s (dt /. float_of_int jobs);
                check ctx (Verify.ok rep) "shard-weighted: Verify found a violation");
            let seq =
              T.scope "poly_greedy.build" (fun () ->
                  Poly_greedy.build ~mode:Fault.VFT ~k ~f g)
            in
            check ctx
              (float_of_int first.Shard_build.selection.Selection.size
              <= Float.log2 (float_of_int n) *. float_of_int seq.Selection.size)
              "shard-weighted: |H| exceeds log2 n times the sequential |H|";
            (first, seq)
        in
        (* After the loop's pool is shut down: one pool at a time, never
           more than [jobs] domains. *)
        let setup, loads =
          time_setup ctx ~dispose:Exec.Pool.shutdown (fun () ->
              let _, load_s = load input () in
              ( T.scope "exec.pool.create" (fun () -> Exec.Pool.create ~domains:jobs ()),
                load_s ))
        in
        (g, first, seq, setup, loads))
  in
  let m = Graph.m g and size = first.Shard_build.selection.Selection.size in
  let per_iter x = fratio x !traced_iters in
  let battery = T.layer "verify.battery" in
  let per_fault pick =
    match battery with
    | Some l when l.T.calls > 0 -> pick l /. float_of_int (l.T.calls * jobs)
    | _ -> 0.
  in
  {
    inputs = [ input ];
    e2e = e2e ctx ~setup ~requests:!requests ~faults_s:!faults_s ~kept:(fratio size m);
    info =
      [
        ("spanner_edges", "count", S.single (float_of_int size));
        ("sequential_spanner_edges", "count", S.single (float_of_int seq.Selection.size));
        ( "build_edges_per_s",
          "1/s",
          S.summarize ~f:(fun s -> float_of_int m /. s) !requests );
      ];
    layers =
      common_layers ~loads ~graph:g ~majors ~bare:!requests ~traced:!traced
      @ [
          ("shard_partition.run_s", mean_s "shard_partition.run");
          ( "shard_build.clusters_s",
            Float.max 0. (mean_s "shard_build.build" -. mean_s "shard_partition.run") );
          ("shard.boundary_edges", float_of_int first.Shard_build.boundary_edges);
          ("dijkstra.edges_relaxed", per_iter (get "dijkstra.edges_relaxed"));
          ("exec.busy_frac", ratio !busy (float_of_int jobs *. !busy_wall));
          ("exec.tasks", per_iter (get "pool.tasks"));
          ("verify.fault_s", per_fault (fun l -> l.T.total_s));
          ("verify.minor_words_per_fault", per_fault (fun l -> l.T.minor_words));
        ];
  }

(* ------------------------------------------------------------------ *)
(* dynamic-mixed and dynamic-read                                      *)

let dynamic_input ctx master =
  let n = if ctx.quick then 200 else 4000 in
  let deg = 10. in
  let radius = sqrt (deg /. (Float.pi *. float_of_int n)) in
  prepare ~tag:(Printf.sprintf "rgg-n%d-d%g" n deg) ~seed:ctx.seed
    (Generators.random_geometric (Rng.split master) ~n ~radius
       ~euclidean_weights:false)

let dynamic_create g =
  T.scope "dynamic.create" (fun () -> Dynamic.create ~opts:(Dynamic.opts ~k ~f:1 ()) g)

let dynamic_setup ctx input =
  time_setup ctx (fun () ->
      let g, load_s = load input () in
      (dynamic_create g, load_s))

(* A single-vertex fault and query pairs that avoid it. *)
let draw_fault rng n = Fault.of_vertices [ Rng.int rng n ]

let draw_pair rng n fault =
  let x = List.hd fault.Fault.members in
  let rec pick () =
    let v = Rng.int rng n in
    if v = x then pick () else v
  in
  let u = pick () in
  let rec other () =
    let v = pick () in
    if v = u then other () else v
  in
  (u, other ())

(* The answer against a plain BFS over the cached snapshot, under the
   same fault masks. *)
let reference_ok d fault (u, v) (r : Dynamic.query_result) =
  T.scope "check.reference" (fun () ->
      let sel = Dynamic.snapshot d in
      let g = sel.Selection.source in
      let bv, _ = Fault.masks g fault in
      let dist =
        Bfs.distances ?blocked_vertices:bv
          ~blocked_edges:(Selection.blocked_edges sel [])
          g u
      in
      if dist.(v) < 0 then r.Dynamic.hops < 0
      else r.Dynamic.hops = dist.(v) && r.Dynamic.distance = float_of_int dist.(v))

let query d fault pair = (Dynamic.query_batch d ~faults:fault [| pair |]).(0)

let traced_query d fault pair =
  counted [ "bfs.nodes_scanned" ] (fun () ->
      T.hot "dynamic.query_batch" (fun () -> query d fault pair))

(* One fault set costs a BFS from every vertex in G and in H, seconds at
   this size, so only two are checked. *)
let final_verify ctx d frng faults_s name =
  let sel = Dynamic.snapshot d in
  for i = 0 to if ctx.quick then 0 else 1 do
    let rep, dt =
      timed (fun () ->
          T.scope "verify.fault" (fun () ->
              verify_battery i ~cfg:(Verify.config ~rng:frng ~trials:1 ()) sel ~f:1))
    in
    push faults_s dt;
    check ctx (Verify.ok rep) (name ^ ": Verify of the final snapshot found a violation")
  done

let latency_info lat =
  let a = S.sorted lat in
  let n = Array.length a in
  let us p = { (S.single (S.percentile a p *. 1e6)) with S.samples = n } in
  [ ("query_p50_us", "us", us 0.5); ("query_p99_us", "us", us 0.99) ]

let dynamic_layers ~traced_queries =
  [
    ("dynamic.query_us", mean_s "dynamic.query_batch" *. 1e6);
    ("bfs.nodes_per_query", fratio (get "bfs.nodes_scanned") traced_queries);
    ("verify.fault_s", mean_s "verify.fault");
    ("verify.minor_words_per_fault", words_per_call "verify.fault");
  ]

let dynamic_read ctx =
  let master = Rng.create ~seed:ctx.seed in
  let input = dynamic_input ctx master in
  let rng = Rng.split master and frng = Rng.split master in
  let n = input.n in
  let requests = ref [] and traced = ref [] and faults_s = ref [] in
  let ((g, d), setup, loads), majors =
    framed ctx (fun () ->
        let g, _ = load input () in
        let d = dynamic_create g in
        let fault = ref (draw_fault rng n) in
        for _ = 1 to 64 do
          ignore (T.scope "warmup.query" (fun () -> query d !fault (draw_pair rng n !fault)))
        done;
        measure ctx ~min_iters:(if ctx.quick then 32 else 4800) (fun i ->
            if i mod 16 = 0 then fault := draw_fault rng n;
            let pair = draw_pair rng n !fault in
            let r = bare_request requests (fun () -> query d !fault pair) in
            if ctx.traced then begin
              let tr, dt = timed (fun () -> traced_query d !fault pair) in
              push traced dt;
              check ctx (tr = r) "dynamic-read: traced answer differs"
            end;
            if i mod 16 = 15 then
              check ctx (reference_ok d !fault pair r)
                "dynamic-read: answer differs from the BFS reference");
        final_verify ctx d frng faults_s "dynamic-read";
        let setup, loads = dynamic_setup ctx input in
        ((g, d), setup, loads))
  in
  {
    inputs = [ input ];
    e2e =
      e2e ctx ~setup ~requests:!requests ~faults_s:!faults_s
        ~kept:(fratio (Dynamic.size d) (Dynamic.live_edges d));
    info =
      latency_info !requests
      @ [ ("spanner_edges", "count", S.single (float_of_int (Dynamic.size d))) ];
    layers =
      common_layers ~loads ~graph:g ~majors ~bare:!requests ~traced:!traced
      @ dynamic_layers ~traced_queries:(List.length !traced);
  }

(* Link churn: every step deletes two random live edges, re-inserts two
   edges deleted at least [delay] steps earlier, then answers 16
   single-pair queries under a fresh single-vertex fault.  The live-edge
   list is the workload's own, so [Dynamic.snapshot] is never called while
   the clock runs (the first query of each epoch pays the rebuild). *)
let dynamic_mixed ctx =
  let master = Rng.create ~seed:ctx.seed in
  let input = dynamic_input ctx master in
  let rng = Rng.split master and frng = Rng.split master in
  let n = input.n in
  let delay = 8 and per_step_queries = 16 in
  let requests = ref [] and traced = ref [] and faults_s = ref [] in
  let query_lat = ref [] and updates = ref 0 and update_s = ref 0. in
  let deletes = ref 0 and delete_s = ref 0. and touched = ref 0 in
  let inserts = ref 0 and insert_s = ref 0. and traced_queries = ref 0 in
  let kept = ref (0, 1) in
  let (g, setup, loads), majors =
    framed ctx (fun () ->
        let g, _ = load input () in
        let d = dynamic_create g in
        let live = Array.map (fun e -> (e.Graph.u, e.Graph.v)) (Graph.edge_array g) in
        let n_live = ref (Array.length live) in
        let deleted = Queue.create () in
        let take_live () =
          let i = Rng.int rng !n_live in
          let e = live.(i) in
          decr n_live;
          live.(i) <- live.(!n_live);
          e
        in
        (* One step; [spans] wraps each library call in its own span and
           takes an explicit snapshot before the queries. *)
        let step i ~spans =
          let dels = [ take_live (); take_live () ] in
          let rec due acc =
            if List.length acc = 2 || Queue.is_empty deleted then List.rev acc
            else
              let s, e = Queue.peek deleted in
              if s > i - delay then List.rev acc
              else begin
                ignore (Queue.pop deleted);
                due (e :: acc)
              end
          in
          let ins = due [] in
          let fault = draw_fault rng n in
          let pairs = List.init per_step_queries (fun _ -> draw_pair rng n fault) in
          let call name f = if spans then T.scope name f else f () in
          let st, t_del =
            timed (fun () ->
                call "dynamic.apply.delete" (fun () ->
                    Dynamic.apply d
                      (List.map (fun (u, v) -> Dynamic.Delete_edge { u; v }) dels)))
          in
          let _, t_ins =
            timed (fun () ->
                if ins <> [] then
                  call "dynamic.apply.insert" (fun () ->
                      ignore
                        (Dynamic.apply d
                           (List.map (fun (u, v) -> Dynamic.Insert { u; v; w = 1. }) ins))))
          in
          let _, t_snap =
            timed (fun () ->
                if spans then T.scope "dynamic.snapshot" (fun () -> ignore (Dynamic.snapshot d)))
          in
          let last = ref None and t_q = ref 0. in
          List.iter
            (fun pair ->
              let r, dt =
                timed (fun () ->
                    if spans then traced_query d fault pair else query d fault pair)
              in
              t_q := !t_q +. dt;
              if not spans then push query_lat dt;
              last := Some (pair, r))
            pairs;
          List.iter (fun e -> Queue.add (i, e) deleted) dels;
          List.iter
            (fun e ->
              live.(!n_live) <- e;
              incr n_live)
            ins;
          if spans then begin
            deletes := !deletes + List.length dels;
            delete_s := !delete_s +. t_del;
            touched := !touched + st.Dynamic.touched_vertices;
            inserts := !inserts + List.length ins;
            insert_s := !insert_s +. t_ins;
            traced_queries := !traced_queries + per_step_queries
          end
          else begin
            updates := !updates + List.length dels + List.length ins;
            update_s := !update_s +. t_del +. t_ins
          end;
          (match !last with
          | Some (pair, r) ->
              check ctx (reference_ok d fault pair r)
                "dynamic-mixed: answer differs from the BFS reference"
          | None -> ());
          t_del +. t_ins +. t_snap +. !t_q
        in
        let warmup = if ctx.quick then delay + 1 else delay + 2 in
        let i = ref 0 in
        while !i < warmup do
          ignore (T.scope "warmup.step" (fun () -> step !i ~spans:false));
          incr i
        done;
        query_lat := [];
        updates := 0;
        update_s := 0.;
        (* The shed pass shrinks the spanner as churn goes on, so its size
           is read after a fixed number of steps, not when the clock stops. *)
        measure ctx
          ~at_min:(fun () -> kept := (Dynamic.size d, Dynamic.live_edges d))
          ~min_iters:(if ctx.quick then 4 else 100)
          (fun _ ->
            push requests (T.scope "bare.request" (fun () -> step !i ~spans:false));
            incr i;
            if ctx.traced then begin
              push traced (step !i ~spans:true);
              incr i
            end);
        final_verify ctx d frng faults_s "dynamic-mixed";
        let setup, loads = dynamic_setup ctx input in
        (g, setup, loads))
  in
  {
    inputs = [ input ];
    e2e =
      e2e ctx ~setup ~requests:!requests ~faults_s:!faults_s
        ~kept:(fratio (fst !kept) (snd !kept));
    info =
      latency_info !query_lat
      @ [
          ("update_ops_per_s", "1/s", S.single (ratio (float_of_int !updates) !update_s));
          ("spanner_edges", "count", S.single (float_of_int (fst !kept)));
        ];
    layers =
      common_layers ~loads ~graph:g ~majors ~bare:!requests ~traced:!traced
      @ dynamic_layers ~traced_queries:!traced_queries
      @ [
          ("dynamic.insert_us", ratio !insert_s (float_of_int !inserts) *. 1e6);
          ("dynamic.delete_ms", ratio !delete_s (float_of_int !deletes) *. 1e3);
          ("dynamic.touched_per_delete", fratio !touched !deletes);
          ("dynamic.snapshot_ms", mean_s "dynamic.snapshot" *. 1e3);
        ];
  }

(* ------------------------------------------------------------------ *)
(* distributed-lossy                                                   *)

let distributed_lossy ctx =
  let n, deg = if ctx.quick then (32, 6.) else (256, 10.) in
  let f = 2 and pulses = 20 in
  let master = Rng.create ~seed:ctx.seed in
  let input =
    prepare ~tag:(Printf.sprintf "gnp-n%d-d%g" n deg) ~seed:ctx.seed
      (gnp (Rng.split master) ~n ~deg)
  in
  let frng = Rng.split master in
  let congest_seed = Rng.int master 0x3fffffff in
  let sync_seed = Rng.int master 0x3fffffff in
  let crashed = Rng.sample_without_replacement master ~k:2 ~n in
  let chaos = Chaos.plan ~drop:0.1 ~dup:0.05 ~seed:7 () in
  let requests = ref [] and traced = ref [] and faults_s = ref [] in
  let msgs = ref [] and rounds = ref 0 and traced_reps = ref 0 in
  let (g, clean, setup, loads), majors =
    framed ctx (fun () ->
        let g, _ = load input () in
        let congest ?chaos () =
          Congest_ft.build (Rng.create ~seed:congest_seed) ~c:0.5 ?chaos
            ~mode:Fault.VFT ~k ~f g
        in
        let sync sel =
          Synchronizer.run (Rng.create ~seed:sync_seed) ~failures:(2.5, crashed)
            ~chaos ~pulses ~skeleton:sel g
        in
        let clean = T.scope "reference.congest_ft.build" (fun () -> congest ()) in
        let run_checks (res, rep) =
          check ctx
            (res.Congest_ft.selection.Selection.selected
            = clean.Congest_ft.selection.Selection.selected)
            "distributed-lossy: chaos selection differs from the clean one";
          check ctx (rep.Synchronizer.pulses = pulses)
            "distributed-lossy: a survivor did not complete every pulse"
        in
        let request () =
          let res = congest ~chaos () in
          (res, sync res.Congest_ft.selection)
        in
        run_checks (T.scope "warmup.request" request);
        measure ctx ~min_iters:(if ctx.quick then 1 else 3) (fun i ->
            let m0 = Obs.Counter.value (Obs.counter "net.messages") in
            let res, rep = bare_request requests request in
            let sent = Obs.Counter.value (Obs.counter "net.messages") - m0 in
            push msgs (sent + rep.Synchronizer.messages);
            rounds := res.Congest_ft.total_rounds;
            run_checks (res, rep);
            if ctx.traced then begin
              let out, dt =
                timed (fun () ->
                    counted [ "net.bits"; "net.retries" ] (fun () ->
                        let res =
                          T.scope "congest_ft.build" (fun () -> congest ~chaos ())
                        in
                        (res, T.scope "synchronizer.run" (fun () -> sync res.Congest_ft.selection))))
              in
              push traced dt;
              incr traced_reps;
              run_checks out
            end;
            let trials = 8 in
            let rep, dt =
              timed (fun () ->
                  T.scope "verify.battery" (fun () ->
                      verify_battery i
                        ~cfg:(Verify.config ~rng:frng ~trials ())
                        res.Congest_ft.selection ~f))
            in
            push faults_s (dt /. float_of_int trials);
            check ctx (Verify.ok rep) "distributed-lossy: Verify found a violation");
        let setup, loads = time_setup ctx (load input) in
        (g, clean, setup, loads))
  in
  let size = clean.Congest_ft.selection.Selection.size in
  let per_rep x = fratio x !traced_reps in
  let battery_words =
    match T.layer "verify.battery" with
    | Some l when l.T.calls > 0 -> l.T.minor_words /. float_of_int (l.T.calls * 8)
    | _ -> 0.
  in
  {
    inputs = [ input ];
    e2e =
      e2e ctx ~setup ~requests:!requests ~faults_s:!faults_s
        ~kept:(fratio size (Graph.m g));
    info =
      [
        ( "sim_msgs_per_s",
          "1/s",
          S.summarize
            (List.map2 (fun m s -> float_of_int m /. s) !msgs !requests) );
        ("rounds", "count", S.single (float_of_int !rounds));
        ("messages", "count", S.single (float_of_int (List.hd !msgs)));
        ("spanner_edges", "count", S.single (float_of_int size));
      ];
    layers =
      common_layers ~loads ~graph:g ~majors ~bare:!requests ~traced:!traced
      @ [
          ("congest_ft.build_s", mean_s "congest_ft.build");
          ("synchronizer.run_s", mean_s "synchronizer.run");
          ("net.bits", per_rep (get "net.bits"));
          ("net.retries", per_rep (get "net.retries"));
          ("verify.fault_s", mean_s "verify.battery" /. 8.);
          ("verify.minor_words_per_fault", battery_words);
        ];
  }

let all =
  [
    ("greedy-unit", greedy_unit);
    ("shard-weighted", shard_weighted);
    ("dynamic-mixed", dynamic_mixed);
    ("dynamic-read", dynamic_read);
    ("distributed-lossy", distributed_lossy);
  ]
