(* Tests for the telemetry layer (lib/obs): metric semantics, the master
   switch, span nesting, snapshot/reset scoping, the JSON sink round-trip
   through Obs_json.of_string, agreement between the obs registry and the
   counters Poly_greedy.build_traced derives from it, the structured
   event trace (ordering, ring-buffer overflow accounting, Chrome
   export), and the Obs_compare regression verdicts. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)
let checks = check Alcotest.string

(* Every test starts from a clean registry state (registrations persist,
   values do not) with collection on. *)
let fresh () =
  Obs.set_enabled true;
  Obs.reset ()

(* ------------------------- counters ---------------------------------- *)

let test_counter_basics () =
  fresh ();
  let c = Obs.counter "test.counter" in
  checks "name" "test.counter" (Obs.Counter.name c);
  checki "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  checki "incr + add" 42 (Obs.Counter.value c);
  (* same name returns the same series *)
  let c' = Obs.counter "test.counter" in
  Obs.Counter.incr c';
  checki "shared by name" 43 (Obs.Counter.value c)

let test_counter_kind_mismatch () =
  fresh ();
  let _ = Obs.counter "test.kind" in
  checkb "timer under a counter name rejected" true
    (try
       ignore (Obs.timer "test.kind");
       false
     with Invalid_argument _ -> true)

let test_disabled_is_noop () =
  fresh ();
  let c = Obs.counter "test.disabled" in
  let h = Obs.histogram "test.disabled_h" in
  Obs.set_enabled false;
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Histogram.observe h 5.0;
  let ran = ref false in
  Obs.with_span "test.disabled_span" (fun () -> ran := true);
  Obs.set_enabled true;
  checkb "body still runs" true !ran;
  checki "counter untouched" 0 (Obs.Counter.value c);
  checki "histogram untouched" 0 (Obs.Histogram.count h);
  let snap = Obs.snapshot () in
  checkb "no span recorded" true
    (List.for_all (fun s -> s.Obs.s_name <> "test.disabled_span") snap.Obs.spans)

(* -------------------------- gauges ----------------------------------- *)

let test_gauge_basics () =
  fresh ();
  let g = Obs.gauge "gauge.test.level" in
  checks "name" "gauge.test.level" (Obs.Gauge.name g);
  checki "starts at zero" 0 (Obs.Gauge.value g);
  Obs.Gauge.set g 5;
  Obs.Gauge.add g 3;
  checki "set + add" 8 (Obs.Gauge.value g);
  Obs.Gauge.add g (-8);
  checki "back to zero" 0 (Obs.Gauge.value g);
  Obs.Gauge.set g 7;
  let snap = Obs.snapshot () in
  checki "snapshot carries gauges" 7
    (List.assoc "gauge.test.level" snap.Obs.gauges);
  Obs.reset ();
  checki "reset clears" 0 (Obs.Gauge.value g);
  Obs.set_enabled false;
  Obs.Gauge.set g 9;
  Obs.Gauge.add g 1;
  Obs.set_enabled true;
  checki "disabled is no-op" 0 (Obs.Gauge.value g)

let test_gauge_sharded () =
  fresh ();
  let g = Obs.gauge "gauge.test.sharded" in
  Obs.Gauge.add g 2;
  (* set/add act on the calling domain's shard; value sums the shards *)
  let d = Domain.spawn (fun () -> Obs.Gauge.add g 9; Obs.Gauge.set g 3) in
  Domain.join d;
  checki "value sums per-domain shards" 5 (Obs.Gauge.value g)

(* -------------------------- timers ----------------------------------- *)

let test_timer () =
  fresh ();
  let t = Obs.timer "test.timer" in
  let v = Obs.Timer.time t (fun () -> 7) in
  checki "returns body value" 7 v;
  Obs.Timer.record t 0.25;
  checki "two samples" 2 (Obs.Timer.count t);
  checkb "total includes recorded" true (Obs.Timer.total_s t >= 0.25);
  (* exceptions propagate and the sample is still taken *)
  (try Obs.Timer.time t (fun () -> failwith "boom") with Failure _ -> ());
  checki "sample on raise" 3 (Obs.Timer.count t)

(* ------------------------ histograms --------------------------------- *)

let test_histogram () =
  fresh ();
  let h = Obs.histogram "test.hist" in
  List.iter (Obs.Histogram.observe_int h) [ 1; 3; 3; 100 ];
  checki "count" 4 (Obs.Histogram.count h);
  checkf "sum" 107.0 (Obs.Histogram.sum h);
  let snap = Obs.snapshot () in
  let view = List.assoc "test.hist" snap.Obs.histograms in
  checkf "min" 1.0 view.Obs.h_min;
  checkf "max" 100.0 view.Obs.h_max;
  (* power-of-two buckets: 1 -> le 1, 3;3 -> le 4, 100 -> le 128 *)
  let bucket le =
    try List.assoc le view.Obs.h_buckets with Not_found -> 0
  in
  checki "bucket le=1" 1 (bucket (Some 1.0));
  checki "bucket le=4" 2 (bucket (Some 4.0));
  checki "bucket le=128" 1 (bucket (Some 128.0));
  checki "bucket counts total" 4
    (List.fold_left (fun acc (_, c) -> acc + c) 0 view.Obs.h_buckets)

let test_histogram_overflow () =
  fresh ();
  let h = Obs.histogram "test.hist_over" in
  Obs.Histogram.observe h 1e12;
  let snap = Obs.snapshot () in
  let view = List.assoc "test.hist_over" snap.Obs.histograms in
  checki "overflow bucket" 1 (List.assoc None view.Obs.h_buckets)

(* Where single observations land, read back through the snapshot view.
   The bounds are rebuilt with the same arithmetic as the log-linear
   scheme ([unit * 10^decade]), so the keys compare exactly. *)
let test_bucket_placement () =
  let place make name v =
    fresh ();
    Obs.Histogram.observe (make name) v;
    let view = List.assoc name (Obs.snapshot ()).Obs.histograms in
    match view.Obs.h_buckets with
    | [ (bound, 1) ] -> bound
    | _ -> Alcotest.failf "%g: expected exactly one bucket" v
  in
  let bound = check Alcotest.(option (float 0.)) in
  let pow2 = place Obs.histogram "test.place_pow2"
  and ll = place Obs.histogram_log "test.place_log" in
  let ll_bound unit decade = Float.of_int unit *. (10. ** Float.of_int decade) in
  bound "pow2: on a bound" (Some 4.) (pow2 4.);
  bound "pow2: just above a bound" (Some 8.) (pow2 (Float.succ 4.));
  bound "pow2: zero" (Some 1.) (pow2 0.);
  bound "pow2: negative" (Some 1.) (pow2 (-3.));
  bound "pow2: nan takes the last bounded bucket" (Some 1073741824.) (pow2 nan);
  bound "pow2: +inf overflows" None (pow2 infinity);
  bound "pow2: past the last bound" None (pow2 (Float.succ 1073741824.));
  bound "log: on a bound" (Some 20.) (ll 20.);
  bound "log: just above a bound" (Some 30.) (ll (Float.succ 20.));
  bound "log: zero" (Some (ll_bound 1 (-7))) (ll 0.);
  bound "log: negative" (Some (ll_bound 1 (-7))) (ll (-0.5));
  bound "log: nan takes the last bounded bucket" (Some 9000.) (ll nan);
  bound "log: +inf overflows" None (ll infinity);
  bound "log: past the last bound" None (ll 9000.5)

(* [observe] must not allocate: the float aggregates are stored flat and
   the bucket search compares unboxed floats.  What remains is the box
   [observe_int] puts around its argument (2 words). *)
let test_observe_allocation () =
  fresh ();
  let h = Obs.histogram_log "test.hist_alloc" in
  Obs.Histogram.observe_int h 1 (* registers this domain's shard *);
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    Obs.Histogram.observe_int h i
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  checkb (Printf.sprintf "%.2f minor words per observe_int (<= 2)" words) true
    (words <= 2.0)

(* ------------------------- quantiles --------------------------------- *)

let test_quantile_edges () =
  fresh ();
  let empty = Obs.histogram_log "test.q_empty" in
  checkf "empty histogram -> 0" 0.0 (Obs.Histogram.quantile empty 0.99);
  let one = Obs.histogram_log "test.q_one" in
  Obs.Histogram.observe one 0.125;
  (* a single sample is every quantile, exactly: the covering bucket's
     upper bound is clamped into [min, max] = [0.125, 0.125] *)
  List.iter
    (fun q -> checkf "one sample" 0.125 (Obs.Histogram.quantile one q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let over = Obs.histogram_log "test.q_over" in
  Obs.Histogram.observe over 1e12;
  (* the overflow bucket has no upper bound; the max makes it exact *)
  checkf "overflow sample" 1e12 (Obs.Histogram.quantile over 0.5);
  checkb "q outside [0,1] rejected" true
    (try
       ignore (Obs.Histogram.quantile one 1.5);
       false
     with Invalid_argument _ -> true)

let test_quantile_order () =
  fresh ();
  let h = Obs.histogram_log "test.q_order" in
  (* 100 samples spread over three decades: quantiles must be monotone in
     q and bracketed by the extremes *)
  for i = 1 to 100 do
    Obs.Histogram.observe h (0.001 *. float_of_int i)
  done;
  let q50 = Obs.Histogram.quantile h 0.5
  and q90 = Obs.Histogram.quantile h 0.9
  and q99 = Obs.Histogram.quantile h 0.99 in
  checkb "p50 <= p90" true (q50 <= q90);
  checkb "p90 <= p99" true (q90 <= q99);
  checkb "p50 above min" true (q50 >= 0.001);
  checkb "p99 at most max" true (q99 <= 0.1);
  (* log-linear buckets are decade-relative: the p50 estimate must land
     within one sub-bucket (~11%) of the true median 0.050 *)
  checkb "p50 near true median" true (q50 >= 0.045 && q50 <= 0.06);
  (* pow2 histograms answer quantiles too *)
  let p = Obs.histogram "test.q_pow2" in
  List.iter (Obs.Histogram.observe_int p) [ 1; 2; 3; 4; 100 ];
  checkb "pow2 p50 in [2,4]" true
    (let v = Obs.Histogram.quantile p 0.5 in
     v >= 2.0 && v <= 4.0)

let test_quantiles_in_snapshot () =
  fresh ();
  let h = Obs.histogram_log "test.q_snap" in
  Obs.Histogram.observe h 0.25;
  let snap = Obs.snapshot () in
  let view = List.assoc "test.q_snap" snap.Obs.histograms in
  List.iter
    (fun label ->
      checkf ("snapshot " ^ label) 0.25
        (List.assoc label view.Obs.h_quantiles))
    [ "p50"; "p90"; "p99"; "p999" ]

(* --------------------------- shards ----------------------------------- *)

let test_shard_merge_equals_single () =
  fresh ();
  let t = Obs.timer "test.shard_timer" in
  let h = Obs.histogram "test.shard_hist" in
  (* three spawned domains plus the main one record concurrently; totals
     must equal the single-domain sum exactly once every domain joined *)
  let work_timer () =
    for _ = 1 to 100 do
      Obs.Timer.record t 0.001
    done
  in
  let work_hist seed =
    for i = 1 to 100 do
      Obs.Histogram.observe_int h ((seed * i) mod 64)
    done
  in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            work_timer ();
            work_hist (d + 2)))
  in
  work_timer ();
  work_hist 1;
  List.iter Domain.join domains;
  checki "timer count merges" 400 (Obs.Timer.count t);
  checkb "timer total merges" true
    (abs_float (Obs.Timer.total_s t -. 0.4) < 1e-9);
  checki "histogram count merges" 400 (Obs.Histogram.count h);
  let expected_sum =
    let s = ref 0 in
    List.iter
      (fun seed ->
        for i = 1 to 100 do
          s := !s + ((seed * i) mod 64)
        done)
      [ 1; 2; 3; 4 ];
    float_of_int !s
  in
  checkf "histogram sum merges" expected_sum (Obs.Histogram.sum h);
  (* reset clears every shard, not just the calling domain's *)
  Obs.reset ();
  checki "reset clears shards" 0 (Obs.Timer.count t)

(* --------------------------- spans ----------------------------------- *)

let test_span_nesting () =
  fresh ();
  (* two a-spans, each holding one b-span, plus one sibling c -> the
     merged tree is a(2){ b(2) } c(1) *)
  for _ = 1 to 2 do
    Obs.with_span "a" (fun () -> Obs.with_span "b" (fun () -> ()))
  done;
  Obs.with_span "c" (fun () -> ());
  let snap = Obs.snapshot () in
  let find name l =
    match List.find_opt (fun s -> s.Obs.s_name = name) l with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing" name
  in
  let a = find "a" snap.Obs.spans in
  checki "a merged" 2 a.Obs.s_count;
  let b = find "b" a.Obs.s_children in
  checki "b nested under a" 2 b.Obs.s_count;
  checki "c at top level" 1 (find "c" snap.Obs.spans).Obs.s_count;
  checkb "a time covers b" true (a.Obs.s_total_s >= b.Obs.s_total_s)

let test_span_exception_closes () =
  fresh ();
  (try Obs.with_span "outer" (fun () -> failwith "boom")
   with Failure _ -> ());
  (* the stack unwound: a fresh span lands at the top level, not under
     the aborted one *)
  Obs.with_span "after" (fun () -> ());
  let snap = Obs.snapshot () in
  checkb "after is a root span" true
    (List.exists (fun s -> s.Obs.s_name = "after") snap.Obs.spans)

let test_reset () =
  fresh ();
  let c = Obs.counter "test.reset" in
  Obs.Counter.add c 5;
  Obs.with_span "test.reset_span" (fun () -> ());
  Obs.reset ();
  checki "counter zeroed" 0 (Obs.Counter.value c);
  let snap = Obs.snapshot () in
  checkb "spans cleared" true (snap.Obs.spans = []);
  Obs.Counter.incr c;
  checki "registration survives" 1 (Obs.Counter.value c)

(* ------------------------- JSON sink --------------------------------- *)

let get_exn msg = function Some x -> x | None -> Alcotest.failf "%s" msg

let member path j =
  List.fold_left
    (fun j key -> get_exn ("missing " ^ key) (Obs_json.member key j))
    j path

let test_json_roundtrip () =
  fresh ();
  Obs.Counter.add (Obs.counter "rt.counter") 17;
  Obs.Timer.record (Obs.timer "rt.timer") 0.5;
  Obs.Histogram.observe_int (Obs.histogram "rt.hist") 6;
  Obs.with_span "rt.outer" (fun () -> Obs.with_span "rt.inner" (fun () -> ()));
  let entry = { Obs_sink.id = "unit"; wall_s = 1.25; snap = Obs.snapshot () } in
  let doc = Obs_sink.json_of_report ~created:1754000000.0 [ entry ] in
  (* serialize (indented, as the CLI does) and parse back *)
  let text = Obs_json.to_string ~indent:true doc in
  let parsed =
    match Obs_json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "parse error: %s" e
  in
  checks "schema" "ftspan.metrics.v1"
    (get_exn "schema str" (Obs_json.to_str (member [ "schema" ] parsed)));
  let entries =
    get_exn "entries" (Obs_json.to_list (member [ "entries" ] parsed))
  in
  checki "one entry" 1 (List.length entries);
  let e = List.hd entries in
  checks "id" "unit" (get_exn "id" (Obs_json.to_str (member [ "id" ] e)));
  checkf "wall time" 1.25
    (get_exn "wall" (Obs_json.to_number (member [ "wall_time_s" ] e)));
  checki "counter value" 17
    (get_exn "ctr" (Obs_json.to_int (member [ "counters"; "rt.counter" ] e)));
  checki "timer count" 1
    (get_exn "tc" (Obs_json.to_int (member [ "timers"; "rt.timer"; "count" ] e)));
  checkf "timer total" 0.5
    (get_exn "ts"
       (Obs_json.to_number (member [ "timers"; "rt.timer"; "total_s" ] e)));
  checkf "histogram sum" 6.0
    (get_exn "hs"
       (Obs_json.to_number (member [ "histograms"; "rt.hist"; "sum" ] e)));
  (* bucket for 6 is le=8 *)
  let buckets =
    get_exn "buckets"
      (Obs_json.to_list (member [ "histograms"; "rt.hist"; "buckets" ] e))
  in
  checkb "le=8 bucket present" true
    (List.exists
       (fun b ->
         Obs_json.to_number (member [ "le" ] b) = Some 8.0
         && Obs_json.to_int (member [ "count" ] b) = Some 1)
       buckets);
  (* span tree nests in the JSON too *)
  let spans = get_exn "spans" (Obs_json.to_list (member [ "spans" ] e)) in
  let outer =
    get_exn "rt.outer"
      (List.find_opt
         (fun s -> Obs_json.to_str (member [ "name" ] s) = Some "rt.outer")
         spans)
  in
  let children =
    get_exn "children" (Obs_json.to_list (member [ "children" ] outer))
  in
  checkb "inner nested" true
    (List.exists
       (fun s -> Obs_json.to_str (member [ "name" ] s) = Some "rt.inner")
       children)

let test_gauge_in_sink () =
  fresh ();
  Obs.Gauge.set (Obs.gauge "gauge.test.sink") 4;
  Obs.Counter.add (Obs.counter "sink.test.counter") 1;
  let entry = { Obs_sink.id = "unit"; wall_s = 0.; snap = Obs.snapshot () } in
  let doc = Obs_sink.json_of_report ~created:0. [ entry ] in
  let parsed =
    match Obs_json.of_string (Obs_json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "parse error: %s" e
  in
  let e =
    List.hd (get_exn "entries" (Obs_json.to_list (member [ "entries" ] parsed)))
  in
  (* gauges merge into the counters object — that is what makes the
     "gauge." prefix exclusion in Obs_compare meaningful *)
  checki "gauge merged into counters" 4
    (get_exn "gauge"
       (Obs_json.to_int (member [ "counters"; "gauge.test.sink" ] e)));
  checki "counters still there" 1
    (get_exn "ctr"
       (Obs_json.to_int (member [ "counters"; "sink.test.counter" ] e)))

let test_json_parser_errors () =
  checkb "trailing garbage rejected" true
    (Result.is_error (Obs_json.of_string "{} x"));
  checkb "bare word rejected" true (Result.is_error (Obs_json.of_string "nope"));
  checkb "unterminated string rejected" true
    (Result.is_error (Obs_json.of_string "\"abc"));
  (match Obs_json.of_string " [1, 2.5, null, \"s\"] " with
  | Ok (Obs_json.List [ Obs_json.Int 1; Obs_json.Float 2.5; Obs_json.Null;
                        Obs_json.String "s" ]) -> ()
  | _ -> Alcotest.fail "mixed list misparsed")

(* ------------------- trace / registry agreement ---------------------- *)

let test_trace_matches_registry () =
  fresh ();
  let r = Rng.create ~seed:2026 in
  let g = Generators.connected_gnp r ~n:40 ~p:0.2 in
  let calls0 = Obs.Counter.value (Obs.counter "lbc.calls") in
  let yes0 = Obs.Counter.value (Obs.counter "lbc.yes") in
  let rounds0 = Obs.Counter.value (Obs.counter "lbc.bfs_rounds") in
  let sel, trace = Poly_greedy.build_traced ~mode:Fault.VFT ~k:2 ~f:1 g in
  checki "lbc_calls = registry delta"
    (Obs.Counter.value (Obs.counter "lbc.calls") - calls0)
    trace.Poly_greedy.lbc_calls;
  checki "yes_answers = registry delta"
    (Obs.Counter.value (Obs.counter "lbc.yes") - yes0)
    trace.Poly_greedy.yes_answers;
  checki "bfs_rounds = registry delta"
    (Obs.Counter.value (Obs.counter "lbc.bfs_rounds") - rounds0)
    trace.Poly_greedy.bfs_rounds;
  (* registry-level invariants mirrored from the trace contract *)
  checki "one LBC call per edge" (Graph.m g) trace.Poly_greedy.lbc_calls;
  checki "yes answers = spanner size" sel.Selection.size
    trace.Poly_greedy.yes_answers;
  let snap = Obs.snapshot () in
  let cut = List.assoc "lbc.cut_size" snap.Obs.histograms in
  checki "one cut observation per Yes" trace.Poly_greedy.yes_answers
    cut.Obs.h_count;
  checkb "build span recorded" true
    (List.exists (fun s -> s.Obs.s_name = "poly_greedy.build") snap.Obs.spans)

let test_trace_zero_when_disabled () =
  fresh ();
  let r = Rng.create ~seed:7 in
  let g = Generators.connected_gnp r ~n:20 ~p:0.3 in
  Obs.set_enabled false;
  let sel, trace = Poly_greedy.build_traced ~mode:Fault.VFT ~k:2 ~f:1 g in
  Obs.set_enabled true;
  checkb "spanner still built" true (sel.Selection.size > 0);
  checki "calls zero when disabled" 0 trace.Poly_greedy.lbc_calls;
  checki "rounds zero when disabled" 0 trace.Poly_greedy.bfs_rounds;
  checki "yes zero when disabled" 0 trace.Poly_greedy.yes_answers

(* ------------------------- event trace -------------------------------- *)

(* Tracing is process-global; every trace test tears it down so later
   tests (and the registry tests above) see it disabled again. *)
let with_tracing ?capacity f =
  Obs_trace.start ?capacity ();
  Fun.protect ~finally:Obs_trace.stop f

let test_trace_ordering () =
  fresh ();
  with_tracing (fun () ->
      Obs_trace.emit (Obs_trace.Mark "first");
      Obs_trace.emit
        (Obs_trace.Lbc_begin { edge = 7; u = 1; v = 2; t = 3; alpha = 2 });
      Obs_trace.emit
        (Obs_trace.Lbc_end { edge = 7; yes = true; bfs_rounds = 3; cut_size = 2 });
      Obs_trace.emit (Obs_trace.Mark "last"));
  let evs = Obs_trace.events () in
  checki "all retained" 4 (List.length evs);
  checki "nothing dropped" 0 (Obs_trace.dropped ());
  List.iteri
    (fun i ev -> checki "seq is the emission index" i ev.Obs_trace.seq)
    evs;
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
        a.Obs_trace.ts_s <= b.Obs_trace.ts_s && nondecreasing rest
    | _ -> true
  in
  checkb "timestamps non-decreasing" true (nondecreasing evs);
  (match (List.hd evs).Obs_trace.payload with
  | Obs_trace.Mark "first" -> ()
  | _ -> Alcotest.fail "first event not first");
  match (List.nth evs 2).Obs_trace.payload with
  | Obs_trace.Lbc_end { edge = 7; yes = true; bfs_rounds = 3; cut_size = 2 } -> ()
  | _ -> Alcotest.fail "payload fields lost"

let test_trace_ring_overflow () =
  fresh ();
  with_tracing ~capacity:4 (fun () ->
      for i = 0 to 9 do
        Obs_trace.emit (Obs_trace.Phase { name = "tick"; index = i })
      done);
  checki "all emissions counted" 10 (Obs_trace.seen ());
  checki "overflow accounted" 6 (Obs_trace.dropped ());
  let evs = Obs_trace.events () in
  checki "capacity retained" 4 (List.length evs);
  (* the retained window is the newest suffix, in order *)
  List.iteri
    (fun i ev -> checki "suffix seq" (6 + i) ev.Obs_trace.seq)
    evs

let test_trace_disabled_noop () =
  fresh ();
  with_tracing (fun () -> Obs_trace.emit (Obs_trace.Mark "kept"));
  checkb "disabled after stop" false (Obs_trace.enabled ());
  Obs_trace.emit (Obs_trace.Mark "after stop");
  checki "emit after stop ignored" 1 (Obs_trace.seen ())

let test_trace_span_hook () =
  fresh ();
  with_tracing (fun () -> Obs.with_span "hooked" (fun () -> ()));
  let names =
    List.filter_map
      (fun ev ->
        match ev.Obs_trace.payload with
        | Obs_trace.Span_begin n -> Some (`B, n)
        | Obs_trace.Span_end n -> Some (`E, n)
        | _ -> None)
      (Obs_trace.events ())
  in
  checkb "with_span recorded begin+end" true
    (names = [ (`B, "hooked"); (`E, "hooked") ]);
  (* the hook is gone after stop: spans no longer emit *)
  Obs.with_span "unhooked" (fun () -> ());
  checki "no events after stop" 2 (Obs_trace.seen ())

let test_chrome_wellformed () =
  fresh ();
  with_tracing (fun () ->
      Obs.with_span "outer" (fun () ->
          Obs_trace.emit
            (Obs_trace.Lbc_begin { edge = 3; u = 0; v = 1; t = 3; alpha = 1 });
          Obs_trace.emit
            (Obs_trace.Lbc_end
               { edge = 3; yes = false; bfs_rounds = 2; cut_size = 0 });
          Obs_trace.emit
            (Obs_trace.Greedy_edge { edge = 3; kept = false; weight = 1.0 });
          Obs_trace.emit
            (Obs_trace.Congest_round { round = 1; messages = 8; bits = 512 })));
  let text = Obs_json.to_string ~indent:true (Obs_trace.to_chrome ()) in
  let parsed =
    match Obs_json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  in
  let evs = get_exn "top-level array" (Obs_json.to_list parsed) in
  checkb "non-empty" true (List.length evs > 0);
  (* the invariant the chrome://tracing importer needs: every element is
     an object carrying name/ph/ts/pid/tid *)
  List.iter
    (fun e ->
      ignore (get_exn "name" (Obs_json.to_str (member [ "name" ] e)));
      ignore (get_exn "ph" (Obs_json.to_str (member [ "ph" ] e)));
      ignore (get_exn "ts" (Obs_json.to_number (member [ "ts" ] e)));
      ignore (get_exn "pid" (Obs_json.to_int (member [ "pid" ] e)));
      ignore (get_exn "tid" (Obs_json.to_int (member [ "tid" ] e))))
    evs;
  let phs =
    List.filter_map (fun e -> Obs_json.to_str (member [ "ph" ] e)) evs
  in
  let count ph = List.length (List.filter (( = ) ph) phs) in
  checki "balanced duration events" (count "B") (count "E");
  checkb "counter track present" true (count "C" > 0);
  checkb "instant event present" true (count "i" > 0)

let test_chrome_unmatched_end_elided () =
  fresh ();
  (* capacity 2: the Begin is overwritten, only Span_end + Mark survive *)
  with_tracing ~capacity:2 (fun () ->
      Obs_trace.emit (Obs_trace.Span_begin "lost");
      Obs_trace.emit (Obs_trace.Span_end "lost");
      Obs_trace.emit (Obs_trace.Mark "tail"));
  let evs =
    get_exn "array" (Obs_json.to_list (Obs_trace.to_chrome ()))
  in
  checkb "orphan E elided" true
    (List.for_all
       (fun e -> Obs_json.to_str (member [ "ph" ] e) <> Some "E")
       evs)

let test_native_trace_roundtrip () =
  fresh ();
  with_tracing (fun () ->
      Obs_trace.emit
        (Obs_trace.Cluster_stats { partition = 0; clusters = 5; max_depth = 2 }));
  let text = Obs_json.to_string ~indent:true (Obs_trace.to_json ()) in
  let parsed =
    match Obs_json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "native trace unparseable: %s" e
  in
  checks "schema" "ftspan.trace.v1"
    (get_exn "schema" (Obs_json.to_str (member [ "schema" ] parsed)));
  checki "dropped field" 0
    (get_exn "dropped" (Obs_json.to_int (member [ "dropped" ] parsed)));
  let evs = get_exn "events" (Obs_json.to_list (member [ "events" ] parsed)) in
  checki "one event" 1 (List.length evs);
  checks "typed record" "cluster_stats"
    (get_exn "type" (Obs_json.to_str (member [ "type" ] (List.hd evs))))

(* ------------------------- trace sampling ----------------------------- *)

let emit_mixed_workload () =
  for i = 0 to 199 do
    Obs_trace.emit (Obs_trace.Lbc_begin { edge = i; u = 0; v = 1; t = 3; alpha = 1 });
    Obs_trace.emit
      (Obs_trace.Lbc_end
         { edge = i; yes = i mod 3 = 0; bfs_rounds = 2; cut_size = 0 });
    Obs_trace.emit (Obs_trace.Greedy_edge { edge = i; kept = i mod 3 = 0; weight = 1.0 });
    if i mod 50 = 0 then
      Obs_trace.emit (Obs_trace.Phase { name = "block"; index = i / 50 })
  done;
  Obs_trace.emit (Obs_trace.Chaos_event { kind = "crash"; cid = -1; src = 3; dst = -1 })

let sampled_run ?sample ?sample_seed () =
  Obs_trace.start ?sample ?sample_seed ();
  Fun.protect ~finally:Obs_trace.stop (fun () ->
      emit_mixed_workload ();
      let evs =
        List.map
          (fun ev -> (ev.Obs_trace.seq, ev.Obs_trace.payload))
          (Obs_trace.events ())
      in
      (evs, Obs_trace.seen (), Obs_trace.sampled (), Obs_trace.dropped ()))

let test_sampling_accounting () =
  fresh ();
  let evs, seen, sampled, dropped = sampled_run ~sample:(Obs_trace.Rate 0.1) () in
  checki "every emission seen" 605 seen;
  checkb "a strict subset admitted" true (sampled > 0 && sampled < seen);
  checki "retained = admitted (no ring overflow)" sampled (List.length evs);
  checki "seen = retained + dropped" seen (List.length evs + dropped);
  (* phase markers and fault events bypass the sampler *)
  let count p = List.length (List.filter (fun (_, pl) -> p pl) evs) in
  checki "all phases kept" 4
    (count (function Obs_trace.Phase _ -> true | _ -> false));
  checki "crash kept" 1
    (count (function Obs_trace.Chaos_event { kind = "crash"; _ } -> true | _ -> false));
  (* Lbc begin/end are pair-sampled: balanced per edge *)
  let begins =
    List.filter_map
      (fun (_, pl) ->
        match pl with Obs_trace.Lbc_begin { edge; _ } -> Some edge | _ -> None)
      evs
  in
  let ends =
    List.filter_map
      (fun (_, pl) ->
        match pl with Obs_trace.Lbc_end { edge; _ } -> Some edge | _ -> None)
      evs
  in
  checkb "lbc pairs balanced" true (List.sort compare begins = List.sort compare ends)

let test_sampling_deterministic () =
  fresh ();
  let a = sampled_run ~sample:(Obs_trace.Rate 0.25) ~sample_seed:42 () in
  fresh ();
  let b = sampled_run ~sample:(Obs_trace.Rate 0.25) ~sample_seed:42 () in
  let evs_a, _, _, _ = a and evs_b, _, _, _ = b in
  checkb "same seed -> identical kept set" true (evs_a = evs_b);
  fresh ();
  let evs_c, _, _, _ = sampled_run ~sample:(Obs_trace.Rate 0.25) ~sample_seed:43 () in
  checkb "different seed -> different kept set" true (evs_a <> evs_c)

let test_sampling_one_in_n () =
  fresh ();
  (* 1/1 keeps everything — the sampler is bypassed entirely *)
  let evs, seen, sampled, dropped = sampled_run ~sample:(Obs_trace.One_in 1) () in
  checki "1/1 keeps all" seen sampled;
  checki "1/1 drops none" 0 dropped;
  checki "1/1 retains all" seen (List.length evs);
  checkb "invalid rate rejected" true
    (try
       Obs_trace.start ~sample:(Obs_trace.Rate 1.5) ();
       Obs_trace.stop ();
       false
     with Invalid_argument _ -> true)

let test_trace_spec_parsing () =
  let ok s = function
    | Ok spec -> spec
    | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg
  in
  let spec = ok "t.json" (Obs_trace.parse_spec "t.json") in
  checks "bare file" "t.json" spec.Obs_trace.file;
  checkb "default native" true (spec.Obs_trace.format = Obs_trace.Native);
  checkb "default unsampled" true (spec.Obs_trace.sample = None);
  let spec = ok "full" (Obs_trace.parse_spec "t.json,chrome,sample=1/8,seed=7") in
  checkb "chrome parsed" true (spec.Obs_trace.format = Obs_trace.Chrome);
  checkb "1/N parsed" true (spec.Obs_trace.sample = Some (Obs_trace.One_in 8));
  checki "seed parsed" 7 spec.Obs_trace.sample_seed;
  let spec = ok "rate" (Obs_trace.parse_spec "t.json,sample=0.01") in
  checkb "rate parsed" true (spec.Obs_trace.sample = Some (Obs_trace.Rate 0.01));
  List.iter
    (fun s ->
      checkb ("rejected: " ^ s) true (Result.is_error (Obs_trace.parse_spec s)))
    [ ""; ",chrome"; "t.json,sample=nope"; "t.json,sample=2.0"; "t.json,sample=1/0"; "t.json,seed=x" ]

(* ----------------------- causal-id sampling --------------------------- *)

(* 60 message lifecycles on one edge: send, a "retransmit" fate, deliver.
   Under cid pair-sampling a kept message keeps all three events and a
   dropped one keeps none. *)
let emit_lifecycles () =
  for i = 0 to 59 do
    let cid = Obs_trace.mint_cid () in
    let at = float_of_int i in
    Obs_trace.emit (Obs_trace.Msg_send { cid; src = 0; dst = 1; at; bits = 8 });
    Obs_trace.emit
      (Obs_trace.Chaos_event { kind = "retransmit"; cid; src = 0; dst = 1 });
    Obs_trace.emit
      (Obs_trace.Msg_deliver { cid; src = 0; dst = 1; at = at +. 0.5 })
  done

let cid_sampled_run seed =
  Obs_trace.start ~sample:(Obs_trace.Rate 0.2) ~sample_seed:seed ();
  Fun.protect ~finally:Obs_trace.stop (fun () ->
      emit_lifecycles ();
      List.map (fun e -> e.Obs_trace.payload) (Obs_trace.events ()))

let test_cid_pair_sampling () =
  fresh ();
  let evs = cid_sampled_run 5 in
  let tally = Hashtbl.create 64 in
  let bump cid = Hashtbl.replace tally cid (1 + Option.value ~default:0 (Hashtbl.find_opt tally cid)) in
  List.iter
    (function
      | Obs_trace.Msg_send { cid; _ }
      | Obs_trace.Msg_deliver { cid; _ }
      | Obs_trace.Chaos_event { cid; _ } -> bump cid
      | _ -> ())
    evs;
  checkb "a strict subset of lifecycles kept" true
    (Hashtbl.length tally > 0 && Hashtbl.length tally < 60);
  Hashtbl.iter
    (fun cid n -> checki (Printf.sprintf "cid %d kept whole" cid) 3 n)
    tally;
  (* seeded replay keeps the identical set *)
  fresh ();
  let evs' = cid_sampled_run 5 in
  checkb "same seed -> same kept lifecycles" true (evs = evs');
  fresh ();
  let evs'' = cid_sampled_run 6 in
  checkb "different seed -> different kept set" true (evs <> evs'')

let test_cid_minting_resets () =
  fresh ();
  Obs_trace.start ();
  let first = Obs_trace.mint_cid () in
  ignore (Obs_trace.mint_cid ());
  Obs_trace.stop ();
  checki "cids start at zero" 0 first;
  Obs_trace.start ();
  let again = Obs_trace.mint_cid () in
  Obs_trace.stop ();
  checki "start resets the mint" 0 again

(* --------------------------- trace analysis --------------------------- *)

let parsed_trace () =
  match Obs_analyze.parse (Obs_trace.to_json ()) with
  | Ok tr -> tr
  | Error msg -> Alcotest.failf "trace rejected: %s" msg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A hand-built run with known lifecycles:
     A: 0->1, sent at 1.0, dropped, retransmitted at 2.0, delivered 3.0
     B: 0->1, sent at 1.5, delivered 2.0  (overtakes A on the wire)
     C: 1->0, sent at 0.5, never delivered, given up
   plus pulse-1 entries: node 0 at 2.0, node 1 at 2.5 (node 1 gates). *)
let emit_known_run () =
  let a = Obs_trace.mint_cid () in
  Obs_trace.emit (Obs_trace.Msg_send { cid = a; src = 0; dst = 1; at = 1.0; bits = 8 });
  Obs_trace.emit (Obs_trace.Chaos_event { kind = "drop"; cid = a; src = 0; dst = 1 });
  Obs_trace.emit (Obs_trace.Chaos_event { kind = "retransmit"; cid = a; src = 0; dst = 1 });
  Obs_trace.emit (Obs_trace.Msg_send { cid = a; src = 0; dst = 1; at = 2.0; bits = 8 });
  let b = Obs_trace.mint_cid () in
  Obs_trace.emit (Obs_trace.Msg_send { cid = b; src = 0; dst = 1; at = 1.5; bits = 8 });
  Obs_trace.emit (Obs_trace.Msg_deliver { cid = b; src = 0; dst = 1; at = 2.0 });
  Obs_trace.emit (Obs_trace.Msg_deliver { cid = a; src = 0; dst = 1; at = 3.0 });
  let c = Obs_trace.mint_cid () in
  Obs_trace.emit (Obs_trace.Msg_send { cid = c; src = 1; dst = 0; at = 0.5; bits = 4 });
  Obs_trace.emit (Obs_trace.Chaos_event { kind = "giveup"; cid = c; src = 1; dst = 0 });
  Obs_trace.emit (Obs_trace.Sync_pulse { node = 0; pulse = 1; at = 2.0 });
  Obs_trace.emit (Obs_trace.Sync_pulse { node = 1; pulse = 1; at = 2.5 })

let test_analyze_lifecycles () =
  fresh ();
  Obs_trace.start ();
  emit_known_run ();
  Obs_trace.stop ();
  let tr = parsed_trace () in
  checkb "well-formed" true (Obs_analyze.validate tr = []);
  let r = Obs_analyze.analyze tr in
  checki "messages" 3 r.Obs_analyze.a_messages;
  checki "delivered" 2 r.Obs_analyze.a_delivered;
  checki "sends" 4 r.Obs_analyze.a_sends;
  checki "delivers" 2 r.Obs_analyze.a_delivers;
  checki "retransmits" 1 r.Obs_analyze.a_retransmits;
  checki "giveups" 1 r.Obs_analyze.a_giveups;
  checki "drops" 1 r.Obs_analyze.a_drops;
  (* latencies from first send: A = 3.0 - 1.0 = 2.0, B = 0.5 *)
  checkf "mean latency" 1.25 r.Obs_analyze.a_latency_mean;
  checkf "max latency" 2.0 r.Obs_analyze.a_latency_max;
  let q label =
    match
      List.find_opt (fun q -> q.Obs_analyze.q_label = label) r.Obs_analyze.a_latency
    with
    | Some q -> q.Obs_analyze.q_value
    | None -> Alcotest.failf "missing quantile %s" label
  in
  checkf "p50 exact" 0.5 (q "p50");
  checkf "p99 exact" 2.0 (q "p99");
  (* B (sent second) delivered before A: one inversion of depth 1 *)
  checki "reordered deliveries" 1 r.Obs_analyze.a_reordered;
  checki "max reorder depth" 1 r.Obs_analyze.a_max_reorder;
  (* busiest edge 0->1: 2 messages, 3 sends -> amplification 1.5 *)
  (match r.Obs_analyze.a_edges with
  | e :: _ ->
      checki "edge src" 0 e.Obs_analyze.e_src;
      checki "edge dst" 1 e.Obs_analyze.e_dst;
      checki "edge msgs" 2 e.Obs_analyze.e_msgs;
      checki "edge sends" 3 e.Obs_analyze.e_sends;
      checki "edge retransmits" 1 e.Obs_analyze.e_retransmits;
      checkf "amplification" 1.5 e.Obs_analyze.e_amplification
  | [] -> Alcotest.fail "no edges in report");
  checki "edges with traffic" 2 r.Obs_analyze.a_edges_total;
  (* pulse 1 gated by node 1 (enters last); its latest delivery at or
     before the entry is B, 0->1 at 2.0 *)
  match r.Obs_analyze.a_pulses with
  | [ p ] ->
      checki "gating node" 1 p.Obs_analyze.p_node;
      checkf "pulse entry" 2.5 p.Obs_analyze.p_at;
      checkb "gating edge" true (p.Obs_analyze.p_gate = Some (0, 1, 2.0))
  | ps -> Alcotest.failf "expected one pulse, got %d" (List.length ps)

let test_analyze_report_renders () =
  fresh ();
  Obs_trace.start ();
  emit_known_run ();
  Obs_trace.stop ();
  let r = Obs_analyze.analyze (parsed_trace ()) in
  let text = Format.asprintf "%a" Obs_analyze.pp_report r in
  checkb "text mentions critical path" true (contains text "critical path");
  let doc = Obs_analyze.json_of_report r in
  match Obs_json.of_string (Obs_json.to_string ~indent:true doc) with
  | Error e -> Alcotest.failf "report JSON unparseable: %s" e
  | Ok j ->
      checks "report schema" "ftspan.trace-report.v1"
        (get_exn "schema" (Obs_json.to_str (member [ "schema" ] j)));
      checki "retransmits round-trip" 1
        (get_exn "retransmits" (Obs_json.to_int (member [ "retransmits" ] j)))

let trace_doc ?(schema = "ftspan.trace.v1") ?(seen = 1) ?(sampled = 1)
    ?(dropped = 0) events =
  Obs_json.Obj
    [
      ("schema", Obs_json.String schema);
      ("seen", Obs_json.Int seen);
      ("sampled", Obs_json.Int sampled);
      ("dropped", Obs_json.Int dropped);
      ("events", Obs_json.List events);
    ]

let deliver_event seq cid =
  Obs_json.Obj
    [
      ("seq", Obs_json.Int seq);
      ("ts_s", Obs_json.Float 0.);
      ("type", Obs_json.String "msg_deliver");
      ("cid", Obs_json.Int cid);
      ("src", Obs_json.Int 0);
      ("dst", Obs_json.Int 1);
      ("at", Obs_json.Float 1.0);
    ]

let test_analyze_validation () =
  checkb "wrong schema is a parse error" true
    (Result.is_error (Obs_analyze.parse (trace_doc ~schema:"other.v1" [])));
  checkb "missing top-level field is a parse error" true
    (Result.is_error
       (Obs_analyze.parse (Obs_json.Obj [ ("schema", Obs_json.String "ftspan.trace.v1") ])));
  let ok_parse d =
    match Obs_analyze.parse d with
    | Ok tr -> tr
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  (* a lossless trace with a delivery but no send violates the lifecycle
     contract ... *)
  let tr = ok_parse (trace_doc [ deliver_event 0 7 ]) in
  checkb "orphan delivery flagged" true
    (List.exists (fun v -> contains v "without a send") (Obs_analyze.validate tr));
  (* ... but sampling (dropped > 0) excuses the missing send *)
  let tr = ok_parse (trace_doc ~seen:2 ~dropped:1 [ deliver_event 0 7 ]) in
  checkb "sampled trace excused" true (Obs_analyze.validate tr = []);
  (* non-monotonic seqs *)
  let tr =
    ok_parse (trace_doc ~seen:2 ~sampled:2 [ deliver_event 5 7; deliver_event 3 7 ])
  in
  checkb "non-monotonic seq flagged" true
    (List.exists (fun v -> contains v "non-monotonic") (Obs_analyze.validate tr));
  (* an event of a known type missing its fields *)
  let bad =
    Obs_json.Obj
      [ ("seq", Obs_json.Int 0); ("type", Obs_json.String "msg_send") ]
  in
  let tr = ok_parse (trace_doc [ bad ]) in
  checkb "malformed typed event flagged" true (Obs_analyze.validate tr <> []);
  (* unknown event types are fine (forward compatibility) *)
  let other =
    Obs_json.Obj
      [ ("seq", Obs_json.Int 0); ("type", Obs_json.String "mystery") ]
  in
  checkb "unknown type tolerated" true
    (Obs_analyze.validate (ok_parse (trace_doc [ other ])) = [])

(* --------------------------- heartbeat -------------------------------- *)

let test_heartbeat_spec_parsing () =
  let ok s = function
    | Ok spec -> spec
    | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg
  in
  let spec = ok "bare" (Obs_heartbeat.parse_spec "hb.jsonl") in
  checks "file" "hb.jsonl" spec.Obs_heartbeat.file;
  checkb "no interval" true (spec.Obs_heartbeat.interval_s = None);
  checkb "no ops" true (spec.Obs_heartbeat.every_ops = None);
  let spec = ok "interval" (Obs_heartbeat.parse_spec "hb.jsonl,0.5") in
  checkb "interval parsed" true (spec.Obs_heartbeat.interval_s = Some 0.5);
  let spec = ok "ops" (Obs_heartbeat.parse_spec "hb.jsonl,ops=4096") in
  checkb "ops parsed" true (spec.Obs_heartbeat.every_ops = Some 4096);
  List.iter
    (fun s ->
      checkb ("rejected: " ^ s) true
        (Result.is_error (Obs_heartbeat.parse_spec s)))
    [ ""; ",0.5"; "hb.jsonl,ops=0"; "hb.jsonl,ops=x"; "hb.jsonl,-1.0"; "hb.jsonl,0" ]

let test_heartbeat_stream () =
  fresh ();
  let file = Filename.temp_file "ftspan_hb" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      (match Obs_heartbeat.parse_spec (file ^ ",ops=10") with
      | Ok spec -> Obs_heartbeat.start spec
      | Error msg -> Alcotest.failf "spec rejected: %s" msg);
      let c = Obs.counter "test.hb_counter" in
      let h = Obs.histogram_log "test.hb_lat" in
      for i = 1 to 35 do
        Obs.Counter.incr c;
        Obs.Histogram.observe h (0.001 *. float_of_int i);
        Obs_heartbeat.pulse ()
      done;
      Obs_heartbeat.stop ();
      (* 3 cadence beats (ops 10/20/30) + the final beat on stop *)
      checki "beats counted" 4 (Obs_heartbeat.beats ());
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      checki "one line per beat" 4 (List.length lines);
      let beats =
        List.map
          (fun line ->
            match Obs_json.of_string line with
            | Ok j -> j
            | Error e -> Alcotest.failf "beat unparseable: %s" e)
          lines
      in
      List.iteri
        (fun i j ->
          checks "schema" "ftspan.heartbeat.v1"
            (get_exn "schema" (Obs_json.to_str (member [ "schema" ] j)));
          checki "beat index" i
            (get_exn "beat" (Obs_json.to_int (member [ "beat" ] j))))
        beats;
      (* counters carry deltas since the previous beat: 10,10,10,5 *)
      let deltas =
        List.map
          (fun j ->
            get_exn "delta"
              (Obs_json.to_int (member [ "counters"; "test.hb_counter" ] j)))
          beats
      in
      checkb "counter deltas" true (deltas = [ 10; 10; 10; 5 ]);
      (* every beat carries the latency quantiles *)
      List.iter
        (fun j ->
          ignore
            (get_exn "p99"
               (Obs_json.to_number (member [ "quantiles"; "test.hb_lat"; "p99" ] j))))
        beats)

let test_heartbeat_skipped_and_gauges () =
  fresh ();
  let file = Filename.temp_file "ftspan_hb" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      (match Obs_heartbeat.parse_spec (file ^ ",ops=5") with
      | Ok spec -> Obs_heartbeat.start spec
      | Error msg -> Alcotest.failf "spec rejected: %s" msg);
      Obs.Gauge.set (Obs.gauge "gauge.test.hb") 3;
      for _ = 1 to 7 do
        Obs_heartbeat.pulse ()
      done;
      Obs_heartbeat.stop ();
      (* single-threaded: the try_lock never loses *)
      checki "no beats skipped without contention" 0 (Obs_heartbeat.skipped ());
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let beats =
        List.map
          (fun line ->
            match Obs_json.of_string line with
            | Ok j -> j
            | Error e -> Alcotest.failf "beat unparseable: %s" e)
          (List.rev !lines)
      in
      checki "cadence beat + final beat" 2 (List.length beats);
      List.iter
        (fun j ->
          checki "skipped field present and zero" 0
            (get_exn "skipped" (Obs_json.to_int (member [ "skipped" ] j)));
          (* gauges report absolute values, not deltas *)
          checki "gauge level in beat" 3
            (get_exn "gauge"
               (Obs_json.to_int (member [ "gauges"; "gauge.test.hb" ] j))))
        beats)

(* --------------------------- compare ---------------------------------- *)

let report entries =
  Obs_json.Obj
    [
      ("schema", Obs_json.String "ftspan.metrics.v1");
      ("created_unix", Obs_json.Float 0.);
      ("entries", Obs_json.List entries);
    ]

let entry id wall counters =
  Obs_json.Obj
    [
      ("id", Obs_json.String id);
      ("wall_time_s", Obs_json.Float wall);
      ( "counters",
        Obs_json.Obj (List.map (fun (n, v) -> (n, Obs_json.Int v)) counters) );
      ("timers", Obs_json.Obj []);
      ("histograms", Obs_json.Obj []);
      ("spans", Obs_json.List []);
    ]

let run_compare base run =
  match Obs_compare.compare_reports base run with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "compare failed: %s" msg

let verdict_of findings metric =
  match List.find_opt (fun f -> f.Obs_compare.metric = metric) findings with
  | Some f -> f.Obs_compare.verdict
  | None -> Alcotest.failf "no finding for %s" metric

let test_compare_within () =
  let base = report [ entry "e" 1.0 [ ("lbc.calls", 100) ] ] in
  let run = report [ entry "e" 1.1 [ ("lbc.calls", 110) ] ] in
  let fs = run_compare base run in
  checkb "no regression" false (Obs_compare.regressed fs);
  checkb "wall within" true (verdict_of fs "wall_time_s" = Obs_compare.Within);
  checkb "counter within" true (verdict_of fs "lbc.calls" = Obs_compare.Within)

let test_compare_regression () =
  let base = report [ entry "e" 1.0 [ ("lbc.calls", 100) ] ] in
  (* default counter tolerance is +25%: 126 > 125 regresses *)
  let run = report [ entry "e" 1.0 [ ("lbc.calls", 126) ] ] in
  let fs = run_compare base run in
  checkb "counter regression flagged" true
    (verdict_of fs "lbc.calls" = Obs_compare.Regression);
  checkb "gate trips" true (Obs_compare.regressed fs);
  (* ... and a doubled tolerance lets the same pair through *)
  let tol = Obs_compare.scale 2. Obs_compare.default_tolerances in
  match Obs_compare.compare_reports ~tol base run with
  | Ok fs -> checkb "slack 2 passes" false (Obs_compare.regressed fs)
  | Error msg -> Alcotest.failf "compare failed: %s" msg

let test_compare_wall_regression () =
  (* wall tolerance is relative + absolute floor: base*(1+1.5)+0.25 *)
  let base = report [ entry "e" 1.0 [] ] in
  let slow = report [ entry "e" 2.75 [] ] in
  let too_slow = report [ entry "e" 2.76 [] ] in
  checkb "at the limit passes" false
    (Obs_compare.regressed (run_compare base slow));
  checkb "past the limit fails" true
    (Obs_compare.regressed (run_compare base too_slow))

let test_compare_missing_and_new () =
  let base = report [ entry "e" 1.0 [ ("old.counter", 5) ] ] in
  let run = report [ entry "e" 1.0 [ ("new.counter", 7) ] ] in
  let fs = run_compare base run in
  checkb "baseline metric gone from run" true
    (verdict_of fs "old.counter" = Obs_compare.Missing);
  checkb "missing trips the gate" true (Obs_compare.regressed fs);
  checkb "metric missing from baseline is informational" true
    (verdict_of fs "new.counter" = Obs_compare.New);
  (* a run-only metric alone must not trip the gate *)
  let base2 = report [ entry "e" 1.0 [] ] in
  checkb "new metric alone passes" false
    (Obs_compare.regressed (run_compare base2 run))

let test_compare_missing_entry () =
  let base = report [ entry "gone" 1.0 [] ] in
  let run = report [] in
  let fs = run_compare base run in
  checkb "missing entry trips the gate" true (Obs_compare.regressed fs);
  checkb "flagged as entry-level" true
    (verdict_of fs "(entry)" = Obs_compare.Missing)

let test_compare_bad_schema () =
  let bad = Obs_json.Obj [ ("schema", Obs_json.String "other.v9") ] in
  checkb "wrong schema rejected" true
    (Result.is_error (Obs_compare.compare_reports bad (report [])))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind mismatch" `Quick test_counter_kind_mismatch;
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram overflow" `Quick test_histogram_overflow;
          Alcotest.test_case "histogram bucket placement" `Quick test_bucket_placement;
          Alcotest.test_case "histogram observe allocation" `Quick
            test_observe_allocation;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "gauge sharded" `Quick test_gauge_sharded;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "edge cases" `Quick test_quantile_edges;
          Alcotest.test_case "monotone and accurate" `Quick test_quantile_order;
          Alcotest.test_case "snapshot carries quantiles" `Quick
            test_quantiles_in_snapshot;
        ] );
      ( "shards",
        [
          Alcotest.test_case "merge equals single-domain totals" `Quick
            test_shard_merge_equals_single;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and merge" `Quick test_span_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception_closes;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "json",
        [
          Alcotest.test_case "report round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "gauges merge into counters" `Quick
            test_gauge_in_sink;
          Alcotest.test_case "parser errors" `Quick test_json_parser_errors;
        ] );
      ( "integration",
        [
          Alcotest.test_case "trace = registry deltas" `Quick
            test_trace_matches_registry;
          Alcotest.test_case "trace zero when disabled" `Quick
            test_trace_zero_when_disabled;
        ] );
      ( "event trace",
        [
          Alcotest.test_case "ordering" `Quick test_trace_ordering;
          Alcotest.test_case "ring overflow" `Quick test_trace_ring_overflow;
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "span hook" `Quick test_trace_span_hook;
          Alcotest.test_case "chrome well-formed" `Quick test_chrome_wellformed;
          Alcotest.test_case "chrome orphan end elided" `Quick
            test_chrome_unmatched_end_elided;
          Alcotest.test_case "native round-trip" `Quick
            test_native_trace_roundtrip;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "accounting" `Quick test_sampling_accounting;
          Alcotest.test_case "seeded determinism" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "one-in-n" `Quick test_sampling_one_in_n;
          Alcotest.test_case "cid lifecycles" `Quick test_cid_pair_sampling;
          Alcotest.test_case "cid minting resets" `Quick
            test_cid_minting_resets;
          Alcotest.test_case "spec parsing" `Quick test_trace_spec_parsing;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "spec parsing" `Quick test_heartbeat_spec_parsing;
          Alcotest.test_case "jsonl stream" `Quick test_heartbeat_stream;
          Alcotest.test_case "skipped + gauges" `Quick
            test_heartbeat_skipped_and_gauges;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "lifecycle report" `Quick test_analyze_lifecycles;
          Alcotest.test_case "rendering" `Quick test_analyze_report_renders;
          Alcotest.test_case "validation" `Quick test_analyze_validation;
        ] );
      ( "compare",
        [
          Alcotest.test_case "within tolerance" `Quick test_compare_within;
          Alcotest.test_case "counter regression" `Quick test_compare_regression;
          Alcotest.test_case "wall regression" `Quick
            test_compare_wall_regression;
          Alcotest.test_case "missing and new metrics" `Quick
            test_compare_missing_and_new;
          Alcotest.test_case "missing entry" `Quick test_compare_missing_entry;
          Alcotest.test_case "bad schema" `Quick test_compare_bad_schema;
        ] );
    ]
