(* Tests for the fault-injection layer (Chaos), the chaos-aware simulators
   and the reliable-delivery protocol (Reliable): seeded determinism, each
   fault kind in isolation on the raw network, protocol masking, and
   end-to-end "same spanner as the chaos-free run" on the Section 5
   constructions. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------- seeded determinism ------------------------- *)

(* Drive the same traffic through two networks armed with the same plan:
   every per-round inbox and the fault tally must coincide.  A third
   network with a different fault seed must diverge somewhere. *)
let drive_schedule ~seed =
  let g = Generators.complete 5 in
  let ch = Chaos.start (Chaos.plan ~drop:0.3 ~dup:0.2 ~reorder:2 ~seed ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 8) g in
  let schedule = ref [] in
  for round = 0 to 19 do
    for src = 0 to 4 do
      Net.broadcast net ~src (round, src)
    done;
    Net.next_round net;
    for v = 0 to 4 do
      schedule := (round, v, Net.inbox net v) :: !schedule
    done
  done;
  (!schedule, Chaos.counts ch)

let test_same_seed_same_schedule () =
  let s1, c1 = drive_schedule ~seed:42 in
  let s2, c2 = drive_schedule ~seed:42 in
  checkb "same seed, same schedule" true (s1 = s2);
  checkb "same seed, same counts" true (c1 = c2);
  checkb "faults actually injected" true (c1.Chaos.c_drops > 0);
  let s3, _ = drive_schedule ~seed:43 in
  checkb "different seed, different schedule" true (s1 <> s3)

let test_chaos_stream_is_private () =
  (* The algorithm's generator is untouched by fault draws: the same
     algorithm rng produces the same values with and without chaos. *)
  let draw_with chaos =
    let g = Generators.complete 4 in
    let net =
      match chaos with
      | None -> Net.create ~model:Net.Local ~bits:(fun _ -> 1) g
      | Some ch -> Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 1) g
    in
    let rng = Rng.create ~seed:5 in
    let out = ref [] in
    for _ = 1 to 10 do
      Net.broadcast net ~src:0 ();
      Net.next_round net;
      out := Rng.int rng 1000 :: !out
    done;
    !out
  in
  let clean = draw_with None in
  let chaotic =
    draw_with (Some (Chaos.start (Chaos.plan ~drop:0.5 ~dup:0.5 ~reorder:3 ())))
  in
  checkb "algorithm draws unchanged under chaos" true (clean = chaotic)

(* ------------------------ faults in isolation ------------------------- *)

let test_drop_only () =
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~drop:1.0 ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Net.next_round net;
  checki "nothing delivered" 0 (List.length (Net.inbox net 1));
  checki "all drops counted" 20 (Chaos.counts ch).Chaos.c_drops;
  checki "no dups" 0 (Chaos.counts ch).Chaos.c_dups;
  (* offered-load accounting is untouched by the faults *)
  checki "sends still accounted" 20 (Net.stats net).Net.messages

let test_dup_only () =
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~dup:1.0 ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  for i = 1 to 5 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Net.next_round net;
  checki "every message doubled" 10 (List.length (Net.inbox net 1));
  checki "dups counted" 5 (Chaos.counts ch).Chaos.c_dups;
  (* one network message per copy pair was offered *)
  checki "offered load unchanged" 5 (Net.stats net).Net.messages

let test_reorder_only () =
  let lag_bound = 3 in
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~reorder:lag_bound ~seed:9 ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  let rounds = 30 in
  let deliveries = ref [] in
  for round = 0 to rounds - 1 do
    if round < 20 then Net.send net ~src:0 ~dst:1 round;
    Net.next_round net;
    List.iter
      (fun (_, tag) -> deliveries := (tag, round) :: !deliveries)
      (Net.inbox net 1)
  done;
  checki "no copy lost or duplicated" 20 (List.length !deliveries);
  List.iter
    (fun (tag, round) ->
      checkb
        (Printf.sprintf "tag %d delivered at %d within lag bound" tag round)
        true
        (round >= tag && round <= tag + lag_bound))
    !deliveries;
  let late = List.length (List.filter (fun (tag, r) -> r > tag) !deliveries) in
  checki "late copies = reorder count" late (Chaos.counts ch).Chaos.c_reorders;
  checkb "some copies actually lagged" true (late > 0)

let test_crash_window () =
  let g = Generators.path 3 in
  (* node 1 is down for rounds [1, 3) *)
  let ch = Chaos.start (Chaos.plan ~crashes:[ (1, 1., 3.) ] ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  (* sent in round 0, delivered at time 1: destination just crashed *)
  Net.send net ~src:0 ~dst:1 "lost-on-delivery";
  Net.next_round net;
  checki "delivery into the crash window is lost" 0 (List.length (Net.inbox net 1));
  (* round 1: the crashed node cannot send either *)
  Net.send net ~src:1 ~dst:2 "lost-at-send";
  Net.next_round net;
  checki "crashed sender emits nothing" 0 (List.length (Net.inbox net 2));
  (* round 2: delivery lands at time 3, the node is back *)
  Net.send net ~src:0 ~dst:1 "arrives";
  Net.next_round net;
  checki "delivery after recovery" 1 (List.length (Net.inbox net 1));
  checki "both window losses counted" 2 (Chaos.counts ch).Chaos.c_drops

(* ------------------------ physical congestion ------------------------- *)

let test_congestion_counts_duplicates () =
  (* dup=1.0 doubles every physical copy: the busiest per-edge-per-round
     load is exactly twice the clean run's, while offered load matches *)
  let flood chaos =
    let g = Generators.path 2 in
    let net =
      match chaos with
      | None -> Net.create ~model:Net.Local ~bits:(fun _ -> 4) g
      | Some ch -> Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g
    in
    for i = 1 to 5 do
      Net.send net ~src:0 ~dst:1 i
    done;
    Net.next_round net;
    net
  in
  let clean = flood None in
  let dup = flood (Some (Chaos.start (Chaos.plan ~dup:1.0 ()))) in
  let sc = Net.stats clean and sd = Net.stats dup in
  checki "clean busiest slot: 5 msgs x 4 bits" 20 sc.Net.max_edge_round_bits;
  checki "dup'd copies charge the wire twice" 40 sd.Net.max_edge_round_bits;
  checki "offered bits identical" sc.Net.total_bits sd.Net.total_bits;
  (match Net.hot_edges dup with
  | he :: _ ->
      checki "leaderboard carries the doubled load" 40 he.Net.he_bits;
      checki "slot busy for one round" 1 he.Net.he_rounds
  | [] -> Alcotest.fail "no hot edges");
  (* a crashed sender's message never touches the wire *)
  let g = Generators.path 2 in
  let ch = Chaos.start (Chaos.plan ~crashes:[ (0, 0., 10.) ] ()) in
  let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 4) g in
  Net.send net ~src:0 ~dst:1 0;
  Net.next_round net;
  checki "crashed sender charges nothing" 0
    (Net.stats net).Net.max_edge_round_bits

let test_congestion_seeded_replay () =
  let run () =
    let g = Generators.complete 5 in
    let ch =
      Chaos.start (Chaos.plan ~drop:0.3 ~dup:0.3 ~reorder:2 ~seed:21 ())
    in
    let net = Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 8) g in
    for round = 0 to 9 do
      for src = 0 to 4 do
        Net.broadcast net ~src round
      done;
      Net.next_round net
    done;
    ((Net.stats net).Net.max_edge_round_bits, Net.hot_edges net)
  in
  let m1, h1 = run () in
  let m2, h2 = run () in
  checki "max_edge_round_bits identical across replays" m1 m2;
  checkb "hot-edge leaderboard identical" true (h1 = h2);
  checkb "faults actually moved the physical load" true (m1 > 0)

let test_congestion_skeleton_attribution () =
  Obs.set_enabled true;
  Obs.reset ();
  let g = Generators.path 3 in
  (* edge 0 = {0,1} in the skeleton, edge 1 = {1,2} outside it *)
  let net = Net.create ~model:Net.Local ~bits:(fun _ -> 4) g in
  Net.set_skeleton net [| true; false |];
  for _ = 1 to 3 do
    Net.send net ~src:0 ~dst:1 0
  done;
  Net.send net ~src:1 ~dst:2 0;
  Net.next_round net;
  checki "skeleton-edge bits attributed" 12
    (Obs.Counter.value (Obs.counter "net.bits.spanner"));
  checki "off-skeleton bits attributed" 4
    (Obs.Counter.value (Obs.counter "net.bits.other"));
  checkb "size mismatch rejected" true
    (try
       Net.set_skeleton net [| true |];
       false
     with Invalid_argument _ -> true)

let test_async_skeleton_size_mismatch () =
  let net = Async_net.create (Rng.create ~seed:1) (Generators.path 3) in
  Async_net.set_skeleton net [| true; false |];
  checkb "size mismatch rejected" true
    (try
       Async_net.set_skeleton net [| true |];
       false
     with Invalid_argument _ -> true)

(* ------------------------------ pinned wire --------------------------- *)

(* One fixed plan exercising every copy fate — drop, dup, a reorder lag
   (sync) or delay spike (async), and a crash window — run with tracing
   on.  The message events and the fault tally are pinned literally, so
   any change to the order of chaos draws, cid mints or landings shows
   up here as a diff. *)

(* [~exact] prints times as hex floats and keeps the synchronizer's
   pulse entries. *)
let traced ?(exact = false) f =
  Obs_trace.start ();
  Fun.protect ~finally:Obs_trace.stop f;
  let time t = if exact then Printf.sprintf "%h" t else Printf.sprintf "%g" t in
  Obs_trace.events ()
  |> List.filter_map (fun ev ->
         match ev.Obs_trace.payload with
         | Obs_trace.Msg_send { cid; src; dst; at; _ } ->
             Some (Printf.sprintf "send %d %d>%d @%s" cid src dst (time at))
         | Obs_trace.Msg_deliver { cid; src; dst; at } ->
             Some (Printf.sprintf "deliver %d %d>%d @%s" cid src dst (time at))
         | Obs_trace.Chaos_event { kind; cid; src; dst } ->
             Some (Printf.sprintf "%s %d %d>%d" kind cid src dst)
         | Obs_trace.Sync_pulse { node; pulse; at } when exact ->
             Some (Printf.sprintf "pulse %d %d @%s" node pulse (time at))
         | _ -> None)
  |> String.concat "\n"

let tally ch =
  let c = Chaos.counts ch in
  Printf.sprintf "drops=%d dups=%d reorders=%d" c.Chaos.c_drops c.Chaos.c_dups
    c.Chaos.c_reorders

let pinned_net_events =
  {|send 0 0>2 @0
reorder 0 0>2
send 1 0>1 @0
reorder 1 0>1
send 2 1>2 @0
send 3 1>0 @0
dup 3 1>0
reorder 3 1>0
send 4 2>1 @0
reorder 4 2>1
send 5 2>0 @0
reorder 5 2>0
drop 2 1>2
deliver 3 1>0 @1
send 6 0>2 @1
drop 6 0>2
send 7 0>1 @1
reorder 7 0>1
send 8 1>2 @1
drop 8 1>2
send 9 1>0 @1
drop 9 1>0
send 10 2>1 @1
drop 10 2>1
send 11 2>0 @1
drop 11 2>0
deliver 5 2>0 @2
deliver 1 0>1 @2
send 12 0>2 @2
send 13 0>1 @2
reorder 13 0>1
send 14 1>2 @2
send 15 1>0 @2
drop 15 1>0
send 16 2>1 @2
drop 16 2>1
send 17 2>0 @2
drop 17 2>0
deliver 3 1>0 @3
deliver 4 2>1 @3
deliver 7 0>1 @3
deliver 0 0>2 @3
deliver 14 1>2 @3
deliver 12 0>2 @3
send 18 0>2 @3
drop 18 0>2
send 19 0>1 @3
reorder 19 0>1
send 20 1>2 @3
drop 20 1>2
send 21 1>0 @3
reorder 21 1>0
send 22 2>1 @3
reorder 22 2>1
send 23 2>0 @3
drop 23 2>0
deliver 13 0>1 @4
deliver 21 1>0 @5
deliver 19 0>1 @5
deliver 22 2>1 @6|}
let pinned_net_tally = "drops=12 dups=1 reorders=10"

let test_pinned_net_wire () =
  let ch =
    Chaos.start
      (Chaos.plan ~drop:0.25 ~dup:0.25 ~reorder:2 ~crashes:[ (2, 1., 3.) ]
         ~seed:17 ())
  in
  let net =
    Net.create ~chaos:ch ~model:Net.Local ~bits:(fun _ -> 8)
      (Generators.complete 3)
  in
  let events =
    traced (fun () ->
        for round = 0 to 6 do
          if round < 4 then
            for src = 0 to 2 do
              Net.broadcast net ~src round
            done;
          Net.next_round net
        done)
  in
  check Alcotest.string "net event sequence" pinned_net_events events;
  check Alcotest.string "net fault tally" pinned_net_tally (tally ch)

let pinned_async_events =
  {|send 0 0>1 @0
drop 0 0>1
send 1 0>2 @0
send 2 1>0 @0
send 3 1>2 @0
dup 3 1>2
send 4 2>0 @0
send 5 2>1 @0
spike 5 2>1
deliver 3 1>2 @0.154998
deliver 1 0>2 @0.197352
deliver 2 1>0 @0.640146
deliver 3 1>2 @0.69756
deliver 4 2>0 @0.989636
send 6 0>1 @1
drop 6 0>1
send 7 0>2 @1
send 8 1>0 @1
drop 8 1>0
send 9 1>2 @1
drop 9 1>2
send 10 2>0 @1
drop 10 2>0
send 11 2>1 @1
drop 11 2>1
deliver 5 2>1 @1.81834
deliver 7 0>2 @1.81971|}
let pinned_async_tally = "drops=6 dups=1 reorders=1"

let test_pinned_async_wire () =
  let ch =
    Chaos.start
      (Chaos.plan ~drop:0.25 ~dup:0.25 ~spike:0.3 ~crashes:[ (1, 0.5, 1.5) ]
         ~seed:17 ())
  in
  let net =
    Async_net.create (Rng.create ~seed:3) ~chaos:ch (Generators.complete 3)
  in
  let burst () =
    for src = 0 to 2 do
      for dst = 0 to 2 do
        if src <> dst then Async_net.send net ~src ~dst ignore
      done
    done
  in
  let events =
    traced (fun () ->
        burst ();
        Async_net.at net ~time:1.0 burst;
        ignore (Async_net.run net))
  in
  check Alcotest.string "async event sequence" pinned_async_events events;
  check Alcotest.string "async fault tally" pinned_async_tally (tally ch)

(* The synchronous Reliable path: a CONGEST FT build under drop, dup,
   reorder and one crash window.  Its event stream runs to thousands of
   lines, so it is pinned by length and digest, next to the protocol's
   reactions (read off the shared [net.*] counters) and the selection. *)

let pinned_reliable_events = (4838, "5ecf39b45ebf3273439832e6ac131d84")
let pinned_reliable_retransmits = 330
let pinned_reliable_giveups = 0
let pinned_reliable_selection =
  (* every edge of the 27 but edge 21 *)
  List.filter (fun e -> e <> 21) (List.init 27 Fun.id)

let test_pinned_reliable_wire () =
  let g = Generators.connected_gnp (Rng.create ~seed:104) ~n:12 ~p:0.35 in
  let chaos =
    Chaos.plan ~drop:0.2 ~dup:0.1 ~reorder:2 ~crashes:[ (3, 4., 9.) ] ~seed:29
      ()
  in
  let build ?chaos () =
    Congest_ft.build (Rng.create ~seed:6) ~c:0.2 ?chaos ~mode:Fault.VFT ~k:2
      ~f:1 g
  in
  let retries0 = Obs.Counter.value Chaos.retries_counter in
  let giveups0 = Obs.Counter.value Chaos.giveups_counter in
  let result = ref None in
  let events = traced (fun () -> result := Some (build ~chaos ())) in
  let lossy = Option.get !result in
  let lines = List.length (String.split_on_char '\n' events) in
  check
    Alcotest.(pair int string)
    "reliable event sequence" pinned_reliable_events
    (lines, Digest.to_hex (Digest.string events));
  checki "retransmits" pinned_reliable_retransmits
    (Obs.Counter.value Chaos.retries_counter - retries0);
  checki "giveups" pinned_reliable_giveups
    (Obs.Counter.value Chaos.giveups_counter - giveups0);
  let ids r = Selection.ids r.Congest_ft.selection in
  check
    (Alcotest.list Alcotest.int)
    "selection" pinned_reliable_selection (ids lossy);
  check
    (Alcotest.list Alcotest.int)
    "selection equals the chaos-free build" (ids (build ())) (ids lossy)

(* The asynchronous Reliable path: a traced synchronizer under drop,
   dup, delay spikes and a crash of two nodes, with times printed
   exactly.  Next to the event digest it pins the report, the fault
   tally and protocol reactions read off the shared [net.*] counters,
   and the two latency histograms: the smoke baseline does not gate
   [net.retries]/[net.giveups], so this is their oracle on the async
   plane. *)

let pinned_sync_events = (8185, "bd0a569f796d8331246591ad102d26bd")
let pinned_sync_report =
  "pulses=6 messages=2650 completion=0x1.d469ebe73b516p+4 \
   skew=0x1.0ef05b28df3fp+3 skeleton=49 connected=true retransmits=1230"
let pinned_sync_counters =
  "drops=1246 dups=110 reorders=490 retries=1230 giveups=35"
let pinned_sync_histograms =
  "sync.round_latency n=133 sum=0x1.016c7026415fdp+9 reliable.rtt n=605 \
   sum=0x1.85f360701b345p+10"

let test_pinned_synchronizer_wire () =
  let g = Generators.connected_gnp (Rng.create ~seed:105) ~n:24 ~p:0.25 in
  let skeleton = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  (* node 3 also goes silent on the wire, so its neighbours give up *)
  let chaos =
    Chaos.plan ~drop:0.1 ~dup:0.05 ~spike:0.2 ~crashes:[ (3, 2.5, 1e6) ]
      ~seed:31 ()
  in
  Obs.reset ();
  let report = ref None in
  let events =
    traced ~exact:true (fun () ->
        report :=
          Some
            (Synchronizer.run (Rng.create ~seed:8) ~failures:(2.5, [ 3; 11 ])
               ~chaos ~pulses:6 ~skeleton g))
  in
  let r = Option.get !report in
  let lines = List.length (String.split_on_char '\n' events) in
  check
    Alcotest.(pair int string)
    "synchronizer event sequence" pinned_sync_events
    (lines, Digest.to_hex (Digest.string events));
  check Alcotest.string "report" pinned_sync_report
    (Printf.sprintf
       "pulses=%d messages=%d completion=%h skew=%h skeleton=%d connected=%b \
        retransmits=%d"
       r.Synchronizer.pulses r.messages r.completion_time r.max_skew
       r.skeleton_edges r.survivors_connected r.retransmits);
  let counter name = Obs.Counter.value (Obs.counter name) in
  check Alcotest.string "fault tally and protocol counters"
    pinned_sync_counters
    (Printf.sprintf "drops=%d dups=%d reorders=%d retries=%d giveups=%d"
       (counter "net.drops") (counter "net.dups") (counter "net.reorders")
       (Obs.Counter.value Chaos.retries_counter)
       (Obs.Counter.value Chaos.giveups_counter));
  let hist name =
    let h = Obs.histogram_log name in
    Printf.sprintf "%s n=%d sum=%h" name (Obs.Histogram.count h)
      (Obs.Histogram.sum h)
  in
  check Alcotest.string "latency histograms" pinned_sync_histograms
    (hist "sync.round_latency" ^ " " ^ hist "reliable.rtt")

(* ----------------------------- spec grammar --------------------------- *)

let test_parse_spec () =
  (match Chaos.parse_spec "drop=0.2,dup=0.05,reorder=4,seed=7" with
  | Ok p ->
      checkb "drop" true (p.Chaos.drop = 0.2);
      checkb "dup" true (p.Chaos.dup = 0.05);
      checki "reorder" 4 p.Chaos.reorder;
      checki "seed" 7 p.Chaos.seed
  | Error e -> Alcotest.fail e);
  (match Chaos.parse_spec "crash=3@2.5,recover=3@9" with
  | Ok p -> checkb "crash window" true (p.Chaos.crashes = [ (3, 2.5, 9.) ])
  | Error e -> Alcotest.fail e);
  let rejects spec =
    match Chaos.parse_spec spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S should be rejected" spec)
    | Error _ -> ()
  in
  rejects "drop=1.5";
  rejects "frobnicate=1";
  rejects "drop";
  rejects "recover=3@9";
  (* pp round-trips through the parser *)
  match Chaos.parse_spec "drop=0.1,reorder=2,crash=1@0,recover=1@5" with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      match Chaos.parse_spec (Format.asprintf "%a" Chaos.pp_plan p) with
      | Ok p' -> checkb "pp_plan round-trips" true (p = p')
      | Error e -> Alcotest.fail e)

(* --------------------------- reliable layer --------------------------- *)

let test_reliable_passthrough_is_free () =
  let traffic create_send =
    let g = Generators.complete 4 in
    let net, send, next = create_send g in
    for round = 0 to 4 do
      for src = 0 to 3 do
        for dst = 0 to 3 do
          if src <> dst then send ~src ~dst (round * src)
        done
      done;
      next ()
    done;
    net ()
  in
  let raw =
    traffic (fun g ->
        let net = Net.create ~model:(Net.Congest 32) ~bits:(fun _ -> 16) g in
        ( (fun () -> Net.stats net),
          (fun ~src ~dst m -> Net.send net ~src ~dst m),
          fun () -> Net.next_round net ))
  in
  let wrapped =
    traffic (fun g ->
        let t = Reliable.create ~model:(Net.Congest 32) ~bits:(fun _ -> 16) g in
        ( (fun () -> Reliable.stats t),
          (fun ~src ~dst m -> Reliable.send t ~src ~dst m),
          fun () -> Reliable.next_round t ))
  in
  checkb "passthrough accounting is bit-identical" true (raw = wrapped)

let test_reliable_masks_drops () =
  let g = Generators.complete 5 in
  let chaos = Chaos.plan ~drop:0.3 ~dup:0.1 ~reorder:2 ~seed:11 () in
  let t = Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8) g in
  for round = 0 to 9 do
    for src = 0 to 4 do
      Reliable.broadcast t ~src (round, src)
    done;
    Reliable.next_round t;
    (* lockstep semantics hold exactly: every vertex sees one message per
       neighbor per logical round, in canonical sender order *)
    for v = 0 to 4 do
      let senders = List.map fst (Reliable.inbox t v) in
      let expected = List.filter (fun s -> s <> v) [ 0; 1; 2; 3; 4 ] in
      check
        (Alcotest.list Alcotest.int)
        (Printf.sprintf "round %d inbox of %d" round v)
        expected senders;
      List.iter
        (fun (s, (r, s')) ->
          checki "payload round" round r;
          checki "payload sender" s s')
        (Reliable.inbox t v)
    done
  done;
  checkb "drops forced retransmissions" true (Reliable.retransmits t > 0);
  checki "no packet abandoned" 0 (Reliable.giveups t);
  match Reliable.chaos_counts t with
  | None -> Alcotest.fail "chaos should be armed"
  | Some c -> checkb "faults were injected" true (c.Chaos.c_drops > 0)

let test_reliable_same_seed_bit_identical () =
  let run () =
    let g = Generators.complete 4 in
    let chaos = Chaos.plan ~drop:0.25 ~dup:0.1 ~seed:3 () in
    let t = Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8) g in
    let log = ref [] in
    for round = 0 to 7 do
      for src = 0 to 3 do
        Reliable.broadcast t ~src round
      done;
      Reliable.next_round t;
      for v = 0 to 3 do
        log := Reliable.inbox t v :: !log
      done
    done;
    (!log, Reliable.stats t, Reliable.retransmits t)
  in
  checkb "same seeds, same run" true (run () = run ())

let g_unacked = Obs.gauge "gauge.reliable.unacked"

(* A destination down for the whole run: every packet to it exhausts its
   retry budget, the logical round still ends, and the unacked window
   drains back to the level it started from. *)
let test_reliable_gives_up_on_dead_destination () =
  let g = Generators.complete 3 in
  let chaos = Chaos.plan ~crashes:[ (1, 0., infinity) ] ~seed:5 () in
  let t = Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8) g in
  let level0 = Obs.Gauge.value g_unacked in
  Reliable.broadcast t ~src:0 "a";
  Reliable.broadcast t ~src:2 "b";
  Reliable.next_round t;
  checki "giveups" 2 (Reliable.giveups t);
  checki "retransmits" 58 (Reliable.retransmits t);
  check
    Alcotest.(list (pair int string))
    "dead destination hears nothing" [] (Reliable.inbox t 1);
  check
    Alcotest.(list (pair int string))
    "live destination hears its neighbour" [ (0, "a") ] (Reliable.inbox t 2);
  checki "unacked gauge drained" level0 (Obs.Gauge.value g_unacked)

(* Two live networks each hold unacked sends: the shared gauge is the sum
   of their windows, and each drains only its own share. *)
let test_reliable_unacked_gauge_sums_networks () =
  let chaos = Chaos.plan ~drop:0.3 ~seed:9 () in
  let a =
    Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8)
      (Generators.complete 4)
  in
  let b =
    Reliable.create ~chaos ~model:Net.Local ~bits:(fun _ -> 8)
      (Generators.complete 3)
  in
  let level0 = Obs.Gauge.value g_unacked in
  Reliable.broadcast a ~src:0 ();
  Reliable.broadcast b ~src:1 ();
  checki "both windows counted" (level0 + 5) (Obs.Gauge.value g_unacked);
  Reliable.next_round a;
  checki "a drained, b still pending" (level0 + 2) (Obs.Gauge.value g_unacked);
  Reliable.next_round b;
  checki "both drained" level0 (Obs.Gauge.value g_unacked)

(* ------------------------ end-to-end constructions -------------------- *)

let chaos_heavy = Chaos.plan ~drop:0.2 ~dup:0.05 ~reorder:2 ~seed:21 ()

let test_congest_bs_selection_survives_chaos () =
  let g = Generators.connected_gnp (Rng.create ~seed:100) ~n:30 ~p:0.2 in
  let clean = Congest_bs.build (Rng.create ~seed:4) ~k:2 g in
  let lossy = Congest_bs.build (Rng.create ~seed:4) ~chaos:chaos_heavy ~k:2 g in
  check
    (Alcotest.list Alcotest.int)
    "same selection"
    (Selection.ids clean.Congest_bs.selection)
    (Selection.ids lossy.Congest_bs.selection);
  checkb "lossy run paid extra rounds" true
    (lossy.Congest_bs.rounds > clean.Congest_bs.rounds)

let test_congest_ft_selection_survives_chaos () =
  let g = Generators.connected_gnp (Rng.create ~seed:101) ~n:26 ~p:0.25 in
  let clean = Congest_ft.build (Rng.create ~seed:4) ~c:0.5 ~mode:Fault.VFT ~k:2 ~f:1 g in
  let lossy =
    Congest_ft.build (Rng.create ~seed:4) ~c:0.5 ~chaos:chaos_heavy
      ~mode:Fault.VFT ~k:2 ~f:1 g
  in
  check
    (Alcotest.list Alcotest.int)
    "same selection"
    (Selection.ids clean.Congest_ft.selection)
    (Selection.ids lossy.Congest_ft.selection)

let test_local_spanner_selection_survives_chaos () =
  let g = Generators.connected_gnp (Rng.create ~seed:102) ~n:40 ~p:0.15 in
  let clean =
    Local_spanner.build (Rng.create ~seed:4) ~mode:Fault.EFT ~k:2 ~f:1 g
  in
  let lossy =
    Local_spanner.build (Rng.create ~seed:4) ~chaos:chaos_heavy ~mode:Fault.EFT
      ~k:2 ~f:1 g
  in
  check
    (Alcotest.list Alcotest.int)
    "same selection"
    (Selection.ids clean.Local_spanner.selection)
    (Selection.ids lossy.Local_spanner.selection)

let test_synchronizer_completes_on_lossy_network () =
  let g = Generators.connected_gnp (Rng.create ~seed:103) ~n:40 ~p:0.15 in
  let skel = Poly_greedy.build ~mode:Fault.VFT ~k:2 ~f:1 g in
  let clean = Synchronizer.run (Rng.create ~seed:5) ~pulses:5 ~skeleton:skel g in
  let chaos = Chaos.plan ~drop:0.2 ~dup:0.05 ~seed:77 () in
  let lossy =
    Synchronizer.run (Rng.create ~seed:5) ~chaos ~pulses:5 ~skeleton:skel g
  in
  checki "all pulses completed" 5 lossy.Synchronizer.pulses;
  checki "clean run needs no retransmissions" 0 clean.Synchronizer.retransmits;
  checkb "lossy run retransmitted" true (lossy.Synchronizer.retransmits > 0);
  checkb "acks and retries cost messages" true
    (lossy.Synchronizer.messages > clean.Synchronizer.messages)

let () =
  Alcotest.run "chaos"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same schedule" `Quick
            test_same_seed_same_schedule;
          Alcotest.test_case "private fault stream" `Quick
            test_chaos_stream_is_private;
        ] );
      ( "faults in isolation",
        [
          Alcotest.test_case "drop" `Quick test_drop_only;
          Alcotest.test_case "dup" `Quick test_dup_only;
          Alcotest.test_case "reorder" `Quick test_reorder_only;
          Alcotest.test_case "crash window" `Quick test_crash_window;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "duplicates charge the wire" `Quick
            test_congestion_counts_duplicates;
          Alcotest.test_case "seeded replay identical" `Quick
            test_congestion_seeded_replay;
          Alcotest.test_case "skeleton attribution" `Quick
            test_congestion_skeleton_attribution;
          Alcotest.test_case "async skeleton size mismatch" `Quick
            test_async_skeleton_size_mismatch;
        ] );
      ( "pinned wire",
        [
          Alcotest.test_case "net traced replay" `Quick test_pinned_net_wire;
          Alcotest.test_case "async_net traced replay" `Quick
            test_pinned_async_wire;
          Alcotest.test_case "reliable traced replay" `Quick
            test_pinned_reliable_wire;
          Alcotest.test_case "synchronizer traced replay" `Quick
            test_pinned_synchronizer_wire;
        ] );
      ("spec grammar", [ Alcotest.test_case "parse" `Quick test_parse_spec ]);
      ( "reliable delivery",
        [
          Alcotest.test_case "passthrough is free" `Quick
            test_reliable_passthrough_is_free;
          Alcotest.test_case "masks drops" `Quick test_reliable_masks_drops;
          Alcotest.test_case "seeded determinism" `Quick
            test_reliable_same_seed_bit_identical;
          Alcotest.test_case "gives up on a dead destination" `Quick
            test_reliable_gives_up_on_dead_destination;
          Alcotest.test_case "unacked gauge sums networks" `Quick
            test_reliable_unacked_gauge_sums_networks;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "congest bs" `Quick
            test_congest_bs_selection_survives_chaos;
          Alcotest.test_case "congest ft" `Quick
            test_congest_ft_selection_survives_chaos;
          Alcotest.test_case "local spanner" `Quick
            test_local_spanner_selection_survives_chaos;
          Alcotest.test_case "lossy synchronizer" `Quick
            test_synchronizer_completes_on_lossy_network;
        ] );
    ]
