type report = {
  pulses : int;
  messages : int;
  completion_time : float;
  max_skew : float;
  skeleton_edges : int;
  survivors_connected : bool;
  retransmits : int;
}

(* Per-node pulse-to-pulse latency in simulated time: the α-synchronizer's
   service-level series.  Log-linear: lossy runs stretch the tail with
   retransmission backoff, which is exactly what p99/p999 should show. *)
let h_round_latency = Obs.histogram_log "sync.round_latency"

let run rng ?failures ?chaos ~pulses ~skeleton g =
  if pulses < 1 then invalid_arg "Synchronizer.run: pulses must be >= 1";
  if skeleton.Selection.source != g then
    invalid_arg "Synchronizer.run: skeleton must select edges of the given graph";
  let n = Graph.n g in
  let rel = Reliable.Async.create rng ?chaos g in
  let net = Reliable.Async.net rel in
  (* every synchronizer message travels a skeleton edge, but the
     attribution split still matters for mixed workloads sharing the
     net — and it lets the analyzer confirm exactly that *)
  Async_net.set_skeleton net skeleton.Selection.selected;
  (* Skeleton adjacency. *)
  let nbrs = Array.make n [] in
  List.iter
    (fun id ->
      let u, v = Graph.endpoints g id in
      nbrs.(u) <- v :: nbrs.(u);
      nbrs.(v) <- u :: nbrs.(v))
    (Selection.ids skeleton);
  let alive = Array.make n true in
  let pulse = Array.make n 0 in
  let entry_time = Array.make_matrix n (pulses + 1) nan in
  (* received.(v).(p): skeleton neighbors whose safe(p) arrived. *)
  let received = Array.make_matrix n (pulses + 1) [] in
  for v = 0 to n - 1 do
    entry_time.(v).(0) <- 0.
  done;
  let rec send_safe v p =
    if p <= pulses then
      List.iter
        (fun y ->
          (* The sender does not filter on [alive y]: without a failure
             detector event it cannot know; messages to the dead are
             counted and dropped on delivery. *)
          Reliable.Async.send rel ~src:v ~dst:y (fun () -> receive_safe y v p))
        nbrs.(v)
  and receive_safe v from p =
    if alive.(v) && p <= pulses then begin
      if not (List.mem from received.(v).(p)) then
        received.(v).(p) <- from :: received.(v).(p);
      try_advance v
    end
  and try_advance v =
    if alive.(v) && pulse.(v) < pulses then begin
      let p = pulse.(v) in
      let all_safe =
        List.for_all
          (fun y -> (not alive.(y)) || List.mem y received.(v).(p))
          nbrs.(v)
      in
      if all_safe then begin
        pulse.(v) <- p + 1;
        let now = Async_net.now net in
        entry_time.(v).(p + 1) <- now;
        if Obs_trace.enabled () then
          Obs_trace.emit
            (Obs_trace.Sync_pulse { node = v; pulse = p + 1; at = now });
        let prev = entry_time.(v).(p) in
        if Float.is_finite prev then
          Obs.Histogram.observe h_round_latency (now -. prev);
        send_safe v (p + 1);
        try_advance v
      end
    end
  in
  (* Failure injection + abstract perfect failure detector: survivors
     reconsider their advance condition the moment the crash happens. *)
  (match failures with
  | None -> ()
  | Some (time, victims) ->
      Async_net.at net ~time (fun () ->
          List.iter (fun v -> if v >= 0 && v < n then alive.(v) <- false) victims;
          for v = 0 to n - 1 do
            if alive.(v) then try_advance v
          done));
  (* Pulse 0 starts at time 0. *)
  Async_net.at net ~time:0. (fun () ->
      for v = 0 to n - 1 do
        send_safe v 0
      done);
  ignore (Async_net.run net);
  (* ------------------------------ metrics --------------------------- *)
  let survivor_min_pulse = ref pulses in
  let completion = ref 0. in
  for v = 0 to n - 1 do
    if alive.(v) then begin
      if pulse.(v) < !survivor_min_pulse then survivor_min_pulse := pulse.(v);
      let t = entry_time.(v).(pulse.(v)) in
      if t > !completion then completion := t
    end
  done;
  let max_skew = ref 0. in
  Graph.iter_edges g (fun e ->
      let u = e.Graph.u and v = e.Graph.v in
      if alive.(u) && alive.(v) then
        for p = 0 to min pulse.(u) pulse.(v) do
          let d = abs_float (entry_time.(u).(p) -. entry_time.(v).(p)) in
          if d > !max_skew then max_skew := d
        done);
  let dead_mask = Array.map not alive in
  let blocked_edges = Array.map not skeleton.Selection.selected in
  let label, _ = Components.labels ~blocked_vertices:dead_mask ~blocked_edges g in
  let survivors_connected =
    let root = ref (-1) in
    let ok = ref true in
    for v = 0 to n - 1 do
      if alive.(v) then
        if !root < 0 then root := v
        else if label.(v) <> label.(!root) then ok := false
    done;
    !ok
  in
  {
    pulses = !survivor_min_pulse;
    messages = Async_net.messages net;
    completion_time = !completion;
    max_skew = !max_skew;
    skeleton_edges = skeleton.Selection.size;
    survivors_connected;
    retransmits = Reliable.Async.retransmits rel;
  }
