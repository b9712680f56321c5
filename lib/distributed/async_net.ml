(* Queued events carry their message identity (causal id + endpoints) so
   the run loop can emit the matching Msg_deliver when the handler fires;
   timers use the sentinel endpoints (-1). *)
type ev = { h : unit -> unit; ev_cid : int; ev_src : int; ev_dst : int }

type t = {
  g : Graph.t;
  rng : Rng.t;
  min_delay : float;
  max_delay : float;
  chaos : Chaos.state option;
  queue : Pqueue.t;
  mutable handlers : ev array;
  mutable handler_count : int;
  mutable clock : float;
  mutable sent : int;
  (* congestion accumulator: physical message copies per directed slot
     (2m slots, like Net.edge_round_bits) per 1.0-wide simulated-time
     window, flushed into the net.edge_window_load histogram when the
     clock crosses a boundary *)
  win_msgs : int array;
  mutable win_touched : int list;
  mutable win_id : int;
  mutable skeleton : bool array option;
}

let nop () = ()
let nop_ev = { h = nop; ev_cid = -1; ev_src = -1; ev_dst = -1 }

(* Pending deliveries + timers in the event queue: a level, so a gauge. *)
let g_inflight = Obs.gauge "gauge.net.inflight"

let h_window_load = Obs.histogram_log "net.edge_window_load"
let m_msgs_spanner = Obs.counter "net.msgs.spanner"
let m_msgs_other = Obs.counter "net.msgs.other"

let create rng ?(min_delay = 0.1) ?(max_delay = 1.0) ?chaos g =
  if min_delay < 0. || max_delay < min_delay then
    invalid_arg "Async_net.create: need 0 <= min_delay <= max_delay";
  {
    g;
    rng;
    min_delay;
    max_delay;
    chaos;
    queue = Pqueue.create ~capacity:64;
    handlers = Array.make 64 nop_ev;
    handler_count = 0;
    clock = 0.;
    sent = 0;
    win_msgs = Array.make (max 1 (2 * Graph.m g)) 0;
    win_touched = [];
    win_id = 0;
    skeleton = None;
  }

let now net = net.clock
let messages net = net.sent
let max_delay net = net.max_delay

let set_skeleton net mask =
  if Array.length mask <> Graph.m net.g then
    invalid_arg
      (Printf.sprintf "Async_net.set_skeleton: mask has %d slots for %d edges"
         (Array.length mask) (Graph.m net.g));
  net.skeleton <- Some mask

(* Windows are closed lazily, when a send observes the clock past the
   boundary — simulated time only, so the flush schedule replays
   deterministically. *)
let flush_window net =
  List.iter
    (fun s ->
      Obs.Histogram.observe_int h_window_load net.win_msgs.(s);
      net.win_msgs.(s) <- 0)
    net.win_touched;
  net.win_touched <- []

let push_ev net ~time ev =
  if net.handler_count = Array.length net.handlers then begin
    let bigger = Array.make (2 * net.handler_count) nop_ev in
    Array.blit net.handlers 0 bigger 0 net.handler_count;
    net.handlers <- bigger
  end;
  let idx = net.handler_count in
  net.handlers.(idx) <- ev;
  net.handler_count <- idx + 1;
  Pqueue.push net.queue time idx;
  Obs.Gauge.add g_inflight 1

let push net ~time handler = push_ev net ~time { nop_ev with h = handler }

let at net ~time handler =
  if time < net.clock then invalid_arg "Async_net.at: time is in the past";
  push net ~time handler

(* One physical copy on directed slot [s]: the current window and the
   skeleton attribution (dup copies charge twice, a crashed sender's
   message never). *)
let charge_wire net s =
  let wid = int_of_float net.clock in
  if wid > net.win_id then begin
    flush_window net;
    net.win_id <- wid
  end;
  if net.win_msgs.(s) = 0 then net.win_touched <- s :: net.win_touched;
  net.win_msgs.(s) <- net.win_msgs.(s) + 1;
  match net.skeleton with
  | None -> ()
  | Some mask ->
      Obs.Counter.incr (if mask.(s / 2) then m_msgs_spanner else m_msgs_other)

let transmit net ?cid ~src ~dst handler =
  let s =
    match Graph.find_edge net.g src dst with
    | Some id -> (2 * id) + (if src < dst then 0 else 1)
    | None ->
        invalid_arg
          (Printf.sprintf "Async_net.send: %d and %d are not adjacent" src dst)
  in
  net.sent <- net.sent + 1;
  let tracing = Obs_trace.enabled () in
  let cid =
    match cid with
    | Some c -> c
    | None -> if tracing then Obs_trace.mint_cid () else -1
  in
  if tracing then
    Obs_trace.emit
      (Obs_trace.Msg_send { cid; src; dst; at = net.clock; bits = 1 });
  let ev = { h = handler; ev_cid = cid; ev_src = src; ev_dst = dst } in
  let draw_delay () =
    net.min_delay +. Rng.float net.rng (net.max_delay -. net.min_delay +. 1e-12)
  in
  (match net.chaos with
  | None ->
      charge_wire net s;
      push_ev net ~time:(net.clock +. draw_delay ()) ev
  | Some ch ->
      if Chaos.crashed ch ~node:src ~time:net.clock then
        Chaos.count_crash_drop ~cid ch ~src ~dst
      else begin
        (* Each copy: drop, or deliver after the base delay — stretched by
           a spike — unless the destination is down at arrival time.  The
           delay still comes from the {e network's} generator; only the
           fault choices consume the chaos stream. *)
        let deliver_copy () =
          charge_wire net s;
          if not (Chaos.draw_drop ~cid ch ~src ~dst) then begin
            let delay = draw_delay () *. Chaos.draw_spike ~cid ch ~src ~dst in
            let time = net.clock +. delay in
            if Chaos.crashed ch ~node:dst ~time then
              Chaos.count_crash_drop ~cid ch ~src ~dst
            else push_ev net ~time ev
          end
        in
        deliver_copy ();
        if Chaos.draw_dup ~cid ch ~src ~dst then deliver_copy ()
      end);
  cid

let send net ~src ~dst handler = ignore (transmit net ~src ~dst handler)

let run ?(until = infinity) ?(max_events = max_int) net =
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < max_events do
    match Pqueue.pop_min net.queue with
    | None -> continue := false
    | Some (time, idx) ->
        if time > until then begin
          (* put it back for a later run and stop *)
          Pqueue.push net.queue time idx;
          continue := false
        end
        else begin
          net.clock <- max net.clock time;
          incr processed;
          let ev = net.handlers.(idx) in
          net.handlers.(idx) <- nop_ev;
          Obs.Gauge.add g_inflight (-1);
          if ev.ev_src >= 0 && Obs_trace.enabled () then
            Obs_trace.emit
              (Obs_trace.Msg_deliver
                 {
                   cid = ev.ev_cid;
                   src = ev.ev_src;
                   dst = ev.ev_dst;
                   at = net.clock;
                 });
          ev.h ();
          (* one delivered event = one heartbeat operation *)
          Obs_heartbeat.pulse ()
        end
  done;
  !processed
