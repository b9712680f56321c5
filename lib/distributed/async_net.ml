(* Queued events carry their message identity (causal id + endpoints) so
   the run loop can emit the matching Msg_deliver when the handler fires;
   timers use the sentinel endpoints (-1). *)
type ev = { h : unit -> unit; ev_cid : int; ev_src : int; ev_dst : int }

type t = {
  rng : Rng.t;
  min_delay : float;
  max_delay : float;
  wire : Wire.t;
  queue : Pqueue.t;
  mutable handlers : ev array;
  mutable handler_count : int;  (* slots ever handed out *)
  (* slots whose event has fired, reused before [handlers] grows; the
     queue orders by time alone, so which slot an event gets never
     changes the order events fire in *)
  mutable free : int array;
  mutable free_count : int;
  mutable clock : float;
  mutable sent : int;
  (* congestion accumulator: physical message copies per directed slot
     (2m slots, like Net.edge_round_bits) per 1.0-wide simulated-time
     window, flushed into the net.edge_window_load histogram when the
     clock crosses a boundary *)
  win_msgs : int array;
  mutable win_touched : int list;
  mutable win_id : int;
}

let nop () = ()
let nop_ev = { h = nop; ev_cid = -1; ev_src = -1; ev_dst = -1 }

(* Pending deliveries + timers in the event queue: a level, so a gauge. *)
let g_inflight = Obs.gauge "gauge.net.inflight"

let h_window_load = Obs.histogram_log "net.edge_window_load"
let m_msgs_spanner = Obs.counter "net.msgs.spanner"
let m_msgs_other = Obs.counter "net.msgs.other"

let create rng ?(min_delay = 0.1) ?(max_delay = 1.0) ?chaos g =
  if
    (not (Float.is_finite min_delay && Float.is_finite max_delay))
    || min_delay < 0. || max_delay < min_delay
  then invalid_arg "Async_net.create: need finite 0 <= min_delay <= max_delay";
  {
    rng;
    min_delay;
    max_delay;
    wire =
      Wire.create ~who:"Async_net" ?chaos ~spanner:m_msgs_spanner
        ~other:m_msgs_other g;
    queue = Pqueue.create ~capacity:64;
    handlers = Array.make 64 nop_ev;
    handler_count = 0;
    free = Array.make 64 0;
    free_count = 0;
    clock = 0.;
    sent = 0;
    win_msgs = Array.make (Wire.slots g) 0;
    win_touched = [];
    win_id = 0;
  }

let now net = net.clock
let messages net = net.sent
let max_delay net = net.max_delay

let set_skeleton net mask = Wire.set_skeleton net.wire mask

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

let fresh_slot net =
  if net.free_count > 0 then begin
    net.free_count <- net.free_count - 1;
    net.free.(net.free_count)
  end
  else begin
    let cap = Array.length net.handlers in
    if net.handler_count = cap then begin
      let bigger = Array.make (2 * cap) nop_ev in
      Array.blit net.handlers 0 bigger 0 cap;
      net.handlers <- bigger;
      net.free <- Array.make (2 * cap) 0
    end;
    let idx = net.handler_count in
    net.handler_count <- idx + 1;
    idx
  end

let push_ev net ~time ev =
  let idx = fresh_slot net in
  net.handlers.(idx) <- ev;
  Pqueue.push net.queue time idx;
  Obs.Gauge.add g_inflight 1

let push net ~time handler = push_ev net ~time { nop_ev with h = handler }

let at net ~time handler =
  if Float.is_nan time then invalid_arg "Async_net.at: time is nan";
  if time < net.clock then invalid_arg "Async_net.at: time is in the past";
  push net ~time handler

(* One physical copy on directed slot [s], counted in the current
   window (dup copies charge twice, a crashed sender's message never). *)
let charge_wire net s =
  let wid = int_of_float net.clock in
  if wid > net.win_id then begin
    flush_window net;
    net.win_id <- wid
  end;
  if net.win_msgs.(s) = 0 then net.win_touched <- s :: net.win_touched;
  net.win_msgs.(s) <- net.win_msgs.(s) + 1

(* A copy that survived its drop draw: delivered after the base delay —
   stretched by a chaos spike — unless the destination is down at
   arrival time.  The delay comes from the {e network's} generator; only
   the fault choices consume the chaos stream. *)
let arrive net ~src ~dst handler ~cid chaos =
  let ev = { h = handler; ev_cid = cid; ev_src = src; ev_dst = dst } in
  let delay =
    net.min_delay +. Rng.float net.rng (net.max_delay -. net.min_delay +. 1e-12)
  in
  match chaos with
  | None -> push_ev net ~time:(net.clock +. delay) ev
  | Some ch ->
      let time = net.clock +. (delay *. Chaos.draw_spike ~cid ch ~src ~dst) in
      if Chaos.crashed ch ~node:dst ~time then
        Chaos.count_crash_drop ~cid ch ~src ~dst
      else push_ev net ~time ev

let transmit net ?cid ~src ~dst handler =
  let cid =
    Wire.transmit net.wire ?cid ~src ~dst ~at:net.clock ~bits:1
      ~charge:(charge_wire net) (arrive net ~src ~dst handler)
  in
  net.sent <- net.sent + 1;
  cid

let send net ~src ~dst handler = ignore (transmit net ~src ~dst handler)

(* The next event is read before it is popped, so one past [until]
   stays in the heap untouched for a later run. *)
let run ?(until = infinity) ?(max_events = max_int) net =
  let queue = net.queue in
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < max_events do
    if Pqueue.is_empty queue then continue := false
    else begin
      let time = Pqueue.min_key queue in
      if time > until then continue := false
      else begin
        let idx = Pqueue.pop queue in
        if time > net.clock then net.clock <- time;
        incr processed;
        let ev = net.handlers.(idx) in
        net.handlers.(idx) <- nop_ev;
        net.free.(net.free_count) <- idx;
        net.free_count <- net.free_count + 1;
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
    end
  done;
  !processed
