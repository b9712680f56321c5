(* Stop-and-wait-per-packet reliability: every data packet carries a
   per-directed-slot sequence number, the receiver acks every copy it
   sees (acks are lossy too), the sender retransmits on timeout with
   exponential backoff and gives up after [max_attempts].  Slots are
   {!Wire}'s directed slots, the simulators' load-accounting index. *)

type 'msg packet = Data of { seq : int; payload : 'msg } | Ack of { seq : int }

let header_bits = 32 (* sequence number, chaos mode only *)
let ack_bits = 32
let max_attempts = 30

(* Backoff multiplier: linear up to 8x, then flat — enough to ride out a
   long crash window without the physical round count exploding. *)
let backoff attempts = min attempts 8

(* Data-to-first-ack latency, in physical rounds (sync layer) or
   simulated seconds (Async): the service-level series the soak runs
   watch.  Log-linear so p99/p999 stay honest under backoff tails. *)
let h_rtt = Obs.histogram_log "reliable.rtt"

(* Unacked send window (both layers): a level, so a gauge — the soak
   runs watch it to see backlog building under loss. *)
let g_unacked = Obs.gauge "gauge.reliable.unacked"

(* Delivery-protocol events share the chaos lifecycle stream: kinds
   "retransmit"/"ack"/"dup_suppress"/"giveup", keyed by the data
   packet's causal id so the analyzer sees the whole story per
   message. *)
let trace_protocol kind ~cid ~src ~dst =
  if Obs_trace.enabled () then
    Obs_trace.emit (Obs_trace.Chaos_event { kind; cid; src; dst })

(* A plan arms fault injection (and with it the protocol) only when it
   injects something; otherwise both wrappers are passthroughs. *)
let arm = function
  | Some plan when not (Chaos.is_silent plan) -> Some (Chaos.start plan)
  | _ -> None

(* Per-network protocol reactions, mirrored into the shared [net.*]
   counters and the trace. *)
type tally = { mutable retransmits : int; mutable giveups : int }

let note_retransmit tally ~cid ~src ~dst =
  tally.retransmits <- tally.retransmits + 1;
  Obs.Counter.incr Chaos.retries_counter;
  trace_protocol "retransmit" ~cid ~src ~dst

let note_giveup tally ~cid ~src ~dst =
  tally.giveups <- tally.giveups + 1;
  Obs.Counter.incr Chaos.giveups_counter;
  trace_protocol "giveup" ~cid ~src ~dst

(* Sets of delivered or acknowledged packets, keyed by [key]. *)
module Packets = Hashtbl.Make (Int)

(* One int per (directed slot, sequence number). *)
let key ~slots ~slot ~seq = (seq * slots) + slot

type 'msg pending = {
  p_src : int;
  p_dst : int;
  p_seq : int;
  p_cid : int; (* causal id of the first transmission; reused on re-sends *)
  p_payload : 'msg;
  p_sent : int; (* physical round of the first transmission *)
  mutable p_attempts : int; (* transmissions so far *)
  mutable p_due : int; (* physical round of the next retransmission *)
  mutable p_retired : bool; (* acked or given up *)
}

(* The send window holds one logical round's packets.  [window] lists
   them newest first, the order retransmissions go out in; [by_slot]
   indexes the same records per directed slot, so an ack finds its
   packet without a scan.  A retired record stays in both until the
   round ends, except that [window] drops its retired records once they
   are the majority. *)
type 'msg t = {
  g : Graph.t;
  net : 'msg packet Net.t;
  chaos : Chaos.state option; (* [None] = passthrough *)
  rto0 : int;
  slots : int;
  next_seq : int array; (* per directed slot *)
  seen : unit Packets.t; (* delivered *)
  mutable window : 'msg pending list;
  mutable window_len : int;
  mutable live : int; (* unretired records in [window] *)
  by_slot : 'msg pending list array; (* newest first *)
  mutable used_slots : int list; (* slots whose [by_slot] is non-empty *)
  accum : (int * int * 'msg) list array; (* (sender, seq, payload) per dst *)
  inboxes : (int * 'msg) list array; (* previous logical round *)
  mutable clock : int; (* physical rounds completed *)
  tally : tally;
}

let slot_of g ~src ~dst = Wire.slot ~who:"Reliable" g ~src ~dst

let create ?(record_history = false) ?chaos ~model ~bits g =
  let chaos = arm chaos in
  let lossy = chaos <> None in
  let packet_bits = function
    | Data { payload; _ } -> bits payload + if lossy then header_bits else 0
    | Ack _ -> ack_bits
  in
  let n = Graph.n g in
  let rto0 =
    2 + match chaos with Some ch -> (Chaos.plan_of ch).Chaos.reorder | None -> 0
  in
  {
    g;
    net = Net.create ~record_history ?chaos ~model ~bits:packet_bits g;
    chaos;
    rto0;
    slots = Wire.slots g;
    next_seq = Array.make (Wire.slots g) 0;
    seen = Packets.create (if lossy then 1024 else 1);
    window = [];
    window_len = 0;
    live = 0;
    by_slot = Array.make (if lossy then Wire.slots g else 0) [];
    used_slots = [];
    accum = Array.make n [];
    inboxes = Array.make n [];
    clock = 0;
    tally = { retransmits = 0; giveups = 0 };
  }

let graph t = t.g

let send t ~src ~dst msg =
  match t.chaos with
  | None -> Net.send t.net ~src ~dst (Data { seq = 0; payload = msg })
  | Some _ ->
      let slot = slot_of t.g ~src ~dst in
      let seq = t.next_seq.(slot) in
      t.next_seq.(slot) <- seq + 1;
      let cid = Net.transmit t.net ~src ~dst (Data { seq; payload = msg }) in
      let p =
        {
          p_src = src;
          p_dst = dst;
          p_seq = seq;
          p_cid = cid;
          p_payload = msg;
          p_sent = t.clock;
          p_attempts = 1;
          p_due = t.clock + t.rto0;
          p_retired = false;
        }
      in
      t.window <- p :: t.window;
      t.window_len <- t.window_len + 1;
      t.live <- t.live + 1;
      if t.by_slot.(slot) = [] then t.used_slots <- slot :: t.used_slots;
      t.by_slot.(slot) <- p :: t.by_slot.(slot);
      Obs.Gauge.add g_unacked 1

let broadcast t ~src msg =
  Graph.iter_neighbors t.g src (fun dst _ -> send t ~src ~dst msg)

let retire t p =
  p.p_retired <- true;
  t.live <- t.live - 1;
  Obs.Gauge.add g_unacked (-1)

(* Read one physical round's deliveries: ack every data copy (the ack
   itself may be lost — the sender's timeout covers that), accumulate
   first copies into the logical inbox, and retire acked packets. *)
let harvest t =
  let n = Graph.n t.g in
  for v = 0 to n - 1 do
    List.iter
      (fun (sender, cid, pkt) ->
        match pkt with
        | Ack { seq } -> (
            (* [cid] here is the ack packet's own id; the event we emit
               belongs to the data packet, via the pending record.  An
               ack for an earlier logical round finds nothing. *)
            let slot = slot_of t.g ~src:v ~dst:sender in
            match List.find_opt (fun p -> p.p_seq = seq) t.by_slot.(slot) with
            | Some p when not p.p_retired ->
                Obs.Histogram.observe_int h_rtt (t.clock - p.p_sent);
                trace_protocol "ack" ~cid:p.p_cid ~src:p.p_src ~dst:p.p_dst;
                retire t p
            | Some _ | None -> ())
        | Data { seq; payload } ->
            Net.send t.net ~src:v ~dst:sender (Ack { seq });
            let slot = slot_of t.g ~src:sender ~dst:v in
            let k = key ~slots:t.slots ~slot ~seq in
            if not (Packets.mem t.seen k) then begin
              Packets.add t.seen k ();
              t.accum.(v) <- (sender, seq, payload) :: t.accum.(v)
            end
            else trace_protocol "dup_suppress" ~cid ~src:sender ~dst:v)
      (Net.inbox_cids t.net v)
  done

let step t =
  Net.next_round t.net;
  t.clock <- t.clock + 1;
  harvest t

(* Newest first, as sent: the order the chaos stream is drawn in. *)
let retransmit_due t =
  if 2 * t.live < t.window_len then begin
    t.window <- List.filter (fun p -> not p.p_retired) t.window;
    t.window_len <- t.live
  end;
  List.iter
    (fun p ->
      if p.p_retired || p.p_due > t.clock then ()
      else if p.p_attempts >= max_attempts then begin
        note_giveup t.tally ~cid:p.p_cid ~src:p.p_src ~dst:p.p_dst;
        retire t p
      end
      else begin
        (* same causal id: the re-send is another attempt of the same
           application message, not a new lifecycle *)
        ignore
          (Net.transmit t.net
             ?cid:(if p.p_cid >= 0 then Some p.p_cid else None)
             ~src:p.p_src ~dst:p.p_dst
             (Data { seq = p.p_seq; payload = p.p_payload }));
        p.p_attempts <- p.p_attempts + 1;
        p.p_due <- t.clock + (t.rto0 * backoff p.p_attempts);
        note_retransmit t.tally ~cid:p.p_cid ~src:p.p_src ~dst:p.p_dst
      end)
    t.window

let clear_window t =
  t.window <- [];
  t.window_len <- 0;
  List.iter (fun s -> t.by_slot.(s) <- []) t.used_slots;
  t.used_slots <- []

let next_round t =
  match t.chaos with
  | None -> Net.next_round t.net
  | Some _ ->
      step t;
      while t.live > 0 do
        retransmit_due t;
        if t.live > 0 then step t
      done;
      clear_window t;
      let n = Graph.n t.g in
      for v = 0 to n - 1 do
        (* canonical order: by sender, then send order — independent of
           which physical round each copy happened to arrive in *)
        let sorted =
          List.sort
            (fun (s1, q1, _) (s2, q2, _) ->
              if s1 <> s2 then Int.compare s1 s2 else Int.compare q1 q2)
            t.accum.(v)
        in
        t.inboxes.(v) <- List.map (fun (s, _, m) -> (s, m)) sorted;
        t.accum.(v) <- []
      done

let inbox t v =
  match t.chaos with
  | None ->
      List.map
        (fun (s, pkt) ->
          match pkt with
          | Data { payload; _ } -> (s, payload)
          | Ack _ -> assert false)
        (Net.inbox t.net v)
  | Some _ -> t.inboxes.(v)

let charge_rounds t k = Net.charge_rounds t.net k
let stats t = Net.stats t.net
let history t = Net.history t.net
let retransmits t = t.tally.retransmits
let giveups t = t.tally.giveups
let chaos_counts t = Option.map Chaos.counts t.chaos

(* ------------------------- asynchronous wrapper ---------------------- *)

module Async = struct
  type t = {
    g : Graph.t;
    anet : Async_net.t;
    chaos : Chaos.state option;
    rto0 : float;
    slots : int;
    next_seq : int array;
    seen : unit Packets.t; (* delivered *)
    acked : unit Packets.t; (* acked or given up *)
    tally : tally;
  }

  let create rng ?min_delay ?max_delay ?chaos g =
    let chaos = arm chaos in
    let anet = Async_net.create rng ?min_delay ?max_delay ?chaos g in
    {
      g;
      anet;
      chaos;
      (* a round trip is at most [2 * max_delay]; leave margin for spikes *)
      rto0 = 3. *. Async_net.max_delay anet;
      slots = Wire.slots g;
      next_seq = Array.make (Wire.slots g) 0;
      seen = Packets.create (if chaos <> None then 1024 else 1);
      acked = Packets.create (if chaos <> None then 1024 else 1);
      tally = { retransmits = 0; giveups = 0 };
    }

  let net t = t.anet

  let send t ~src ~dst handler =
    match t.chaos with
    | None -> Async_net.send t.anet ~src ~dst handler
    | Some _ ->
        let slot = slot_of t.g ~src ~dst in
        let seq = t.next_seq.(slot) in
        t.next_seq.(slot) <- seq + 1;
        let key = key ~slots:t.slots ~slot ~seq in
        let t0 = Async_net.now t.anet in
        (* the first attempt's causal id, shared by every re-send *)
        let cid = ref (-1) in
        let deliver () =
          if not (Packets.mem t.seen key) then begin
            Packets.add t.seen key ();
            handler ()
          end
          else trace_protocol "dup_suppress" ~cid:!cid ~src ~dst;
          (* ack every copy: an earlier ack may have been dropped *)
          Async_net.send t.anet ~src:dst ~dst:src (fun () ->
              if not (Packets.mem t.acked key) then begin
                Packets.add t.acked key ();
                Obs.Gauge.add g_unacked (-1);
                Obs.Histogram.observe h_rtt (Async_net.now t.anet -. t0);
                trace_protocol "ack" ~cid:!cid ~src ~dst
              end)
        in
        let rec attempt n =
          let c =
            Async_net.transmit t.anet
              ?cid:(if !cid >= 0 then Some !cid else None)
              ~src ~dst deliver
          in
          if !cid < 0 then cid := c;
          let rto = t.rto0 *. float_of_int (backoff n) in
          Async_net.at t.anet ~time:(Async_net.now t.anet +. rto) (fun () ->
              if not (Packets.mem t.acked key) then
                if n >= max_attempts then begin
                  note_giveup t.tally ~cid:!cid ~src ~dst;
                  (* close the window: a late ack must not double-credit
                     the gauge or record a bogus RTT *)
                  Packets.add t.acked key ();
                  Obs.Gauge.add g_unacked (-1)
                end
                else begin
                  note_retransmit t.tally ~cid:!cid ~src ~dst;
                  attempt (n + 1)
                end)
        in
        Obs.Gauge.add g_unacked 1;
        attempt 1

  let retransmits t = t.tally.retransmits
  let giveups t = t.tally.giveups
  let chaos_counts t = Option.map Chaos.counts t.chaos
end
