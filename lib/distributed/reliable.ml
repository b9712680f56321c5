(* Stop-and-wait-per-packet reliability: every data packet carries its
   send number, the receiver acks every copy it sees (acks are lossy
   too), the sender retransmits on timeout with exponential backoff and
   gives up after [max_attempts].

   Both layers identify a packet by its send number alone, in one
   [ledger] per network: one flag byte per number, whose bits mark
   "delivered" (the receiver's first copy) and "closed" (acked or given
   up), so duplicate suppression and acks are flat and indexed, never
   hashed. *)

type 'msg packet = Data of { num : int; payload : 'msg } | Ack of { num : int }

let header_bits = 32 (* send number, chaos mode only *)
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

(* One network's send numbers and the protocol's reactions to them;
   retransmits and give-ups are mirrored into the shared [net.*]
   counters and the trace. *)
type ledger = {
  mutable flags : Bytes.t; (* per send number: [delivered], [closed] bits *)
  mutable sends : int; (* the next send number *)
  mutable retransmits : int;
  mutable giveups : int;
}

let delivered = 1
let closed = 2 (* acked or given up *)
let ledger () = { flags = Bytes.empty; sends = 0; retransmits = 0; giveups = 0 }
let has l i bit = Char.code (Bytes.get l.flags i) land bit <> 0

let mark l i bit =
  Bytes.set l.flags i (Char.chr (Char.code (Bytes.get l.flags i) lor bit))

(* Takes number [l.sends] for a send already on the wire: a non-adjacent
   pair raises in that first transmit, before the window counts it. *)
let take l =
  let len = Bytes.length l.flags in
  if l.sends = len then begin
    let bigger = Bytes.make (max 16 (2 * len)) '\000' in
    Bytes.blit l.flags 0 bigger 0 len;
    l.flags <- bigger
  end;
  l.sends <- l.sends + 1;
  Obs.Gauge.add g_unacked 1

(* The receiver's test: is this copy of send [i] the first? *)
let first_copy l i ~cid ~src ~dst =
  let first = not (has l i delivered) in
  if first then mark l i delivered
  else trace_protocol "dup_suppress" ~cid ~src ~dst;
  first

(* Closing an open send ends its window share: a late ack of a closed
   send must not double-credit the gauge or record a bogus RTT. *)
let close l i =
  mark l i closed;
  Obs.Gauge.add g_unacked (-1)

let ack l i ~rtt ~cid ~src ~dst =
  close l i;
  Obs.Histogram.observe h_rtt rtt;
  trace_protocol "ack" ~cid ~src ~dst

let give_up l i ~cid ~src ~dst =
  l.giveups <- l.giveups + 1;
  Obs.Counter.incr Chaos.giveups_counter;
  trace_protocol "giveup" ~cid ~src ~dst;
  close l i

let retransmit l ~cid ~src ~dst =
  l.retransmits <- l.retransmits + 1;
  Obs.Counter.incr Chaos.retries_counter;
  trace_protocol "retransmit" ~cid ~src ~dst

type 'msg pending = {
  p_src : int;
  p_dst : int;
  p_num : int;
  p_cid : int; (* causal id of the first transmission; reused on re-sends *)
  p_data : 'msg packet; (* the [Data] packet, re-sent as is *)
  p_sent : int; (* physical round of the first transmission *)
  mutable p_attempts : int; (* transmissions so far *)
  mutable p_due : int; (* physical round of the next retransmission *)
}

(* The send window holds one logical round's packets.  [window] lists
   them newest first, the order retransmissions go out in; [by_num]
   holds the same records at [num - base], so an ack finds its packet
   without a scan.  A closed record stays in both until the round ends,
   except that [window] drops its closed records once they are the
   majority. *)
type 'msg t = {
  g : Graph.t;
  net : 'msg packet Net.t;
  chaos : Chaos.state option; (* [None] = passthrough *)
  rto0 : int;
  ledger : ledger;
  mutable window : 'msg pending list;
  mutable window_len : int;
  mutable live : int; (* open records in [window] *)
  mutable by_num : 'msg pending array;
  mutable base : int; (* the logical round's first send number *)
  accum : (int * int * 'msg) list array; (* (sender, num, payload) per dst *)
  inboxes : (int * 'msg) list array; (* previous logical round *)
  mutable clock : int; (* physical rounds completed *)
}

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
    ledger = ledger ();
    window = [];
    window_len = 0;
    live = 0;
    by_num = [||];
    base = 0;
    accum = Array.make n [];
    inboxes = Array.make n [];
    clock = 0;
  }

let send t ~src ~dst msg =
  match t.chaos with
  | None -> Net.send t.net ~src ~dst (Data { num = 0; payload = msg })
  | Some _ ->
      let num = t.ledger.sends in
      let data = Data { num; payload = msg } in
      let cid = Net.transmit t.net ~src ~dst data in
      take t.ledger;
      let p =
        {
          p_src = src;
          p_dst = dst;
          p_num = num;
          p_cid = cid;
          p_data = data;
          p_sent = t.clock;
          p_attempts = 1;
          p_due = t.clock + t.rto0;
        }
      in
      t.window <- p :: t.window;
      t.window_len <- t.window_len + 1;
      t.live <- t.live + 1;
      let i = num - t.base in
      if i = Array.length t.by_num then begin
        let bigger = Array.make (max 16 (2 * i)) p in
        Array.blit t.by_num 0 bigger 0 i;
        t.by_num <- bigger
      end;
      t.by_num.(i) <- p

let broadcast t ~src msg =
  Graph.iter_neighbors t.g src (fun dst _ -> send t ~src ~dst msg)

(* Read one physical round's deliveries: ack every data copy (the ack
   itself may be lost — the sender's timeout covers that), accumulate
   first copies into the logical inbox, and close acked packets. *)
let harvest t =
  let n = Graph.n t.g in
  for v = 0 to n - 1 do
    List.iter
      (fun (sender, cid, pkt) ->
        match pkt with
        | Ack { num } ->
            (* [cid] here is the ack packet's own id; the event belongs to
               the data packet, via the pending record.  Every send of an
               earlier logical round is closed. *)
            if not (has t.ledger num closed) then begin
              let p = t.by_num.(num - t.base) in
              ack t.ledger num
                ~rtt:(Float.of_int (t.clock - p.p_sent))
                ~cid:p.p_cid ~src:p.p_src ~dst:p.p_dst;
              t.live <- t.live - 1
            end
        | Data { num; payload } ->
            Net.send t.net ~src:v ~dst:sender (Ack { num });
            if first_copy t.ledger num ~cid ~src:sender ~dst:v then
              t.accum.(v) <- (sender, num, payload) :: t.accum.(v))
      (Net.inbox_cids t.net v)
  done

let step t =
  Net.next_round t.net;
  t.clock <- t.clock + 1;
  harvest t

(* Newest first, as sent: the order the chaos stream is drawn in. *)
let retransmit_due t =
  let is_closed p = has t.ledger p.p_num closed in
  if 2 * t.live < t.window_len then begin
    t.window <- List.filter (fun p -> not (is_closed p)) t.window;
    t.window_len <- t.live
  end;
  List.iter
    (fun p ->
      if is_closed p || p.p_due > t.clock then ()
      else if p.p_attempts >= max_attempts then begin
        give_up t.ledger p.p_num ~cid:p.p_cid ~src:p.p_src ~dst:p.p_dst;
        t.live <- t.live - 1
      end
      else begin
        (* same causal id: the re-send is another attempt of the same
           application message, not a new lifecycle *)
        ignore
          (Net.transmit t.net
             ?cid:(if p.p_cid >= 0 then Some p.p_cid else None)
             ~src:p.p_src ~dst:p.p_dst p.p_data);
        p.p_attempts <- p.p_attempts + 1;
        p.p_due <- t.clock + (t.rto0 * backoff p.p_attempts);
        retransmit t.ledger ~cid:p.p_cid ~src:p.p_src ~dst:p.p_dst
      end)
    t.window

let next_round t =
  match t.chaos with
  | None -> Net.next_round t.net
  | Some _ ->
      step t;
      while t.live > 0 do
        retransmit_due t;
        if t.live > 0 then step t
      done;
      t.window <- [];
      t.window_len <- 0;
      t.base <- t.ledger.sends;
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

let stats t = Net.stats t.net
let history t = Net.history t.net
let retransmits t = t.ledger.retransmits
let giveups t = t.ledger.giveups
let chaos_counts t = Option.map Chaos.counts t.chaos

(* ------------------------- asynchronous wrapper ---------------------- *)

module Async = struct
  type t = {
    anet : Async_net.t;
    chaos : Chaos.state option;
    rto0 : float;
    ledger : ledger;
  }

  let create rng ?min_delay ?max_delay ?chaos g =
    let chaos = arm chaos in
    let anet = Async_net.create rng ?min_delay ?max_delay ?chaos g in
    (* a round trip is at most [2 * max_delay]; leave margin for spikes *)
    { anet; chaos; rto0 = 3. *. Async_net.max_delay anet; ledger = ledger () }

  let net t = t.anet

  let send t ~src ~dst handler =
    match t.chaos with
    | None -> Async_net.send t.anet ~src ~dst handler
    | Some _ ->
        let i = t.ledger.sends in
        let t0 = Async_net.now t.anet in
        (* the first attempt's causal id, shared by every re-send *)
        let cid = ref (-1) in
        let deliver () =
          if first_copy t.ledger i ~cid:!cid ~src ~dst then handler ();
          (* ack every copy: an earlier ack may have been dropped *)
          Async_net.send t.anet ~src:dst ~dst:src (fun () ->
              if not (has t.ledger i closed) then
                ack t.ledger i
                  ~rtt:(Async_net.now t.anet -. t0)
                  ~cid:!cid ~src ~dst)
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
              if not (has t.ledger i closed) then
                if n >= max_attempts then give_up t.ledger i ~cid:!cid ~src ~dst
                else begin
                  retransmit t.ledger ~cid:!cid ~src ~dst;
                  attempt (n + 1)
                end)
        in
        attempt 1;
        take t.ledger

  let retransmits t = t.ledger.retransmits
  let giveups t = t.ledger.giveups
  let chaos_counts t = Option.map Chaos.counts t.chaos
end
