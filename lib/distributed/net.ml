type model = Local | Congest of int

(* Simulator-wide telemetry mirroring the per-network [stats] record, so
   the obs layer sees distributed work through the same pipeline as the
   centralized algorithms. *)
let m_rounds = Obs.counter "net.rounds"
let m_messages = Obs.counter "net.messages"
let m_bits = Obs.counter "net.bits"
let m_violations = Obs.counter "net.congest_violations"
let h_msg_bits = Obs.histogram "net.message_bits"

(* Congestion analytics: physical per-(edge, direction, round) load —
   duplicate copies included, unlike the offered-load stats — plus the
   spanner-vs-rest attribution split armed by [set_skeleton]. *)
let h_edge_round_load = Obs.histogram_log "net.edge_round_load"
let m_bits_spanner = Obs.counter "net.bits.spanner"
let m_bits_other = Obs.counter "net.bits.other"

type stats = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  max_edge_round_bits : int;
  congest_violations : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "rounds=%d messages=%d bits=%d max_msg=%db max_edge_load=%db violations=%d"
    s.rounds s.messages s.total_bits s.max_message_bits s.max_edge_round_bits
    s.congest_violations

type hot_edge = {
  he_edge : int;
  he_dir : int;
  he_bits : int;  (* cumulative physical bits over the run *)
  he_rounds : int;  (* rounds this directed slot carried traffic *)
}

let pp_hot_edge ppf h =
  Format.fprintf ppf "edge=%d dir=%d bits=%d rounds=%d" h.he_edge h.he_dir
    h.he_bits h.he_rounds

type 'msg t = {
  g : Graph.t;
  model : model;
  bits : 'msg -> int;
  record_history : bool;
  wire : Wire.t;
  (* copies lagging behind their send round (chaos reordering):
     (rounds still to wait, src, dst, cid, msg), in stable order *)
  mutable lagging : (int * int * int * int * 'msg) list;
  mutable staged : (int * int * 'msg) list array;  (* (src, cid, msg) per dst *)
  mutable delivered : (int * int * 'msg) list array;
  mutable round : int;
  mutable messages : int;
  mutable total_bits : int;
  mutable max_message_bits : int;
  mutable max_edge_round_bits : int;
  mutable congest_violations : int;
  edge_round_bits : int array;  (* 2m slots: per edge per direction *)
  mutable touched : int list;  (* slots dirtied this round *)
  (* congestion accumulator over the whole run, per directed slot *)
  slot_bits : int array;  (* cumulative physical bits *)
  slot_rounds : int array;  (* rounds the slot carried traffic *)
  mutable past_rounds : (int * int * int) list list;  (* reverse order *)
  (* totals at the previous [next_round], so the trace event carries this
     round's traffic rather than the running sum *)
  mutable msg_mark : int;
  mutable bits_mark : int;
}

let create ?(record_history = false) ?chaos ~model ~bits g =
  let n = Graph.n g in
  {
    g;
    model;
    bits;
    record_history;
    wire =
      Wire.create ~who:"Net" ?chaos ~spanner:m_bits_spanner
        ~other:m_bits_other g;
    lagging = [];
    staged = Array.make n [];
    delivered = Array.make n [];
    round = 0;
    messages = 0;
    total_bits = 0;
    max_message_bits = 0;
    max_edge_round_bits = 0;
    congest_violations = 0;
    edge_round_bits = Array.make (Wire.slots g) 0;
    touched = [];
    slot_bits = Array.make (Wire.slots g) 0;
    slot_rounds = Array.make (Wire.slots g) 0;
    past_rounds = [];
    msg_mark = 0;
    bits_mark = 0;
  }

let set_skeleton net mask = Wire.set_skeleton net.wire mask

(* One physical copy crossed the wire on slot [s]: the per-round load
   and the run-long congestion accumulator measure this, unlike the
   offered-load stats. *)
let charge_wire net b s =
  if net.edge_round_bits.(s) = 0 then net.touched <- s :: net.touched;
  net.edge_round_bits.(s) <- net.edge_round_bits.(s) + b;
  if net.edge_round_bits.(s) > net.max_edge_round_bits then
    net.max_edge_round_bits <- net.edge_round_bits.(s);
  net.slot_bits.(s) <- net.slot_bits.(s) + b

(* A copy that survived its drop draw: staged for the next round, or
   held back by a chaos reorder lag. *)
let arrive net ~src ~dst msg ~cid chaos =
  let lag =
    match chaos with None -> 0 | Some ch -> Chaos.draw_lag ~cid ch ~src ~dst
  in
  if lag = 0 then net.staged.(dst) <- (src, cid, msg) :: net.staged.(dst)
  else
    (* countdown counts round transitions: on-time delivery consumes
       one, the lag adds [lag] more *)
    net.lagging <- (lag + 1, src, dst, cid, msg) :: net.lagging

let transmit net ?cid ~src ~dst msg =
  let b = net.bits msg in
  let cid =
    Wire.transmit net.wire ?cid ~src ~dst ~at:(float_of_int net.round) ~bits:b
      ~charge:(charge_wire net b) (arrive net ~src ~dst msg)
  in
  (* Offered load — what the algorithm sent, whatever the wire did to
     its copies. *)
  net.messages <- net.messages + 1;
  net.total_bits <- net.total_bits + b;
  if b > net.max_message_bits then net.max_message_bits <- b;
  Obs.Counter.incr m_messages;
  Obs.Counter.add m_bits b;
  Obs.Histogram.observe_int h_msg_bits b;
  (match net.model with
  | Local -> ()
  | Congest cap ->
      if b > cap then begin
        net.congest_violations <- net.congest_violations + 1;
        Obs.Counter.incr m_violations
      end);
  cid

let send net ~src ~dst msg = ignore (transmit net ~src ~dst msg)

let broadcast net ~src msg =
  Graph.iter_neighbors net.g src (fun dst _ -> send net ~src ~dst msg)

let next_round net =
  let tmp = net.delivered in
  net.delivered <- net.staged;
  Array.fill tmp 0 (Array.length tmp) [];
  net.staged <- tmp;
  (match Wire.chaos net.wire with
  | None -> ()
  | Some ch ->
      let now = float_of_int (net.round + 1) in
      (* release lagging copies whose delay expired; they join this
         round's deliveries behind the on-time ones *)
      let still = ref [] in
      List.iter
        (fun (countdown, src, dst, cid, msg) ->
          if countdown <= 1 then
            net.delivered.(dst) <- (src, cid, msg) :: net.delivered.(dst)
          else still := (countdown - 1, src, dst, cid, msg) :: !still)
        (List.rev net.lagging);
      net.lagging <- List.rev !still;
      (* a crashed destination loses everything addressed to it *)
      Array.iteri
        (fun dst inbox ->
          if inbox <> [] && Chaos.crashed ch ~node:dst ~time:now then begin
            List.iter
              (fun (src, cid, _) -> Chaos.count_crash_drop ~cid ch ~src ~dst)
              inbox;
            net.delivered.(dst) <- []
          end)
        net.delivered);
  if Obs_trace.enabled () then begin
    let at = float_of_int (net.round + 1) in
    Array.iteri
      (fun dst inbox ->
        List.iter
          (fun (src, cid, _) ->
            Obs_trace.emit (Obs_trace.Msg_deliver { cid; src; dst; at }))
          inbox)
      net.delivered
  end;
  if net.record_history then begin
    let loads =
      List.map
        (fun s ->
          let edge, dir = Wire.edge_dir s in
          (edge, dir, net.edge_round_bits.(s)))
        net.touched
    in
    net.past_rounds <- loads :: net.past_rounds
  end;
  List.iter
    (fun s ->
      net.slot_rounds.(s) <- net.slot_rounds.(s) + 1;
      Obs.Histogram.observe_int h_edge_round_load net.edge_round_bits.(s);
      net.edge_round_bits.(s) <- 0)
    net.touched;
  net.touched <- [];
  net.round <- net.round + 1;
  Obs.Counter.incr m_rounds;
  let round_msgs = net.messages - net.msg_mark in
  let round_bits = net.total_bits - net.bits_mark in
  net.msg_mark <- net.messages;
  net.bits_mark <- net.total_bits;
  if Obs_trace.enabled () then
    Obs_trace.emit
      (Obs_trace.Congest_round
         { round = net.round; messages = round_msgs; bits = round_bits });
  (* one simulator round = one heartbeat operation *)
  Obs_heartbeat.pulse ()

let inbox net v = List.map (fun (src, _, msg) -> (src, msg)) net.delivered.(v)

let inbox_cids net v = net.delivered.(v)

(* Top-K busiest directed slots over the whole run, by cumulative
   physical bits (ties: smaller slot first — deterministic). *)
let hot_edges ?(top = 10) net =
  if top < 0 then invalid_arg "Net.hot_edges: top must be >= 0";
  let loaded = ref [] in
  Array.iteri
    (fun s b -> if b > 0 then loaded := (s, b) :: !loaded)
    net.slot_bits;
  let sorted =
    List.sort
      (fun (s1, b1) (s2, b2) ->
        if b1 <> b2 then compare b2 b1 else compare s1 s2)
      !loaded
  in
  List.filteri (fun i _ -> i < top) sorted
  |> List.map (fun (s, b) ->
         let he_edge, he_dir = Wire.edge_dir s in
         {
           he_edge;
           he_dir;
           he_bits = b;
           he_rounds = net.slot_rounds.(s);
         })

let stats net =
  {
    rounds = net.round;
    messages = net.messages;
    total_bits = net.total_bits;
    max_message_bits = net.max_message_bits;
    max_edge_round_bits = net.max_edge_round_bits;
    congest_violations = net.congest_violations;
  }

let history net = Array.of_list (List.rev net.past_rounds)
