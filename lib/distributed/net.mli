(** Synchronous message-passing network simulator with LOCAL/CONGEST
    accounting.

    Both distributed models of the paper (Peleg's LOCAL and CONGEST) share
    the synchronous round structure: in each round every node may send one
    message per incident edge, then all messages are delivered
    simultaneously.  They differ only in the bandwidth constraint — LOCAL
    messages are unbounded, CONGEST messages carry [O(log n)] bits.

    The simulator delivers messages in lockstep rounds and {e accounts}
    bandwidth instead of physically limiting it: every send is measured by
    the caller-supplied [bits] function, per-(edge, round) totals are
    tracked, and sends exceeding the CONGEST capacity are recorded as
    violations.  Algorithm implementations are therefore forced to route
    all information flow along edges one round at a time (the quantity the
    paper's Section 5 theorems bound), while tests can assert that the
    CONGEST constructions never violate the bandwidth budget.

    Optionally the simulator records the per-round, per-edge bit usage
    history; the Theorem 15 construction uses this to compute the
    congestion-scheduled cost of running many Baswana-Sen instances in
    parallel. *)

type model =
  | Local
  | Congest of int  (** per-edge per-direction capacity in bits per round *)

type stats = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  max_edge_round_bits : int;
      (** busiest (edge, direction, round) load observed — {e physical}
          load: chaos-duplicated copies count once each, and a crashed
          sender's message not at all *)
  congest_violations : int;
      (** sends that individually exceeded the CONGEST capacity *)
}

val pp_stats : Format.formatter -> stats -> unit

(** One entry of the congestion leaderboard ({!hot_edges}). *)
type hot_edge = {
  he_edge : int;  (** edge id in the source graph *)
  he_dir : int;  (** [0] when the sender is the edge's smaller endpoint *)
  he_bits : int;  (** cumulative physical bits over the run *)
  he_rounds : int;  (** rounds this directed slot carried traffic *)
}

val pp_hot_edge : Format.formatter -> hot_edge -> unit

type 'msg t

(** [create ~model ~bits g] builds an idle network over the topology [g].
    [bits] measures message sizes.  Set [record_history] to retain
    per-round edge loads (see {!history}).  [chaos] makes the network
    unreliable: each message copy is independently dropped, duplicated or
    delayed by a bounded number of rounds, and crashed nodes neither send
    nor receive (see {!Chaos}).  Message accounting ([messages],
    [total_bits], [max_message_bits], CONGEST violations) measures the
    {e offered} load — what the algorithm sent — so the algorithm-side
    counters of a fault-masked run match the fault-free run exactly.
    Per-edge congestion accounting ([max_edge_round_bits], {!history},
    {!hot_edges} and the [net.edge_round_load] histogram) measures the
    {e physical} load: a chaos-duplicated copy charges its wire twice
    and a crashed sender's message never charges it.  Without a chaos
    plan the two coincide. *)
val create :
  ?record_history:bool ->
  ?chaos:Chaos.state ->
  model:model ->
  bits:('msg -> int) ->
  Graph.t ->
  'msg t

(** [send net ~src ~dst msg] stages a message for delivery at the end of
    the current round.  [dst] must be adjacent to [src] (this is a
    message-passing network, not shared memory); raises [Invalid_argument]
    otherwise. *)
val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [transmit net ?cid ~src ~dst msg] is {!send} returning the message's
    causal id.  A fresh id is minted ({!Obs_trace.mint_cid}) while
    tracing is enabled ([-1] otherwise); pass [cid] to re-send under an
    existing identity — {!Reliable} does for retransmits, so every
    attempt of one application message shares one lifecycle in the
    trace.  While tracing, emits one [Msg_send] (and the eventual
    [Msg_deliver]s carry the same id). *)
val transmit : 'msg t -> ?cid:int -> src:int -> dst:int -> 'msg -> int

(** [broadcast net ~src msg] stages [msg] on every edge incident to
    [src]. *)
val broadcast : 'msg t -> src:int -> 'msg -> unit

(** [next_round net] delivers all staged messages and advances the round
    counter.  Messages staged in round [r] are readable (only) during
    round [r + 1]. *)
val next_round : 'msg t -> unit

(** [inbox net v] lists [(sender, message)] pairs delivered to [v] at the
    start of the current round (i.e. sent during the previous one). *)
val inbox : 'msg t -> int -> (int * 'msg) list

(** [inbox_cids net v] is {!inbox} with each message's causal id:
    [(sender, cid, message)].  Ids are [-1] for messages sent while
    tracing was disabled and no explicit [cid] was given. *)
val inbox_cids : 'msg t -> int -> (int * int * 'msg) list

(** [set_skeleton net mask] arms spanner-vs-rest congestion attribution:
    [mask] holds one flag per edge id of the topology ([true] = the edge
    is in the spanner skeleton), and from then on every physical copy's
    bits are added to the [net.bits.spanner] or [net.bits.other]
    counter.  Raises [Invalid_argument] when [mask] doesn't have exactly
    one slot per edge. *)
val set_skeleton : 'msg t -> bool array -> unit

(** [hot_edges ?top net] is the congestion leaderboard: the [top]
    (default 10) busiest directed slots by cumulative physical bits over
    the run so far, busiest first (ties broken toward the smaller edge
    id — the order is deterministic).  Raises [Invalid_argument] on
    negative [top]. *)
val hot_edges : ?top:int -> 'msg t -> hot_edge list

(** [stats net] snapshots the accounting counters. *)
val stats : 'msg t -> stats

(** [history net] returns, for each completed round, the list of
    [(edge_id, direction, bits)] loads ([direction] is [0] when the sender
    is the edge's smaller endpoint).  Empty unless [record_history] was
    set. *)
val history : 'msg t -> (int * int * int) list array
