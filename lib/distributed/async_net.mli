(** Event-driven asynchronous network simulator.

    The synchronous simulator ({!Net}) serves the paper's LOCAL/CONGEST
    algorithms; this one serves the {e applications} of spanners in
    asynchronous systems (synchronizers, Peleg-Ullman 1989 — one of the
    motivating applications in the paper's introduction).  Messages sent
    along an edge are delivered after an independent uniformly random
    delay in [[min_delay, max_delay]]; computation is event-driven and
    instantaneous.

    Delivery handlers are closures, so the simulator is protocol-agnostic:
    {!send} counts one message and schedules the handler at the delivery
    time; {!at} schedules a timer.  [run] drains the event queue in time
    order (deterministically, given the {!Rng.t}).

    {b Equal times.}  Events due at the same instant fire in the order of
    the {!Pqueue} they are kept in, which the sequence of pushes and pops
    alone fixes — not in scheduling order.  It matters: each fired
    handler draws its message delays from [rng] and its faults from the
    chaos stream, so that order is part of every replay.  {!Reliable.Async}
    arms a node's retransmit timers for one burst of sends at one shared
    [now + rto], so equal times are common.  The simulator therefore never
    skips, cancels, merges or adds an event behind a caller's back, and
    [run ~until] reads the next event's time without popping it. *)

type t

(** [create rng ?min_delay ?max_delay g] builds an idle network over [g]
    (defaults: delays uniform in [[0.1, 1.0]]; raises [Invalid_argument]
    unless [0 <= min_delay <= max_delay], both finite).  [chaos] makes delivery
    unreliable: each message is independently dropped or duplicated, delay
    spikes stretch the drawn delay, and crashed nodes neither send nor
    receive (see {!Chaos}).  Fault draws consume the chaos plan's private
    stream, never [rng], so a fault-masked run replays the same delays as
    a fault-free one.  {!messages} still counts every {!send} — offered
    load, like {!Net.stats}. *)
val create :
  Rng.t -> ?min_delay:float -> ?max_delay:float -> ?chaos:Chaos.state ->
  Graph.t -> t

(** [now net] is the current simulation time. *)
val now : t -> float

(** [messages net] counts messages sent so far. *)
val messages : t -> int

(** [max_delay net] is the network's maximum single-hop delay — the base
    for retransmission timeouts in {!Reliable.Async}. *)
val max_delay : t -> float

(** [send net ~src ~dst handler] sends one message along the edge
    [{src,dst}] (must exist); [handler] runs at the delivery time.
    Raises [Invalid_argument] for non-adjacent pairs. *)
val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

(** [transmit net ?cid ~src ~dst handler] is {!send} returning the
    message's causal id (minted while tracing, [-1] otherwise; pass
    [cid] to re-send under an existing identity — {!Reliable.Async}
    does for retransmits).  While tracing, emits one [Msg_send] (with
    [bits = 1]: the async plane counts messages, not bits) and each
    surviving copy emits a [Msg_deliver] with the same id when its
    handler fires. *)
val transmit : t -> ?cid:int -> src:int -> dst:int -> (unit -> unit) -> int

(** [set_skeleton net mask] arms spanner-vs-rest congestion attribution
    ([mask] has one flag per edge id): every physical message copy from
    then on bumps [net.msgs.spanner] or [net.msgs.other].  Raises
    [Invalid_argument] on a size mismatch. *)
val set_skeleton : t -> bool array -> unit

(** [at net ~time handler] schedules a timer.  Raises [Invalid_argument]
    if [time] is [nan] or before {!now}. *)
val at : t -> time:float -> (unit -> unit) -> unit

(** [run ?until ?max_events net] processes events in time order until the
    queue is empty (or [until]/[max_events] is hit).  An event due after
    [until] stays queued, where it was, for a later [run].  Returns the
    number of events processed. *)
val run : ?until:float -> ?max_events:int -> t -> int
