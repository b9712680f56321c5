(** Reliable delivery over an unreliable network.

    The simulators inject faults below the algorithm ({!Chaos}); this
    module masks them above it, so the paper's constructions — written
    against a perfectly reliable lockstep network — run unchanged on a
    lossy one.  The classic recipe: per-directed-edge sequence numbers,
    positive acknowledgements, timeout-driven retransmission with
    exponential backoff, and duplicate suppression at the receiver.

    The synchronous wrapper mirrors the {!Net} API.  With no chaos plan
    (or a silent one) it is a transparent passthrough — no headers, no
    acks, bit-identical accounting — so the reliable path costs nothing
    on a reliable network.  With faults enabled, {!next_round} runs as
    many {e physical} rounds as needed until every message of the
    {e logical} round is acknowledged (or given up after a bounded number
    of attempts), then exposes the logical inbox in a canonical
    [(sender, send-order)] order.  The algorithm therefore observes the
    same lockstep semantics either way, and — because fault draws consume
    the chaos plan's private stream, never the algorithm's generator —
    computes the very same result.

    In chaos mode the send window costs O(1) per packet: a send appends
    one record, an ack finds its record through a per-directed-slot
    index, and a physical round visits at most twice as many records as
    are still unacknowledged (acked and abandoned ones are dropped once
    they are the majority).
    Retransmissions go out newest send first, so the chaos stream is
    drawn in the same order for every run of the same traffic.

    Retransmissions count into the global [net.retries] counter and
    abandoned packets into [net.giveups] (both owned by {!Chaos});
    per-network totals are available via {!retransmits} / {!giveups}.
    While {!Obs_trace.enabled}, the protocol narrates each message's
    lifecycle under its causal id: every re-send reuses the first
    attempt's id (so one application message is one lifecycle however
    many attempts it takes), and [chaos] events of kind ["retransmit"],
    ["ack"], ["dup_suppress"] and ["giveup"] mark the protocol's
    reactions.  The [gauge.reliable.unacked] gauge tracks the live
    unacknowledged-send window. *)

type 'msg t

(** [create ?record_history ?chaos ~model ~bits g] wraps a fresh {!Net}.
    [chaos], when present and not {!Chaos.is_silent}, arms fault
    injection (a private {!Chaos.state} is started from the plan) and
    the retransmission protocol.  [bits] measures {e payloads}; the
    protocol charges data headers and acks only in chaos mode. *)
val create :
  ?record_history:bool ->
  ?chaos:Chaos.plan ->
  model:Net.model ->
  bits:('msg -> int) ->
  Graph.t ->
  'msg t

val graph : 'msg t -> Graph.t

(** [send t ~src ~dst msg] queues one logical message for the current
    logical round.  Same adjacency contract as {!Net.send}. *)
val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [broadcast t ~src msg] sends [msg] on every edge incident to
    [src]. *)
val broadcast : 'msg t -> src:int -> 'msg -> unit

(** [next_round t] completes the logical round: in passthrough mode one
    physical round; in chaos mode physical rounds repeat — retransmitting
    unacknowledged packets with backoff — until the round's traffic is
    fully acknowledged or abandoned. *)
val next_round : 'msg t -> unit

(** [inbox t v] lists [(sender, message)] pairs of the previous logical
    round, deduplicated, in ascending [(sender, send order)]. *)
val inbox : 'msg t -> int -> (int * 'msg) list

val charge_rounds : 'msg t -> int -> unit

(** [stats t] is the underlying network's accounting — physical rounds
    and offered load, protocol traffic included. *)
val stats : 'msg t -> Net.stats

val history : 'msg t -> (int * int * int) list array

(** [retransmits t] counts packets re-sent after a timeout. *)
val retransmits : 'msg t -> int

(** [giveups t] counts packets abandoned after the retry budget. *)
val giveups : 'msg t -> int

(** [chaos_counts t] is the injected-fault tally, when chaos is armed. *)
val chaos_counts : 'msg t -> Chaos.counts option

(** {1 Asynchronous wrapper}

    Same protocol over {!Async_net}: acknowledgements travel as ordinary
    messages, retransmission timers via {!Async_net.at} with timeouts
    scaled from the network's maximum delay.  Passthrough without
    chaos. *)
module Async : sig
  type t

  val create :
    Rng.t ->
    ?min_delay:float ->
    ?max_delay:float ->
    ?chaos:Chaos.plan ->
    Graph.t ->
    t

  (** [net t] is the wrapped network — for {!Async_net.at},
      {!Async_net.now}, {!Async_net.run} and {!Async_net.messages}
      (which counts protocol traffic too). *)
  val net : t -> Async_net.t

  (** [send t ~src ~dst handler] delivers [handler] exactly once (barring
      give-up), retransmitting on timeout and suppressing duplicates. *)
  val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

  val retransmits : t -> int
  val giveups : t -> int
  val chaos_counts : t -> Chaos.counts option
end
