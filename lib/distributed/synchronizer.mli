(** Synchronizer-over-a-skeleton: the Peleg-Ullman application of
    (fault-tolerant) spanners.

    An alpha synchronizer lets an asynchronous network emulate synchronous
    pulses: a node enters pulse [p+1] once it has received [safe(p)] from
    its neighbors.  Running the safety exchange over a sparse {e skeleton}
    [S ⊆ G] instead of all of [G] cuts messages per pulse from [2m] to
    [2|S|]; the price is pulse {e skew} between [G]-neighbors, which is
    governed by their distance in [S] — i.e. by the skeleton's stretch.
    That trade-off is why spanners were introduced (PU89), and fault
    tolerance is what keeps it alive when nodes crash: a spanning tree
    skeleton partitions after one failure, an f-FT spanner skeleton keeps
    every surviving pair within stretch for up to [f] failures.

    The simulation runs on {!Async_net}.  Crashed nodes stop participating
    at their failure time; survivors are informed by an abstracted perfect
    failure detector (they drop the dead from their skeleton-neighbor
    lists at that moment).  Reported skew is
    [max_{surviving G-edge {u,v}} max_p |T_u(p) - T_v(p)|] where [T_x(p)]
    is the time [x] entered pulse [p]. *)

type report = {
  pulses : int;  (** pulses every survivor completed *)
  messages : int;  (** total messages, acks and retransmissions included *)
  completion_time : float;
  max_skew : float;  (** worst pulse-entry time gap across surviving
                         G-edges *)
  skeleton_edges : int;
  survivors_connected : bool;
      (** is the skeleton restricted to survivors still connected? *)
  retransmits : int;
      (** packets re-sent by the reliable-delivery layer (0 without
          chaos) *)
}

(** [run rng ?failures ?chaos ~pulses ~skeleton g] drives every node
    through [pulses] synchronized pulses over the given skeleton (a
    {!Selection.t} over [g]).  [failures = (time, nodes)] crashes the
    listed nodes at the given time.  [chaos] makes message delivery
    unreliable; safety messages then travel through {!Reliable.Async},
    whose acks and retransmissions are included in [messages].  Requires
    the skeleton (restricted to survivors) to leave each node with at
    least zero neighbors — isolated survivors simply free-run, which the
    skew metric exposes. *)
val run :
  Rng.t ->
  ?failures:float * int list ->
  ?chaos:Chaos.plan ->
  pulses:int ->
  skeleton:Selection.t ->
  Graph.t ->
  report
