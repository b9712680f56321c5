(** Deterministic, seeded fault injection for the network simulators.

    The paper's object is a structure that {e survives faults}; this module
    brings faults to the execution layer.  A {!plan} describes an
    unreliable network — per-message drop and duplication probabilities,
    bounded reordering (synchronous nets) or delay spikes (asynchronous
    nets), and node crash/recover schedules.  Both {!Net} and {!Async_net}
    accept a started plan and consult it on every send/delivery.

    Every random choice is drawn from a private {!Rng.t} seeded by the
    plan, {e not} from the algorithm's generator, so

    - a chaotic run is replayable bit-for-bit from [(plan, algorithm
      seed)]; and
    - the algorithm's own random draws are untouched — a construction that
      masks the faults (e.g. via {!Reliable}) produces the very same
      spanner selection as the fault-free run.

    Fault events are visible three ways: the process-global [net.drops] /
    [net.dups] / [net.reorders] counters (plus [net.retries] /
    [net.giveups] maintained by {!Reliable}), per-{!state} {!counts}, and
    — while {!Obs_trace.enabled} — one [chaos] trace event per injected
    fault. *)

type plan = {
  drop : float;  (** per-message-copy drop probability, in [[0,1]] *)
  dup : float;  (** probability a message is delivered twice *)
  reorder : int;
      (** max extra rounds a synchronous message may lag (uniform in
          [[0, reorder]]); [0] preserves delivery order.  At most 254:
          the synchronous {!Reliable} retransmits a packet after
          [2 + reorder] physical rounds, backs off up to 8x and gives it
          up after 30 attempts, so one logical round lasts at most
          [212 * (2 + reorder)] physical rounds, and the bound keeps
          that round budget within [212 * 256 = 54,272 < 2^16]. *)
  spike : float;
      (** probability an asynchronous delivery suffers a delay spike *)
  spike_factor : float;  (** delay multiplier applied by a spike, [>= 1] *)
  crashes : (int * float * float) list;
      (** [(node, from, until)] — the node is down for [from <= t < until];
          synchronous nets read [t] as the round number *)
  seed : int;  (** seed of the private fault stream *)
}

(** [plan ()] is the fault-free plan; every optional argument overrides
    one field.  Raises [Invalid_argument] on values no run can use:
    probabilities outside [[0,1]], [reorder] outside [[0, 254]],
    [spike_factor] below 1 or not finite, a negative crash node, and a
    crash window whose [from] is negative or not finite or whose
    [until] is below [from] or [nan]. *)
val plan :
  ?drop:float ->
  ?dup:float ->
  ?reorder:int ->
  ?spike:float ->
  ?spike_factor:float ->
  ?crashes:(int * float * float) list ->
  ?seed:int ->
  unit ->
  plan

(** [is_silent p] is [true] when [p] injects nothing — no drops, dups,
    reordering, spikes or crashes. *)
val is_silent : plan -> bool

(** {1 CLI spec grammar}

    [KEY=VALUE] pairs separated by commas:
    {v
    drop=P       drop probability            (float in [0,1])
    dup=P        duplication probability     (float in [0,1])
    reorder=R    max reorder lag in rounds   (int in [0, 254])
    spike=P      delay-spike probability     (float in [0,1])
    spikex=F     spike delay multiplier      (finite float >= 1, default 5)
    seed=N       fault-stream seed           (int, default 0xC4A05)
    crash=V@T    crash node V at time T      (finite T >= 0, repeatable)
    recover=V@T  recover node V at time T    (closes V's last crash)
    v}
    Example: [drop=0.2,dup=0.05,reorder=4,seed=7,crash=3@2.5]. *)

(** [parse_spec s] parses the grammar above. *)
val parse_spec : string -> (plan, string) result

(** [pp_plan ppf p] prints [p] back in spec form (fault-free fields are
    omitted; the seed is always shown). *)
val pp_plan : Format.formatter -> plan -> unit

(** {1 Runtime state} *)

type counts = {
  c_drops : int;  (** message copies destroyed (crash-induced included) *)
  c_dups : int;  (** network-generated duplicate copies *)
  c_reorders : int;  (** copies delivered late (lag > 0 or spiked) *)
}

type state

(** [start plan] arms a fresh fault stream: the same plan always yields
    the same schedule, independent of the algorithm's own generator. *)
val start : plan -> state

val plan_of : state -> plan
val counts : state -> counts

(** [crashed st ~node ~time] consults the crash schedule. *)
val crashed : state -> node:int -> time:float -> bool

(** {2 Draws — consumed by the simulators}

    Each draw advances the private stream and bumps the matching counter
    and (while tracing) emits a [chaos] event; [src]/[dst] label the
    affected message and [cid] is its causal id (default [-1] = none),
    so a traced fate joins the message's lifecycle. *)

(** [draw_drop st ~src ~dst] decides whether this copy is destroyed. *)
val draw_drop : ?cid:int -> state -> src:int -> dst:int -> bool

(** [draw_dup st ~src ~dst] decides whether the network duplicates this
    message. *)
val draw_dup : ?cid:int -> state -> src:int -> dst:int -> bool

(** [draw_lag st ~src ~dst] draws a synchronous reorder lag in
    [[0, reorder]] (counted when positive). *)
val draw_lag : ?cid:int -> state -> src:int -> dst:int -> int

(** [draw_spike st ~src ~dst] draws an asynchronous delay multiplier:
    [1.0], or [spike_factor] with probability [spike] (counted). *)
val draw_spike : ?cid:int -> state -> src:int -> dst:int -> float

(** [count_crash_drop st ~src ~dst] records a copy destroyed because an
    endpoint was crashed (no stream consumption). *)
val count_crash_drop : ?cid:int -> state -> src:int -> dst:int -> unit

(** {1 Shared telemetry}

    The retry/give-up series live here (not in {!Reliable}) so every
    layer reports through one family of [net.*] names. *)

val retries_counter : Obs.Counter.t  (** [net.retries] *)

val giveups_counter : Obs.Counter.t  (** [net.giveups] *)
