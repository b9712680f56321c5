(** Lightweight telemetry: named counters, timers, histograms and nestable
    spans, collected into a process-global registry and reported through
    the sinks of {!Obs_sink}.

    The layer is designed for hot paths: instrumented code accumulates
    locally and flushes {e once per logical operation} (one BFS, one LBC
    call), so the steady-state cost is a handful of atomic adds per
    operation.  Histograms are the exception: they record {e per
    observation}, and {!Net} observes one per message and one per loaded
    edge per round.  An observation is a binary search over unboxed
    float bounds plus plain stores into the domain's shard: tens of
    nanoseconds, and at most the 2 minor words of a boxed argument
    ({!Histogram.observe_int}).  The master switch {!set_enabled} turns every collection
    point into a no-op — the "null sink" mode — leaving only a dead branch
    in the hot loops.

    Concurrency: counters are atomic and safe to bump from multiple
    domains (the parallel batched greedy does).  Timers and histograms
    are {e sharded per domain}: each domain lazily registers a private
    slot keyed on [Domain.self ()] and records with plain stores into it,
    and every aggregate read ([total_s], [count], [quantile], snapshots)
    merges the shards.  Merged values are exact for any writer the reader
    has synchronized with — the {!Exec} pool's region hand-off and
    [Domain.join] both qualify — so end-of-region totals under the
    parallel greedy are exact, not best-effort; a read raced against a
    still-running writer may miss its latest observations but never
    tears.  Spans remain main-domain constructs.

    Metrics are identified by name.  Requesting an existing name returns
    the already-registered metric, so independent modules may share a
    series (the greedy reads the [lbc.*] counters that {!Lbc.decide}
    writes).  Names use dotted lower-case paths: ["lbc.calls"],
    ["bfs.edges_scanned"]. *)

(** [enabled ()] is the master collection switch (initially [true]). *)
val enabled : unit -> bool

(** [set_enabled b] turns collection on or off globally.  While disabled,
    counter/timer/histogram updates and spans cost one branch and record
    nothing. *)
val set_enabled : bool -> unit

(** [now_s ()] is a monotonically non-decreasing wall-clock reading in
    seconds.  (The OS clock may step backwards; this never does — the
    clamp state is atomic, so the guarantee holds across domains.) *)
val now_s : unit -> float

module Counter : sig
  (** A named monotonic integer, atomic across domains. *)
  type t

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit

  (** Current value.  Reads are not gated on {!Obs.enabled}. *)
  val value : t -> int
end

(** [counter name] registers (or retrieves) the counter [name].
    Raises [Invalid_argument] if [name] is registered as another kind. *)
val counter : string -> Counter.t

module Timer : sig
  (** A named accumulator of elapsed wall-clock time, sharded per
      domain: [record] writes the calling domain's shard, the reads
      below merge all shards. *)
  type t

  val name : t -> string

  (** [time t f] runs [f ()] and adds its duration to [t] (exceptions
      included).  When collection is disabled this is exactly [f ()]. *)
  val time : t -> (unit -> 'a) -> 'a

  (** [record t dt] adds a pre-measured duration in seconds to the
      calling domain's shard. *)
  val record : t -> float -> unit

  val total_s : t -> float
  val count : t -> int
end

val timer : string -> Timer.t

module Gauge : sig
  (** A named level (as opposed to a {!Counter}'s monotonic rate),
      sharded per domain: [set]/[add] touch only the calling domain's
      shard, and [value] reports the {e sum} over all shards — the
      natural merge for queue-depth style gauges where each domain owns
      a piece of the level.  Gauge readings depend on scheduling, so
      snapshots report them separately and the bench gate excludes the
      [gauge.*] prefix. *)
  type t

  val name : t -> string

  (** [set g n] overwrites the calling domain's contribution. *)
  val set : t -> int -> unit

  (** [add g n] adjusts the calling domain's contribution ([n] may be
      negative). *)
  val add : t -> int -> unit

  (** Merged (summed) value across domains. *)
  val value : t -> int
end

(** [gauge name] registers (or retrieves) the gauge [name]; same registry
    rules as {!counter}.  Names use the ["gauge."] prefix by convention so
    regression gates can carve them out. *)
val gauge : string -> Gauge.t

module Histogram : sig
  (** A named distribution: count/sum/min/max plus one of two bucket
      layouts, sharded per domain like {!Timer}.

      - {b pow2} ({!Obs.histogram}): upper bounds 1, 2, 4, ..., 2^30,
        +inf — the right shape for integer work counts (BFS rounds, cut
        sizes, message bits), which span orders of magnitude.
      - {b log-linear} ({!Obs.histogram_log}): 9 linear sub-buckets per
        decade over 1e-7 .. 9e3 plus +inf (HDR-histogram style), the
        right shape for latencies in seconds — every bucket is within
        ~11% of its bound, so tail quantiles stay honest. *)
  type t

  val name : t -> string
  val observe : t -> float -> unit
  val observe_int : t -> int -> unit
  val count : t -> int
  val sum : t -> float

  (** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) from the
      merged buckets: the reported value is the covering bucket's upper
      bound clamped into the observed [[min, max]] envelope, so a
      one-sample histogram answers exactly and the overflow bucket
      reports the observed max.  [0.] when the histogram is empty.
      Raises [Invalid_argument] on [q] outside [[0, 1]]. *)
  val quantile : t -> float -> float
end

(** [histogram name] registers (or retrieves) the power-of-two-bucketed
    histogram [name].  Raises [Invalid_argument] if [name] is registered
    as another kind {e or} as a histogram with the other bucket
    layout. *)
val histogram : string -> Histogram.t

(** [histogram_log name] is the log-linear (latency) flavour; same
    registry rules as {!histogram}. *)
val histogram_log : string -> Histogram.t

(** [with_span name f] runs [f ()] inside a span: a named, nestable timing
    scope.  Spans with the same name under the same parent are merged
    (count + total time), so the recorded structure is a bounded tree of
    distinct paths, not an unbounded event log.  Exceptions propagate and
    the span still closes.  Intended for coarse operations (one spanner
    build, one experiment) — not per-edge work. *)
val with_span : string -> (unit -> 'a) -> 'a

(** [set_span_hook h] installs (or, with [None], removes) an observer
    called on every span boundary that {!with_span} records: [`Begin]
    right before the body runs and [`End] when it closes (exceptions
    included).  The hook fires only while {!enabled} — spans skipped by
    the master switch are invisible to it.  {!Obs_trace} uses this to turn
    the merged span tree into a time-ordered event log; hooks must not
    call {!with_span} themselves. *)
val set_span_hook : ([ `Begin | `End ] -> string -> unit) option -> unit

(** {1 Snapshots}

    A snapshot is an immutable copy of every registered metric, consumed
    by the sinks in {!Obs_sink}.  Taking one merges every timer's and
    histogram's domain shards; it is safe from any domain (the registry
    and span tree are mutex-guarded), with the staleness caveat of the
    concurrency contract above. *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** 0 when the histogram is empty *)
  h_max : float;  (** 0 when the histogram is empty *)
  h_buckets : (float option * int) list;
      (** nonzero buckets only, in increasing bound order; the bound is
          the bucket's inclusive upper edge, [None] for the overflow
          bucket *)
  h_quantiles : (string * float) list;
      (** [("p50", v); ("p90", v); ("p99", v); ("p999", v)] per
          {!Histogram.quantile}; [[]] when the histogram is empty *)
}

type span_view = {
  s_name : string;
  s_count : int;
  s_total_s : float;
  s_children : span_view list;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name; merged across shards *)
  timers : (string * (int * float)) list;  (** name, (count, total seconds) *)
  histograms : (string * histogram_view) list;
  spans : span_view list;
}

val snapshot : unit -> snapshot

(** [reset ()] zeroes every registered metric (all shards) and clears
    recorded spans (registrations survive).  Call it before a measured
    section to scope the next {!snapshot} to that section. *)
val reset : unit -> unit
