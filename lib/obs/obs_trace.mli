(** Structured-event trace: the time-ordered complement to the
    aggregates of {!Obs}.

    Counters and histograms answer "how much in total"; the questions the
    paper's per-edge analysis turns on — how Algorithm 3's per-edge
    [LBC(2k-1, f)] verdicts and BFS-round counts evolve over the edge
    stream, how CONGEST rounds and message bits accrue over time — need
    the individual decisions in order.  This module records typed,
    timestamped events into a bounded ring buffer.  When the buffer
    overflows, the oldest events are overwritten and the loss is
    accounted ({!dropped}), so tracing a long run degrades gracefully
    instead of exhausting memory.

    Tracing is {e off by default} and one-branch-cheap when disabled:
    instrumented sites guard both the event allocation and the {!emit}
    call behind [if Obs_trace.enabled () then ...].  While enabled, emits
    are serialized by a mutex, so multi-domain producers (the parallel
    batched greedy) interleave safely.

    Two export formats:
    - the native [ftspan.trace.v1] JSON document ({!to_json}), a flat
      array of typed event records; and
    - the Chrome trace-event format ({!to_chrome}), loadable in
      [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}: spans
      and LBC calls become duration ([B]/[E]) events, network traffic
      becomes counter ([C]) tracks, per-edge verdicts become instant
      events.

    Span boundaries are captured automatically: {!start} installs an
    {!Obs.set_span_hook} observer, so every {!Obs.with_span} taken while
    tracing (and while {!Obs.enabled}) lands in the event log too. *)

(** One event payload.  Integer ids refer to the {e source} graph's edge
    numbering ([-1] when the caller had no id to attach). *)
type payload =
  | Span_begin of string  (** an {!Obs.with_span} scope opened *)
  | Span_end of string  (** ... and closed (exceptions included) *)
  | Lbc_begin of { edge : int; u : int; v : int; t : int; alpha : int }
      (** {!Lbc.decide} entered for candidate edge [edge] = [{u,v}] *)
  | Lbc_end of { edge : int; yes : bool; bfs_rounds : int; cut_size : int }
      (** ... and returned: verdict, BFS rounds spent, certificate size
          (0 on [No]) *)
  | Greedy_edge of { edge : int; kept : bool; weight : float }
      (** a greedy (poly/exp/batch) committed or rejected an edge *)
  | Congest_round of { round : int; messages : int; bits : int }
      (** one simulator round completed, with that round's traffic *)
  | Chaos_event of { kind : string; cid : int; src : int; dst : int }
      (** one injected network fault, recovery action or delivery-protocol
          event: [kind] is ["drop"], ["dup"], ["reorder"], ["spike"],
          ["retransmit"], ["ack"], ["dup_suppress"] or ["giveup"];
          [cid] is the affected message's causal id ([-1] when the fate
          has no message, e.g. ["crash"]/["recover"]); [src]/[dst] label
          the affected message *)
  | Msg_send of { cid : int; src : int; dst : int; at : float; bits : int }
      (** one physical transmission attempt of message [cid] on the wire
          [src -> dst] at simulated time/round [at].  Retransmits of the
          same application message emit further [Msg_send]s with the
          {e same} cid, so sends-per-cid counts delivery attempts *)
  | Msg_deliver of { cid : int; src : int; dst : int; at : float }
      (** message [cid] reached [dst]'s inbox at simulated time/round
          [at] (duplicate deliveries emit one event each) *)
  | Sync_pulse of { node : int; pulse : int; at : float }
      (** synchronizer [node] entered pulse number [pulse] at simulated
          time [at]; always kept by the sampler — the analyzer's
          critical-path reconstruction needs every pulse *)
  | Cluster_stats of { partition : int; clusters : int; max_depth : int }
      (** one partition of a padded decomposition converged *)
  | Phase of { name : string; index : int }
      (** a numbered algorithm phase boundary (CONGEST iteration,
          dynamic batch, pool region) *)
  | Counter_sample of { name : string; value : int }
      (** a point-in-time sample of a named counter (a Chrome counter
          track) *)
  | Mark of string  (** a free-form instant *)

type event = {
  seq : int;  (** 0-based global emission index (survives ring overflow) *)
  ts_s : float;  (** seconds since {!start} *)
  payload : payload;
}

(** [enabled ()] is [false] until {!start} and after {!stop}. *)
val enabled : unit -> bool

(** [mint_cid ()] draws the next causal message id from a process-global
    stream (dense, starting at 0, rewound by {!start}).  The simulators
    mint one per application message; ids are assigned in send order, so
    a seeded replay mints identical ids — the contract behind cid-keyed
    sampling and the analyzer's cross-run determinism. *)
val mint_cid : unit -> int

(** A head-sampling policy: keep each candidate event with probability
    [Rate r] ([0 < r <= 1]) or [One_in n] (probability [1/n]). *)
type sample = Rate of float | One_in of int

(** [start ?capacity ?sample ?sample_seed ()] clears the buffer, re-arms
    the clock, installs the {!Obs} span hook and enables collection.
    [capacity] (default [65536]) bounds the number of retained events;
    raises [Invalid_argument] if it is [< 1].

    With [sample], high-volume events draw a keep/drop verdict from a
    private stream seeded by [sample_seed] (default 1) — the chaos-plan
    discipline, so a sampled run replays bit-for-bit for a fixed seed.
    Always kept regardless of the draw: [Span_begin]/[Span_end],
    [Phase], [Mark], [Sync_pulse], and the rare fault-recovery chaos
    kinds (["crash"], ["recover"], ["giveup"]).  [Lbc_begin]/[Lbc_end]
    draw {e once per pair} (keyed on the edge id), so exported traces
    keep their begin/end balance.  Message events
    ([Msg_send]/[Msg_deliver]/[Chaos_event] with [cid >= 0]) draw once
    per {e causal id}: a kept message keeps its entire lifecycle —
    every retransmit, fate and delivery — and a sampled-out one
    vanishes wholesale, so per-message statistics computed from a
    sampled trace are unbiased.  Raises [Invalid_argument] on a rate
    outside (0, 1] or [One_in n] with [n < 1]. *)
val start : ?capacity:int -> ?sample:sample -> ?sample_seed:int -> unit -> unit

(** [stop ()] disables collection and removes the span hook.  The buffer
    is retained for export. *)
val stop : unit -> unit

(** [emit p] records [p] now.  A no-op while disabled — but hot paths
    should still test {!enabled} first so the payload is never
    allocated. *)
val emit : payload -> unit

(** [events ()] lists the retained events, oldest first.  After an
    overflow this is the {e suffix} of the sampled stream: [List.length]
    is [min (sampled ()) capacity].  [seq] values keep the global
    emission numbering, so they are non-contiguous while sampling. *)
val events : unit -> event list

(** [seen ()] counts every event emitted since {!start}, sampled-out
    ones included. *)
val seen : unit -> int

(** [sampled ()] counts the events the sampler admitted ([= seen ()]
    when not sampling). *)
val sampled : unit -> int

(** [dropped ()] counts events lost to the sampler or to ring overflow
    ([seen () - retained]). *)
val dropped : unit -> int

(** {1 Export} *)

type format = Native | Chrome

(** A parsed [--trace] argument. *)
type spec = {
  file : string;
  format : format;  (** default [Native] *)
  sample : sample option;  (** default [None] — keep everything *)
  sample_seed : int;  (** default [1] *)
}

(** [parse_spec s] parses the CLI's
    [FILE[,chrome|,native][,sample=R|,sample=1/N][,seed=N]] syntax.
    Option tokens are recognized from the right, so a comma inside the
    file name still parses; a malformed recognized option (e.g.
    [sample=nope], a rate outside (0, 1]) is an [Error] with a
    human-readable message. *)
val parse_spec : string -> (spec, string) result

(** [pp_spec ppf spec] prints the spec back in [parse_spec] syntax. *)
val pp_spec : Format.formatter -> spec -> unit

(** [to_json ()] is the native document:
    {v
    { "schema": "ftspan.trace.v1",
      "created_unix": ..., "seen": n, "sampled": s, "dropped": d,
      "events": [ { "seq": 0, "ts_s": 0.0012, "type": "lbc_begin",
                    "edge": 17, "u": 3, "v": 9, "t": 3, "alpha": 2 }, ... ] }
    v} *)
val to_json : unit -> Obs_json.t

(** [to_chrome ()] is a Chrome trace-event array: every element carries
    ["name"]/["ph"]/["ts"] (microseconds)/["pid"]/["tid"].  End events
    whose opening was lost to ring overflow are elided so the [B]/[E]
    nesting Perfetto reconstructs stays balanced. *)
val to_chrome : unit -> Obs_json.t

(** [write ~file fmt] writes the chosen export as indented JSON. *)
val write : file:string -> format -> unit
