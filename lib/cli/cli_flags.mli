(** The shared flag grammar of every ftspan tool.

    [ftspan build], [ftspan verify], [ftspan local], [ftspan congest],
    [ftspan dynamic] and [bench/main.exe] all speak the same execution
    dialect — [--jobs], [--chaos], [--trace],
    [--metrics-stream], [--metrics] — and historically each front end
    re-declared it.  This module declares each flag {e once} as a
    cmdliner term, so a typo reads identically wherever it was made, and
    {!eval} gives every tool the same exit-code rule.

    The [with_*] combinators are the matching run-time halves: each
    scopes one observability concern (pool lifetime, metrics snapshot,
    trace collection, heartbeat stream) around a command body and
    releases it on every exit path. *)

(** {1 Evaluation} *)

(** [eval cmd] evaluates [cmd] against [Sys.argv] and returns the process
    exit code: [0] on success (and for [--help]/[--version]), [2] for
    every usage or format error cmdliner reports — an unknown or
    malformed option, a missing file, an [Error] from the term — and
    cmdliner's internal-error code for an uncaught exception.  Failures
    a command reports by exiting directly (exit 1 for corrupt data) keep
    their own codes. *)
val eval : unit Cmdliner.Cmd.t -> int

(** {1 Worker domains ([--jobs])} *)

(** [--jobs N] / [-j N]: worker domains for the parallel sections.
    [None] when absent (the tool then falls back to
    {!Exec.default_jobs}). *)
val jobs_arg : int option Cmdliner.Term.t

(** [resolve_jobs jobs] validates the parsed flag: [Ok n] with [n >= 1],
    [Ok (Exec.default_jobs ())] when absent, or the shared
    ["--jobs must be >= 1 (got %d)"] error. *)
val resolve_jobs : int option -> (int, [ `Msg of string ]) result

(** [with_jobs jobs f] runs [f (Some pool)] under a [jobs]-domain
    {!Exec.Pool.t} (shut down on every exit path), or [f None] when
    [jobs = 1] — sequential callers never pay pool startup. *)
val with_jobs : int -> (Exec.Pool.t option -> 'a) -> 'a

(** {1 Sharded build ([--shard])} *)

(** [--shard]: route [ftspan build]'s greedy algorithms through the
    decomposition-sharded construction ({!Shard_build}); dk11 is
    unaffected. *)
val shard_arg : bool Cmdliner.Term.t

(** {1 Chaos injection ([--chaos])} *)

(** [--chaos SPEC]: a {!Chaos} fault plan for the simulator runs. *)
val chaos_arg : Chaos.plan option Cmdliner.Term.t

(** {1 Telemetry ([--metrics], [--trace], [--metrics-stream])} *)

type metrics_format = [ `Pretty | `Json ]

(** [--metrics \[FMT\]]: report collected telemetry after the command;
    bare [--metrics] means [`Pretty]. *)
val metrics_arg : metrics_format option Cmdliner.Term.t

(** [with_metrics fmt ~id f] scopes the obs registry to [f], times it,
    and renders the snapshot in the requested sink ([f ()] untouched
    when [fmt] is [None]). *)
val with_metrics : metrics_format option -> id:string -> (unit -> 'a) -> 'a

(** [--trace FILE[,chrome][,sample=S][,seed=N]]: record a structured
    event trace while the command runs. *)
val trace_arg : Obs_trace.spec option Cmdliner.Term.t

(** [with_trace spec f] wraps [f] in event collection; the file is
    written even when [f] raises, so aborted runs keep their partial
    trace. *)
val with_trace : Obs_trace.spec option -> (unit -> 'a) -> 'a

(** [--metrics-stream FILE[,SECONDS][,ops=K]]: stream heartbeat
    snapshots while the command runs. *)
val stream_arg : Obs_heartbeat.spec option Cmdliner.Term.t

(** [with_stream spec f] wraps [f] in the heartbeat reporter; the final
    beat and the close happen on every exit path. *)
val with_stream : Obs_heartbeat.spec option -> (unit -> 'a) -> 'a
