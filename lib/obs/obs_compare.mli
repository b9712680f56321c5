(** Regression comparison of two [ftspan.metrics.v1] reports (see
    {!Obs_sink}): a checked-in baseline against a fresh run.

    Entries are matched by id, then the wall time and every counter are
    judged against per-metric tolerances.  Counters are deterministic
    given the repo's fixed seeds, so their tolerance is tight; wall
    times vary across machines, so theirs is loose and carries an
    absolute floor (sub-noise timings never fail).  Improvements never
    fail — the gate is one-sided.

    One carve-out: [pool.*] counters (the {!Exec} domain-pool's tasks,
    steals, and per-worker busy shares) are scheduling-dependent — they
    vary with the jobs count and the steal order — so the comparison
    skips them entirely, in both documents.  The chaos fault series
    ([net.drops], [net.dups], [net.reorders], [net.retries],
    [net.giveups]) are skipped for the analogous reason: they count
    injected faults and the retransmit protocol's reactions, which move
    with any fault-plan or backoff-policy change.  Everything else on a
    parallel or lossy entry (e.g. [greedy-parallel]'s [lbc.*] series)
    stays under the tight counter tolerance, which is exactly the
    determinism contract of [Exec.parallel_for] and of the reliable
    delivery layer.

    [bench/compare.exe] is the CLI over this module; the [@bench-compare]
    and [@obs-check] dune aliases run it against [BENCH_BASELINE.json]. *)

type verdict =
  | Within  (** inside tolerance *)
  | Improved  (** strictly below the baseline — never a failure *)
  | Regression  (** above the allowed limit *)
  | Missing  (** present in the baseline, absent from the run *)
  | New  (** absent from the baseline — informational only *)

type finding = {
  entry : string;  (** report entry id, e.g. ["smoke-lbc"] *)
  metric : string;  (** ["wall_time_s"], a counter name, or ["(entry)"] *)
  base_v : float option;
  run_v : float option;
  limit : float;  (** max allowed run value ([nan] when not applicable) *)
  verdict : verdict;
}

type tolerances = {
  wall_rel : float;  (** allowed relative increase of [wall_time_s] *)
  wall_abs : float;  (** absolute wall slack in seconds, added on top *)
  counter_rel : float;  (** allowed relative increase of any counter *)
}

(** Tight on counters (deterministic), loose on wall time:
    [{ wall_rel = 1.5; wall_abs = 0.25; counter_rel = 0.25 }]. *)
val default_tolerances : tolerances

(** [scale s t] multiplies every slack in [t] by [s] (the [--slack]
    flag; [@obs-check] uses [scale 2.]). *)
val scale : float -> tolerances -> tolerances

(** The single source of truth for the gate's carve-outs: every metric
    whose name starts with one of these prefixes is skipped by
    {!compare_reports}, in both documents.  Currently the [pool.]
    scheduling series and the chaos [net.*] fault series.
    [bench/compare.exe] prints which of these actually matched. *)
val excluded_prefixes : string list

(** [compare_reports ?tol base run] matches the two documents (baseline
    first) and returns one finding per compared metric, grouped by
    entry.  [Error] on a malformed document or a schema tag other than
    [ftspan.metrics.v1]. *)
val compare_reports :
  ?tol:tolerances -> Obs_json.t -> Obs_json.t -> (finding list, string) result

(** [regressed fs] is true iff any finding is a {!Regression} or
    {!Missing} — the gate's exit condition. *)
val regressed : finding list -> bool

(** [pp_findings ppf fs] renders the delta table. *)
val pp_findings : Format.formatter -> finding list -> unit
