open Cmdliner

(* ------------------------------ eval ------------------------------- *)

(* Usage and format errors exit 2, whichever stage of cmdliner caught
   them; cmdliner itself would split them over 123 and 124. *)
let eval cmd =
  match Cmd.eval_value cmd with
  | Ok (`Ok () | `Help | `Version) -> Cmd.Exit.ok
  | Error (`Parse | `Term) -> 2
  | Error `Exn -> Cmd.Exit.internal_error

(* ------------------------------ jobs ------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sections (the batched greedy's \
     decision phase under $(b,build), the fault batteries under \
     $(b,verify), the query plane under $(b,dynamic)).  Defaults to 1 — \
     fully sequential, so existing scripted runs are byte-identical — or \
     to $(b,FTSPAN_JOBS) when that is set.  Results are deterministic: \
     any jobs count produces the same output as 1."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (`Msg (Printf.sprintf "--jobs must be >= 1 (got %d)" n))
  | None -> Ok (Exec.default_jobs ())

(* Run [f] with a pool of [jobs] workers ([None] when sequential), shut
   down on every exit path. *)
let with_jobs jobs f =
  if jobs = 1 then f None
  else Exec.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

(* ------------------------------ shard ------------------------------ *)

let shard_arg =
  let doc =
    "Decomposition-sharded build (the paper's Theorem 11 run natively): \
     sample an O(log n) padded partition, build each cluster's spanner \
     on its own $(b,--jobs) pool worker, union the selections and keep \
     the boundary edges.  Trades an O(log n) size factor for \
     cluster-level parallelism; the selection is bit-identical at every \
     $(b,--jobs) count and replays from $(b,--seed)."
  in
  Arg.(value & flag & info [ "shard" ] ~doc)

(* ------------------------------ chaos ------------------------------ *)

let chaos_arg =
  let doc =
    "Inject network faults into the simulator and mask them with the \
     reliable-delivery protocol.  $(docv) is a comma-separated list of \
     KEY=VALUE pairs: $(b,drop)=P, $(b,dup)=P, $(b,reorder)=R (max round \
     lag), $(b,spike)=P, $(b,spikex)=F (delay multiplier), $(b,seed)=N \
     (fault-stream seed), $(b,crash)=V@T, $(b,recover)=V@T.  The fault \
     stream is private to the plan, so the spanner selection matches the \
     chaos-free run; retransmissions show up in the $(b,net.retries) \
     counter under $(b,--metrics)."
  in
  let plan_conv =
    Arg.conv
      ( (fun s ->
          match Chaos.parse_spec s with
          | Ok plan -> Ok plan
          | Error msg -> Error (`Msg msg)),
        Chaos.pp_plan )
  in
  Arg.(value & opt (some plan_conv) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

(* ----------------------------- metrics ----------------------------- *)

type metrics_format = [ `Pretty | `Json ]

let metrics_arg =
  let doc =
    "Report collected telemetry (counters, timers, histograms, spans) \
     after the command: $(b,pretty) for a human-readable listing, \
     $(b,json) for an ftspan.metrics.v1 document (the schema bench/main.exe \
     --json writes).  $(b,--metrics) alone means $(b,pretty)."
  in
  let fmt = Arg.enum [ ("pretty", `Pretty); ("json", `Json) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Pretty) (some fmt) None
    & info [ "metrics" ] ~docv:"FMT" ~doc)

(* Wrap a subcommand body: scope the obs registry to it, time it, and
   render the snapshot in the requested sink. *)
let with_metrics metrics ~id f =
  match metrics with
  | None -> f ()
  | Some fmt ->
      Obs.reset ();
      let t0 = Unix.gettimeofday () in
      let result = f () in
      let wall = Unix.gettimeofday () -. t0 in
      let entry = { Obs_sink.id; wall_s = wall; snap = Obs.snapshot () } in
      (match fmt with
      | `Pretty ->
          Printf.printf "-- metrics (%s, %.3f s) --\n" id wall;
          Format.printf "%a@." Obs_sink.pp entry.Obs_sink.snap
      | `Json ->
          print_endline
            (Obs_json.to_string ~indent:true (Obs_sink.json_of_report [ entry ])));
      result

(* ------------------------------ trace ------------------------------ *)

let trace_arg =
  let doc =
    "Record a structured event trace (per-edge LBC verdicts, greedy \
     keep/reject decisions, per-round CONGEST traffic) and write it to \
     $(docv) when the command finishes.  A $(b,,chrome) suffix selects \
     the Chrome trace-event format (open the file in chrome://tracing or \
     https://ui.perfetto.dev); the default is the native ftspan.trace.v1 \
     JSON.  A $(b,,sample=)S suffix (a rate in (0,1] or $(b,1/)N) head-samples \
     the bulk event stream — phase markers and fault events are always \
     kept — and $(b,,seed=)N picks the private sampling-RNG seed, so the \
     same seed replays the same kept set."
  in
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Obs_trace.parse_spec s with
          | Ok spec -> Ok spec
          | Error msg -> Error (`Msg msg)),
        Obs_trace.pp_spec )
  in
  Arg.(
    value
    & opt (some spec_conv) None
    & info [ "trace" ] ~docv:"FILE[,chrome][,sample=S][,seed=N]" ~doc)

(* Wrap a subcommand body in event collection; the file is written even
   when the body raises, so aborted runs keep their partial trace. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some spec ->
      Obs_trace.start ?sample:spec.Obs_trace.sample
        ~sample_seed:spec.Obs_trace.sample_seed ();
      Fun.protect
        ~finally:(fun () ->
          Obs_trace.stop ();
          Obs_trace.write ~file:spec.Obs_trace.file spec.Obs_trace.format;
          Printf.printf "trace written to %s (%d events, %d sampled, %d dropped)\n"
            spec.Obs_trace.file (Obs_trace.seen ()) (Obs_trace.sampled ())
            (Obs_trace.dropped ()))
        f

(* ------------------------- metrics stream -------------------------- *)

let stream_arg =
  let doc =
    "Stream run-time heartbeat snapshots to $(docv) while the command \
     runs: one ftspan.heartbeat.v1 JSON line per beat, carrying counter \
     deltas since the previous beat, latency quantiles (p50/p90/p99/p999 \
     of every log-linear histogram), GC numbers, and pool utilization.  \
     Beats default to one per second; a $(b,,)SECONDS suffix changes the \
     interval and $(b,,ops=)K beats every K logical operations instead."
  in
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Obs_heartbeat.parse_spec s with
          | Ok spec -> Ok spec
          | Error msg -> Error (`Msg msg)),
        Obs_heartbeat.pp_spec )
  in
  Arg.(
    value
    & opt (some spec_conv) None
    & info [ "metrics-stream" ] ~docv:"FILE[,SECONDS][,ops=K]" ~doc)

(* Wrap a subcommand body in the heartbeat reporter; the final beat and
   the close happen on every exit path. *)
let with_stream stream f =
  match stream with
  | None -> f ()
  | Some spec ->
      Obs_heartbeat.start spec;
      Fun.protect
        ~finally:(fun () ->
          Obs_heartbeat.stop ();
          Printf.printf "metrics stream written to %s (%d beats)\n"
            spec.Obs_heartbeat.file
            (Obs_heartbeat.beats ()))
        f
