(* Benchmark/experiment entry point.

   Usage:
     dune exec bench/main.exe                        # every experiment + micro benches
     dune exec bench/main.exe -- e2 e7               # selected experiments
     dune exec bench/main.exe -- micro               # micro benchmarks only
     dune exec bench/main.exe -- --smoke             # seconds-scale smoke subset
     dune exec bench/main.exe -- --json out.json e2  # + ftspan.metrics.v1 report
     dune exec bench/main.exe -- --match lbc         # jobs whose id contains "lbc"
     dune exec bench/main.exe -- --trace t.json,chrome e2  # + event trace
     dune exec bench/main.exe -- --trace t.json,sample=0.01,seed=7 e2
     dune exec bench/main.exe -- --metrics-stream hb.jsonl,ops=4096 e2

   Experiment ids follow DESIGN.md's index (e1..e17); each regenerates the
   table validating one of the paper's theorems, and EXPERIMENTS.md records
   the paper-claim vs measured comparison.  With [--json] each job runs
   against a freshly reset telemetry registry and its snapshot (wall time,
   every counter/timer/histogram, span tree) becomes one report entry.
   With [--trace FILE[,chrome][,sample=S][,seed=N]] the whole run is
   event-traced (Obs_trace) — optionally head-sampled, keeping phase and
   fault events always — and the log written when the last job finishes.
   With [--metrics-stream FILE[,SECONDS][,ops=K]] a heartbeat reporter
   appends one ftspan.heartbeat.v1 JSON line per beat while jobs run.

   Arguments are parsed by cmdliner with the flag terms shared with the
   ftspan CLI (Cli_flags).  An unknown option or experiment id is an
   error: usage goes to stderr and the process exits with code 2, so
   typos cannot silently skip experiments in CI. *)

open Cmdliner

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

(* Wall time feeds the log-linear histogram so the report's quantile block
   covers the bench itself, not just the instrumented library layers. *)
let h_wall = Obs.histogram_log "bench.wall_s"

let run_job (id, fn) =
  Obs.reset ();
  let (), wall = Tables.time fn in
  Obs.Histogram.observe h_wall wall;
  { Obs_sink.id; wall_s = wall; snap = Obs.snapshot () }

let run json trace stream smoke filter jobs ids =
  Result.map
    (fun jobs ->
      (* Worker-domain count for the parallel experiments (greedy-parallel
         and the E12 sweep read it back via [Exec.default_jobs]).  The
         default, 1, keeps every job sequential so checked-in counters stay
         exact. *)
      Exec.set_default_jobs jobs;
      let jobs = if smoke then Experiments.smoke @ ids else ids in
      let jobs =
        if jobs = [] && not smoke then
          Experiments.by_name @ [ ("micro", Micro.run) ]
        else jobs
      in
      (* [--match] narrows whatever the flags above selected; it may
         narrow it to nothing, which is not an error (see the empty-report
         guard). *)
      let jobs =
        match filter with
        | None -> jobs
        | Some sub -> List.filter (fun (id, _) -> contains ~sub id) jobs
      in
      let entries =
        Cli_flags.with_trace trace @@ fun () ->
        Cli_flags.with_stream stream @@ fun () -> List.map run_job jobs
      in
      match json with
      | None -> ()
      | Some file ->
          (* Written even when the job list resolved to zero jobs:
             downstream tooling (compare.exe, the @obs-check gate) must
             always find a valid ftspan.metrics.v1 document, never a
             missing file. *)
          if entries = [] then
            Printf.printf "no jobs selected; writing an empty report\n";
          Obs_sink.write_report ~file entries;
          Printf.printf "\nmetrics report written to %s (%d entries)\n" file
            (List.length entries))
    (Cli_flags.resolve_jobs jobs)

let job_conv =
  let parse id =
    let id = String.lowercase_ascii id in
    if id = "micro" then Ok ("micro", Micro.run)
    else
      match List.assoc_opt id (Experiments.by_name @ Experiments.smoke) with
      | Some fn -> Ok (id, fn)
      | None ->
          Error (`Msg (Printf.sprintf "unknown experiment id %S (see --help)" id))
  in
  Arg.conv (parse, fun ppf (id, _) -> Format.pp_print_string ppf id)

let () =
  let json =
    let doc = "Write an ftspan.metrics.v1 report, one entry per job, to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let smoke =
    let doc = "Run the seconds-scale smoke subset (before any listed ids)." in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let filter =
    let doc = "Keep only the selected jobs whose id contains $(docv)." in
    Arg.(value & opt (some string) None & info [ "match" ] ~docv:"SUBSTR" ~doc)
  in
  let ids =
    let doc =
      "Experiments to run (default: every experiment and $(b,micro)); ids \
       are listed under EXPERIMENTS."
    in
    Arg.(value & pos_all job_conv [] & info [] ~docv:"ID" ~doc)
  in
  let man =
    [
      `S "EXPERIMENTS";
      `P (String.concat ", " (List.map fst Experiments.by_name) ^ ", micro.");
      `P
        ("Smoke subset (also run by $(b,--smoke)): "
        ^ String.concat ", " (List.map fst Experiments.smoke)
        ^ ".");
    ]
  in
  let term =
    Term.(
      term_result
        (const run $ json $ Cli_flags.trace_arg $ Cli_flags.stream_arg $ smoke
       $ filter $ Cli_flags.jobs_arg $ ids))
  in
  let info =
    Cmd.info "main.exe" ~man ~doc:"Regenerate the experiment tables and smoke metrics."
  in
  exit (Cli_flags.eval (Cmd.v info term))
