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

   Unknown arguments are an error: usage goes to stderr and the process
   exits with code 2, so typos cannot silently skip experiments in CI. *)

let usage oc =
  output_string oc
    "usage: main.exe [--json FILE] [--trace FILE[,chrome][,sample=S][,seed=N]] \
     [--metrics-stream FILE[,SECONDS][,ops=K]] [--smoke] \
     [--match SUBSTR] [--jobs N] [e1..e17|micro]...\n";
  output_string oc "experiments:\n";
  List.iter (fun (name, _) -> Printf.fprintf oc "  %s\n" name) Experiments.by_name;
  output_string oc "smoke subset (also run by --smoke):\n";
  List.iter (fun (name, _) -> Printf.fprintf oc "  %s\n" name) Experiments.smoke;
  output_string oc "  micro\n"

let bad_usage fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n" msg;
      usage stderr;
      exit 2)
    fmt

let lookup_job id =
  let id = String.lowercase_ascii id in
  if id = "micro" then ("micro", Micro.run)
  else
    match List.assoc_opt id Experiments.by_name with
    | Some fn -> (id, fn)
    | None -> (
        match List.assoc_opt id Experiments.smoke with
        | Some fn -> (id, fn)
        | None -> bad_usage "unknown experiment id %S" id)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let parse_args args =
  let json = ref None and trace = ref None and smoke = ref false in
  let filter = ref None and jobs = ref [] and stream = ref None in
  let set_trace spec =
    match Obs_trace.parse_spec spec with
    | Ok t -> trace := Some t
    | Error msg -> bad_usage "--trace: %s" msg
  in
  let set_stream spec =
    match Obs_heartbeat.parse_spec spec with
    | Ok s -> stream := Some s
    | Error msg -> bad_usage "--metrics-stream: %s" msg
  in
  (* Worker-domain count for the parallel experiments (greedy-parallel and
     the E12 sweep read it back via [Exec.default_jobs]).  The default, 1,
     keeps every job sequential so checked-in counters stay exact.  The
     flag grammar — parsing and error wording — is Cli_flags, shared with
     the ftspan subcommands. *)
  let set_jobs value =
    match Cli_flags.parse_jobs value with
    | Ok n -> Exec.set_default_jobs n
    | Error msg -> bad_usage "%s" msg
  in
  let opt_with_value name set = function
    | value :: rest ->
        set value;
        rest
    | [] -> bad_usage "%s requires an argument" name
  in
  let rec go = function
    | [] -> ()
    | "--json" :: rest -> go (opt_with_value "--json" (fun f -> json := Some f) rest)
    | "--trace" :: rest -> go (opt_with_value "--trace" set_trace rest)
    | "--metrics-stream" :: rest ->
        go (opt_with_value "--metrics-stream" set_stream rest)
    | "--match" :: rest ->
        go (opt_with_value "--match" (fun s -> filter := Some s) rest)
    | ("--jobs" | "-j") :: rest -> go (opt_with_value "--jobs" set_jobs rest)
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--json=" ->
        json := Some (String.sub arg 7 (String.length arg - 7));
        go rest
    | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--trace=" ->
        set_trace (String.sub arg 8 (String.length arg - 8));
        go rest
    | arg :: rest
      when String.length arg > 17 && String.sub arg 0 17 = "--metrics-stream=" ->
        set_stream (String.sub arg 17 (String.length arg - 17));
        go rest
    | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--match=" ->
        filter := Some (String.sub arg 8 (String.length arg - 8));
        go rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        go rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        bad_usage "unknown option %S" arg
    | id :: rest ->
        jobs := lookup_job id :: !jobs;
        go rest
  in
  go args;
  let jobs = List.rev !jobs in
  let jobs = if !smoke then Experiments.smoke @ jobs else jobs in
  let jobs =
    if jobs = [] && not !smoke then
      Experiments.by_name @ [ ("micro", Micro.run) ]
    else jobs
  in
  (* [--match] narrows whatever the flags above selected; it may narrow
     it to nothing, which is not an error (see the empty-report guard). *)
  let jobs =
    match !filter with
    | None -> jobs
    | Some sub -> List.filter (fun (id, _) -> contains ~sub id) jobs
  in
  (!json, !trace, !stream, jobs)

(* Wall time feeds the log-linear histogram so the report's quantile block
   covers the bench itself, not just the instrumented library layers. *)
let h_wall = Obs.histogram_log "bench.wall_s"

let run_job (id, fn) =
  Obs.reset ();
  let (), wall = Tables.time fn in
  Obs.Histogram.observe h_wall wall;
  { Obs_sink.id; wall_s = wall; snap = Obs.snapshot () }

let () =
  let json, trace, stream, jobs =
    match Array.to_list Sys.argv with
    | _ :: args -> parse_args args
    | [] -> (None, None, None, [])
  in
  Option.iter
    (fun t ->
      Obs_trace.start ?sample:t.Obs_trace.sample
        ~sample_seed:t.Obs_trace.sample_seed ())
    trace;
  Option.iter Obs_heartbeat.start stream;
  let entries = List.map run_job jobs in
  (match stream with
  | None -> ()
  | Some s ->
      Obs_heartbeat.stop ();
      Printf.printf "\nmetrics stream written to %s (%d beats)\n"
        s.Obs_heartbeat.file
        (Obs_heartbeat.beats ()));
  (match trace with
  | None -> ()
  | Some t ->
      Obs_trace.stop ();
      Obs_trace.write ~file:t.Obs_trace.file t.Obs_trace.format;
      Printf.printf "\ntrace written to %s (%d events, %d sampled, %d dropped)\n"
        t.Obs_trace.file (Obs_trace.seen ()) (Obs_trace.sampled ())
        (Obs_trace.dropped ()));
  match json with
  | None -> ()
  | Some file ->
      (* Written even when the job list resolved to zero jobs: downstream
         tooling (compare.exe, the @obs-check gate) must always find a
         valid ftspan.metrics.v1 document, never a missing file. *)
      if entries = [] then
        Printf.printf "no jobs selected; writing an empty report\n";
      Obs_sink.write_report ~file entries;
      Printf.printf "\nmetrics report written to %s (%d entries)\n" file
        (List.length entries)
