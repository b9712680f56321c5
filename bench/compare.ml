(* Bench regression gate over two ftspan.metrics.v1 reports.

   Usage:
     compare.exe [--slack F] [--tol-wall F] [--tol-wall-abs S]
                 [--tol-counter F] BASELINE.json RUN.json
     compare.exe --check-heartbeat STREAM.jsonl
     compare.exe --check-trace TRACE.json

   Entries are matched by id; the wall time and every counter are judged
   by Obs_compare against per-metric tolerances (counters tight — the
   repo's seeds make them deterministic; wall time loose, with an
   absolute floor so sub-noise timings cannot fail).  [--slack] scales
   every tolerance at once: the @obs-check alias passes [--slack 2] so
   the gate stays stable on shared runners.  Scheduling-dependent
   [pool.*] counters are skipped by Obs_compare in both documents, so
   the parallel entries (greedy-parallel) gate on their deterministic
   algorithm counters but never on steal order or jobs count.

   [--check-heartbeat] is the second gate mode: it validates an
   ftspan.heartbeat.v1 JSON-lines stream (every line parses, every line
   carries the schema tag, at least one beat reports quantiles), so the
   @obs-stream-check alias can assert the streaming plane end to end.

   [--check-trace] is the third: it validates an ftspan.trace.v1
   document structurally (Obs_analyze.validate — per-event fields,
   monotonic seqs, lifecycle pairing), so the @trace-analyze-check alias
   can assert the causal-tracing plane end to end.  A file that is not a
   v1 trace at all is a usage-class failure (exit 2); a trace that
   parses but violates the structural contract is a gate failure
   (exit 1).

   Exit status: 0 when every metric is within tolerance (improvements
   included) / the stream or trace is valid, 1 on any regression,
   baseline metric missing from the run, or semantically invalid
   stream/trace, 2 on usage or parse errors — the same error/usage
   split as main.exe, whose command line it shares through
   Cli_flags.eval. *)

open Cmdliner

(* A usage-class failure found after parsing (an unreadable or malformed
   document): exit 2, the class cmdliner gives a bad command line. *)
let bad fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "compare.exe: %s\n" msg;
      exit 2)
    fmt

let read_report file =
  let text =
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> bad "%s" msg
  in
  match Obs_json.of_string text with
  | Ok j -> j
  | Error msg -> bad "%s: %s" file msg

(* Validate one ftspan.heartbeat.v1 JSON-lines stream: every line must
   parse and carry the schema tag (parse errors are usage-class, exit 2);
   an empty stream or one whose beats never report a quantile block with
   p50/p99 is a gate failure (exit 1) — it means the quantile pipeline
   went dark while the run was alive. *)
let check_heartbeat file =
  let ic = try open_in file with Sys_error msg -> bad "%s" msg in
  let beats = ref 0 and with_quantiles = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then begin
            incr beats;
            let j =
              match Obs_json.of_string line with
              | Ok j -> j
              | Error msg -> bad "%s: beat %d: %s" file !beats msg
            in
            (match Option.bind (Obs_json.member "schema" j) Obs_json.to_str with
            | Some "ftspan.heartbeat.v1" -> ()
            | Some other -> bad "%s: beat %d: schema %S" file !beats other
            | None -> bad "%s: beat %d: missing schema tag" file !beats);
            match Obs_json.member "quantiles" j with
            | Some (Obs_json.Obj hists) ->
                let has_q (_, h) =
                  Obs_json.member "p50" h <> None
                  && Obs_json.member "p99" h <> None
                in
                if hists <> [] && List.for_all has_q hists then
                  incr with_quantiles
            | _ -> ()
          end
        done
      with End_of_file -> ());
  Printf.printf "heartbeat stream %s: %d beats, %d with quantiles\n" file
    !beats !with_quantiles;
  if !beats = 0 then begin
    print_endline "INVALID: stream is empty";
    exit 1
  end;
  if !with_quantiles = 0 then begin
    print_endline "INVALID: no beat reports latency quantiles";
    exit 1
  end;
  print_endline "OK: valid ftspan.heartbeat.v1 stream"

(* Validate one ftspan.trace.v1 document.  Not-a-trace (I/O error, JSON
   syntax, wrong schema, missing top-level fields) is usage-class, exit
   2; a trace whose events break the structural contract — malformed
   typed events, non-monotonic seqs, inconsistent accounting, deliveries
   without their send on a lossless trace — is a gate failure, exit 1. *)
let check_trace file =
  match Obs_analyze.load file with
  | Error msg -> bad "%s" msg
  | Ok tr -> (
      match Obs_analyze.validate tr with
      | [] ->
          Printf.printf
            "trace %s: %d events (%d seen, %d sampled, %d dropped)\n" file
            (List.length tr.Obs_analyze.t_events)
            tr.Obs_analyze.t_seen tr.Obs_analyze.t_sampled
            tr.Obs_analyze.t_dropped;
          print_endline "OK: valid ftspan.trace.v1 document"
      | violations ->
          List.iter (fun v -> Printf.printf "INVALID: %s\n" v) violations;
          exit 1)

(* Which gate carve-outs actually fired: the prefixes under which either
   document has at least one counter.  Printed so a reader of the gate
   log can see what was deliberately not compared. *)
let matched_exclusions docs =
  let counter_names j =
    match Option.bind (Obs_json.member "entries" j) Obs_json.to_list with
    | None -> []
    | Some entries ->
        List.concat_map
          (fun e ->
            match Obs_json.member "counters" e with
            | Some (Obs_json.Obj fields) -> List.map fst fields
            | _ -> [])
          entries
  in
  let names = List.concat_map counter_names docs in
  let starts_with p s =
    String.length s >= String.length p
    && String.sub s 0 (String.length p) = p
  in
  List.filter
    (fun p -> List.exists (starts_with p) names)
    Obs_compare.excluded_prefixes

let gate tol slack base_file run_file =
  let tol = Obs_compare.scale slack tol in
  let base = read_report base_file and run = read_report run_file in
  match Obs_compare.compare_reports ~tol base run with
  | Error msg -> bad "%s" msg
  | Ok findings ->
      Printf.printf "baseline %s vs run %s (slack %.2g)\n\n" base_file run_file
        slack;
      (match matched_exclusions [ base; run ] with
      | [] -> ()
      | ps ->
          Printf.printf "gate-excluded prefixes skipped: %s\n\n"
            (String.concat " " ps));
      Format.printf "%a@." Obs_compare.pp_findings findings;
      if Obs_compare.regressed findings then begin
        print_endline "\nREGRESSION: run exceeds the baseline tolerance";
        exit 1
      end
      else print_endline "\nOK: within tolerance of the baseline"

let run slack wall_rel wall_abs counter_rel heartbeat trace files =
  let tol = { Obs_compare.wall_rel; wall_abs; counter_rel } in
  match (heartbeat, trace, files) with
  | Some file, None, [] -> Ok (check_heartbeat file)
  | None, Some file, [] -> Ok (check_trace file)
  | Some _, Some _, _ ->
      Error (`Msg "--check-heartbeat and --check-trace are exclusive")
  | Some _, None, _ -> Error (`Msg "--check-heartbeat takes no report files")
  | None, Some _, _ -> Error (`Msg "--check-trace takes no report files")
  | None, None, [ base_file; run_file ] -> Ok (gate tol slack base_file run_file)
  | None, None, _ -> Error (`Msg "expected exactly two report files")

let positive =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let () =
  let tolerance names ~docv default doc =
    Arg.(value & opt positive default & info names ~docv ~doc)
  in
  let d = Obs_compare.default_tolerances in
  let slack =
    let doc = "Scale every tolerance by $(docv)." in
    Arg.(value & opt positive 1.0 & info [ "slack" ] ~docv:"F" ~doc)
  in
  let wall_rel =
    tolerance [ "tol-wall" ] ~docv:"F" d.wall_rel
      "Allowed relative wall-time increase."
  in
  let wall_abs =
    tolerance [ "tol-wall-abs" ] ~docv:"S" d.wall_abs
      "Absolute wall-time slack in seconds, added on top."
  in
  let counter_rel =
    tolerance [ "tol-counter" ] ~docv:"F" d.counter_rel
      "Allowed relative counter increase."
  in
  let heartbeat =
    let doc = "Validate an ftspan.heartbeat.v1 JSON-lines stream instead." in
    Arg.(value & opt (some string) None & info [ "check-heartbeat" ] ~docv:"STREAM" ~doc)
  in
  let trace =
    let doc = "Validate an ftspan.trace.v1 document instead." in
    Arg.(value & opt (some string) None & info [ "check-trace" ] ~docv:"TRACE" ~doc)
  in
  let files =
    let doc = "The baseline report, then the run report." in
    Arg.(value & pos_all string [] & info [] ~docv:"REPORT" ~doc)
  in
  let term =
    Term.(
      term_result
        (const run $ slack $ wall_rel $ wall_abs $ counter_rel $ heartbeat
       $ trace $ files))
  in
  let info =
    Cmd.info "compare.exe"
      ~doc:"Gate a metrics report against a baseline, or validate a stream or trace."
  in
  exit (Cli_flags.eval (Cmd.v info term))
