(* ftspan's performance ledger.

     ledger.exe bench --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last line of stdout is one
         JSON object {correct, attempted, failed, metrics} holding every
         end-to-end metric (--trace 0) or every per-layer metric (1).
     ledger.exe run [--out R.json] [--seed N] [--seconds S] [--trace]
         every workload, each in its own child process, printed as one
         table and written to R.json (spans to spans.json beside it).
     ledger.exe diff BASE.json RUN.json
         per-workload verdicts under the bounds of BENCHMARK.json.

   The metrics and workloads are described in README.md. *)

open Cmdliner
module J = Obs_json
module M = Ledger_metrics
module S = Ledger_stats
module W = Ledger_work

let default_seed = 0xD1412
let default_seconds = 10.

(* ------------------------------------------------------------------ *)
(* One workload: the entry point BENCHMARK.json names, and the child of
   [run] *)

let summary_json unit (s : S.summary) =
  J.Obj
    [
      ("value", J.Float s.S.value);
      ("unit", J.String unit);
      ("q1", J.Float s.S.q1);
      ("q3", J.Float s.S.q3);
      ("samples", J.Int s.S.samples);
    ]

let input_json (i : W.input) =
  J.Obj
    [
      ("file", J.String i.W.file);
      ("n", J.Int i.W.n);
      ("m", J.Int i.W.m);
      ("digest", J.String i.W.digest);
    ]

let layer_times_json () =
  J.Obj
    (List.map
       (fun (name, (l : Ledger_trace.layer)) ->
         ( name,
           J.Obj
             [
               ("self_s", J.Float l.Ledger_trace.self_s);
               ("total_s", J.Float l.Ledger_trace.total_s);
               ("calls", J.Int l.Ledger_trace.calls);
               ("minor_words", J.Float l.Ledger_trace.minor_words);
               ("major_words", J.Float l.Ledger_trace.major_words);
             ] ))
       (Ledger_trace.layers ()))

let bench workload seed seconds trace quick detail =
  let ctx =
    {
      W.seed;
      seconds;
      quick;
      traced = trace = 1;
      attempted = 0;
      failures = [];
      peak_heap_mb = 0.;
    }
  in
  let r = (List.assoc workload W.all) ctx in
  (* Every metric BENCHMARK.json declares, in catalogue order: measured ones
     must be finite; layers a workload does not exercise read 0. *)
  let metrics =
    if ctx.W.traced then
      List.map
        (fun (m : M.metric) ->
          let v = Option.value ~default:0. (List.assoc_opt m.M.name r.W.layers) in
          (m, S.single (if Float.is_finite v then v else 0.)))
        M.per_layer
    else
      List.map
        (fun (m : M.metric) ->
          let s = List.assoc m.M.name r.W.e2e in
          W.check ctx
            (Float.is_finite s.S.value && s.S.value <> 0.)
            (m.M.name ^ " is not a finite non-zero number");
          (m, if Float.is_finite s.S.value then s else S.single 0.))
        M.end_to_end
  in
  let failed = List.length ctx.W.failures in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev ctx.W.failures);
  List.iter
    (fun ((m : M.metric), s) ->
      Printf.printf "%-18s %-30s %14.6g %-6s n=%d\n" workload m.M.name s.S.value
        m.M.unit s.S.samples)
    metrics;
  List.iter
    (fun (name, unit, s) ->
      Printf.printf "%-18s %-30s %14.6g %-6s n=%d (info)\n" workload name
        s.S.value unit s.S.samples)
    (if ctx.W.traced then [] else r.W.info);
  Option.iter
    (fun file ->
      let doc =
        J.Obj
          ([
             ("name", J.String workload);
             ("traced", J.Bool ctx.W.traced);
             ("correct", J.Bool (failed = 0));
             ("attempted", J.Int ctx.W.attempted);
             ("failed", J.Int failed);
             ("failures", J.List (List.rev_map (fun s -> J.String s) ctx.W.failures));
             ("inputs", J.List (List.map input_json r.W.inputs));
             ( "metrics",
               J.Obj
                 (List.map
                    (fun ((m : M.metric), s) -> (m.M.name, summary_json m.M.unit s))
                    metrics) );
             ( "info",
               J.Obj (List.map (fun (n, u, s) -> (n, summary_json u s)) r.W.info) );
           ]
          @
          if ctx.W.traced then
            [
              ("layer_times", layer_times_json ());
              ("spans", J.List (Ledger_trace.spans ()));
            ]
          else [])
      in
      Out_channel.with_open_bin file (fun oc -> output_string oc (J.to_string doc)))
    detail;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int ctx.W.attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun ((m : M.metric), s) ->
                     ( m.M.name,
                       J.Obj [ ("value", J.Float s.S.value); ("unit", J.String m.M.unit) ] ))
                   metrics) );
          ]))

(* ------------------------------------------------------------------ *)
(* run: every workload in a child process                               *)

let member_exn path j =
  List.fold_left
    (fun j key ->
      match J.member key j with
      | Some v -> v
      | None -> failwith (Printf.sprintf "ledger: missing %S" key))
    j path

let read_json file =
  match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "ledger: %s: %s" file e)

(* The last line of a child's stdout is what outside tools read: one JSON
   object with exactly these keys. *)
let result_line_ok log =
  let lines =
    In_channel.with_open_bin log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  match List.rev lines with
  | last :: _ -> (
      match J.of_string last with
      | Ok (J.Obj fields) ->
          List.sort compare (List.map fst fields)
          = [ "attempted"; "correct"; "failed"; "metrics" ]
      | _ -> false)
  | [] -> false

let child ~workload ~seed ~seconds ~quick ~trace =
  let tag = workload ^ if trace then "-traced" else "" in
  let detail = Filename.concat W.input_dir (tag ^ ".json") in
  let log = Filename.concat W.input_dir (tag ^ ".out") in
  if not (Sys.file_exists W.input_dir) then Sys.mkdir W.input_dir 0o755;
  if Sys.file_exists detail then Sys.remove detail;
  let args =
    [ Sys.executable_name; "bench"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
      "--detail"; detail ]
    @ if quick then [ "--quick" ] else []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin out
      Unix.stderr
  in
  Unix.close out;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 when not (result_line_ok log) ->
      Error (Printf.sprintf "%s: the last line of %s is not the result object" tag log)
  | Unix.WEXITED 0 when Sys.file_exists detail -> Ok (read_json detail)
  | _ -> Error (Printf.sprintf "%s: child process failed (log: %s)" tag log)

let git_head () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let unit_of record section name =
  Option.bind (J.member section record) (J.member name)
  |> Fun.flip Option.bind (J.member "unit")
  |> Fun.flip Option.bind J.to_str

(* Every workload and metric BENCHMARK.json names is present with its
   unit, and no check failed. *)
let validate (b : M.benchmark) records =
  let problems = ref (M.check_benchmark b) in
  let add p = problems := p :: !problems in
  List.iter
    (fun name ->
      if not (List.mem_assoc name W.all) then
        add (name ^ ": BENCHMARK.json names a workload the ledger does not run"))
    b.M.workloads;
  List.iter
    (fun (name, record) ->
      if not (List.mem name b.M.workloads) then
        add (name ^ ": workload missing from BENCHMARK.json");
      if J.to_int (member_exn [ "failed" ] record) <> Some 0 then
        add (name ^ ": error_rate is not 0");
      let sections =
        ("metrics", b.M.declared_e2e)
        :: (if J.member "layers" record = None then [] else [ ("layers", b.M.declared_layers) ])
      in
      List.iter
        (fun (section, declared) ->
          List.iter
            (fun (d : M.declared) ->
              let m = d.M.metric in
              if unit_of record section m.M.name <> Some m.M.unit then
                add (Printf.sprintf "%s: %s %s missing or in another unit" name section m.M.name))
            declared)
        sections)
    records;
  List.rev !problems

let print_record (name, record) =
  let section key label =
    match J.member key record with
    | Some (J.Obj fields) ->
        List.iter
          (fun (metric, v) ->
            let num k = Option.bind (J.member k v) J.to_number in
            let unit = Option.bind (J.member "unit" v) J.to_str in
            Printf.printf "  %-12s %-30s %14.6g %-6s%s\n" label metric
              (Option.value ~default:nan (num "value"))
              (Option.value ~default:"" unit)
              (match (num "q1", num "q3", Option.bind (J.member "samples" v) J.to_int) with
              | Some q1, Some q3, Some n when n > 1 -> Printf.sprintf " [q1 %.6g, q3 %.6g, n=%d]" q1 q3 n
              | _, _, Some n when n > 1 -> Printf.sprintf " [n=%d]" n
              | _ -> ""))
          fields
    | _ -> ()
  in
  Printf.printf "%s: attempted %s, failed %s\n" name
    (J.to_string (member_exn [ "attempted" ] record))
    (J.to_string (member_exn [ "failed" ] record));
  section "metrics" "end-to-end";
  section "info" "info";
  section "layers" "layer"

let run out seed seconds trace quick benchmark =
  let b =
    match M.load_benchmark benchmark with
    | Ok b -> b
    | Error e -> failwith (Printf.sprintf "ledger: %s: %s" benchmark e)
  in
  let errors = ref [] in
  let spans = ref [] in
  let records =
    List.filter_map
      (fun (workload, _) ->
        match child ~workload ~seed ~seconds ~quick ~trace:false with
        | Error e ->
            errors := e :: !errors;
            None
        | Ok plain ->
            let traced =
              if not trace then []
              else
                match child ~workload ~seed ~seconds ~quick ~trace:true with
                | Error e ->
                    errors := e :: !errors;
                    []
                | Ok t ->
                    spans := (workload, member_exn [ "spans" ] t) :: !spans;
                    [
                      ("layers", member_exn [ "metrics" ] t);
                      ("layer_times", member_exn [ "layer_times" ] t);
                      ("traced_failed", member_exn [ "failed" ] t);
                    ]
            in
            let fields = match plain with J.Obj f -> f | _ -> [] in
            Some (workload, J.Obj (fields @ traced)))
      W.all
  in
  let inputs =
    List.concat_map
      (fun (workload, r) ->
        match J.to_list (member_exn [ "inputs" ] r) with
        | Some l ->
            List.map
              (function J.Obj f -> J.Obj (("workload", J.String workload) :: f) | j -> j)
              l
        | None -> [])
      records
  in
  let header =
    J.Obj
      [
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("quick", J.Bool quick);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("git", J.String (git_head ()));
        ("inputs", J.List inputs);
      ]
  in
  Printf.printf "ledger: seed %d, %gs per workload, nproc %d, OCaml %s\n" seed
    seconds (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iter print_record records;
  let problems =
    List.rev !errors
    @ validate b records
    @ List.filter_map
        (fun (name, r) ->
          match J.member "traced_failed" r with
          | Some v when J.to_int v <> Some 0 -> Some (name ^ ": traced run failed a check")
          | _ -> None)
        records
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          J.to_channel oc
            (J.Obj
               [
                 ("schema", J.String "ftspan.ledger.v1");
                 ("header", header);
                 ("workloads", J.Obj records);
               ]));
      if trace then
        Out_channel.with_open_bin
          (Filename.concat (Filename.dirname file) "spans.json")
          (fun oc -> output_string oc (J.to_string (J.Obj (List.rev !spans)))))
    out;
  List.iter (fun p -> Printf.printf "PROBLEM %s\n" p) problems;
  if problems <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* diff                                                                 *)

type verdict = Better | Within | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Within -> "within"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let summary_of j =
  let num k = Option.bind (J.member k j) J.to_number in
  match (num "value", num "q1", num "q3") with
  | Some value, Some q1, Some q3 ->
      let samples = Option.value ~default:1 (Option.bind (J.member "samples" j) J.to_int) in
      Some { S.value; q1; q3; samples }
  | Some value, _, _ -> Some (S.single value)
  | _ -> None

let ratio_change a b = if a = 0. then 0. else (b -. a) /. Float.abs a

(* [worse] is the change in the metric's bad direction, as a share of the
   base value.  A quartile spread wider than the bound on either side
   leaves the comparison unresolved. *)
let judge (m : M.metric) ~bound (base : S.summary) (run : S.summary) =
  let change = ratio_change base.S.value run.S.value in
  let worse = match m.M.better with M.Lower -> change | M.Higher -> -.change in
  let v =
    if Float.max (S.spread base) (S.spread run) > bound then Unresolved
    else if worse > bound then Worse
    else if worse < -.bound then Better
    else Within
  in
  (change, v)

let diff base_file run_file benchmark =
  let b =
    match M.load_benchmark benchmark with
    | Ok b -> b
    | Error e -> failwith (Printf.sprintf "ledger: %s: %s" benchmark e)
  in
  let base = member_exn [ "workloads" ] (read_json base_file) in
  let run = member_exn [ "workloads" ] (read_json run_file) in
  let header file =
    let h = member_exn [ "header" ] (read_json file) in
    Printf.sprintf "seed %s, git %s"
      (J.to_string (member_exn [ "seed" ] h))
      (Option.value ~default:"?" (J.to_str (member_exn [ "git" ] h)))
  in
  Printf.printf "base: %s\nrun:  %s\n" (header base_file) (header run_file);
  Printf.printf "%-18s %-28s %14s %14s %9s %6s  %s\n" "workload" "metric" "base"
    "run" "change" "bound" "verdict";
  let worse = ref false in
  List.iter
    (fun workload ->
      let pick side section name =
        Option.bind (J.member workload side) (fun r ->
            Option.bind (J.member section r) (fun s ->
                Option.bind (J.member name s) summary_of))
      in
      List.iter
        (fun (d : M.declared) ->
          let m = d.M.metric and bound = Option.value ~default:0. d.M.bound in
          match (pick base "metrics" m.M.name, pick run "metrics" m.M.name) with
          | Some bs, Some rs ->
              let change, v = judge m ~bound bs rs in
              if v = Worse then worse := true;
              Printf.printf "%-18s %-28s %14.6g %14.6g %+8.2f%% %5.0f%%  %s\n" workload
                m.M.name bs.S.value rs.S.value (100. *. change) (100. *. bound)
                (verdict_name v)
          | _ -> Printf.printf "%-18s %-28s missing on one side\n" workload m.M.name)
        b.M.declared_e2e;
      List.iter
        (fun section ->
          let names =
            match Option.bind (J.member workload run) (J.member section) with
            | Some (J.Obj f) -> List.map fst f
            | _ -> []
          in
          List.iter
            (fun name ->
              match (pick base section name, pick run section name) with
              | Some bs, Some rs when bs.S.value <> 0. || rs.S.value <> 0. ->
                  Printf.printf "%-18s %-28s %14.6g %14.6g %+8.2f%%         (%s)\n"
                    workload name bs.S.value rs.S.value
                    (100. *. ratio_change bs.S.value rs.S.value)
                    section
              | _ -> ())
            names)
        [ "info"; "layers" ])
    b.M.workloads;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let seed_arg =
  Arg.(value & opt int default_seed & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let seconds_arg =
  Arg.(
    value & opt float default_seconds
    & info [ "seconds" ] ~docv:"S" ~doc:"Seconds each workload's measured loop runs.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Tiny inputs and minimum repetitions: a smoke test.")

let benchmark_arg =
  Arg.(
    value & opt file "BENCHMARK.json"
    & info [ "benchmark" ] ~docv:"FILE" ~doc:"The benchmark description holding the bounds.")

let bench_cmd =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun (n, _) -> (n, n)) W.all))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let trace =
    Arg.(
      value & opt (enum [ ("0", 0); ("1", 1) ]) 0
      & info [ "trace" ] ~docv:"0|1" ~doc:"1 reports the per-layer metrics of a traced run.")
  in
  let detail =
    Arg.(
      value & opt (some string) None
      & info [ "detail" ] ~docv:"FILE" ~doc:"Also write the full record (quartiles, inputs, spans) here.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one workload; the last line of stdout is the result.")
    Term.(const bench $ workload $ seed_arg $ seconds_arg $ trace $ quick_arg $ detail)

let run_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the results here.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Also run each workload traced, for the per-layer metrics.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run every workload, each in its own process.")
    Term.(const run $ out $ seed_arg $ seconds_arg $ trace $ quick_arg $ benchmark_arg)

let diff_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two results files under the bounds of BENCHMARK.json.")
    Term.(const diff $ file 0 "BASE" $ file 1 "RUN" $ benchmark_arg)

let () =
  exit (Cmd.eval (Cmd.group (Cmd.info "ledger" ~doc:"ftspan's performance ledger.") [ bench_cmd; run_cmd; diff_cmd ]))
