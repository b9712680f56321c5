(* ftspan: command-line front end for the fault-tolerant spanner library.

   Subcommands:
     generate   write a graph from one of the workload families
     info       print statistics of a graph file
     build      construct a fault-tolerant spanner and report its summary
     verify     check a spanner selection against sampled/exhaustive faults
     dynamic    replay an update/query script against the dynamic service
     local      run the LOCAL-model construction on the simulator
     congest    run the CONGEST-model construction on the simulator
     trace      offline analysis of recorded event traces *)

open Cmdliner

(* ------------------------- shared arguments ------------------------- *)

let seed_arg =
  let doc = "PRNG seed (all randomness in the tool is derived from it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* An integer option with a lower bound: anything smaller is a parse
   error (exit 2), reported against the option that carried it. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "must be >= %d (got %d)" lo n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

(* A float option restricted to the values [ok] admits ([what] names the
   rule in the error): [nan] or [inf] would otherwise run silently, e.g.
   an edgeless gnp from [-p nan]. *)
let float_where ok what =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when ok x -> Ok x
    | Ok x -> Error (`Msg (Printf.sprintf "must be %s (got %g)" what x))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_float)

let finite_float = float_where Float.is_finite "finite"
let positive_float = float_where Graph.valid_weight "finite and > 0"

let k_arg =
  let doc = "Stretch parameter: the spanner has stretch 2k-1 (k >= 1)." in
  Arg.(value & opt positive_int 2 & info [ "k" ] ~docv:"K" ~doc)

let f_arg =
  let doc = "Number of faults to tolerate (f >= 0)." in
  Arg.(value & opt non_negative_int 1 & info [ "f" ] ~docv:"F" ~doc)

let mode_arg =
  let doc = "Fault mode: $(b,vertex) (VFT) or $(b,edge) (EFT)." in
  let enum_conv =
    Arg.enum [ ("vertex", Fault.VFT); ("edge", Fault.EFT); ("vft", Fault.VFT); ("eft", Fault.EFT) ]
  in
  Arg.(value & opt enum_conv Fault.VFT & info [ "mode" ] ~docv:"MODE" ~doc)

let graph_arg =
  let doc = "Input graph file (see ftspan generate for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)


(* Binary-format failures carry their own exit-code contract (exit 2
   when the file is not an ftspan graph at all, exit 1 when it is one
   but unusable) — report directly, like trace analyze does. *)
let load_graph file =
  try Ok (Graph_io.load file) with
  | Failure msg -> Error (`Msg msg)
  | Sys_error msg -> Error (`Msg msg)
  | Graph_binio.Not_a_graph msg ->
      Printf.eprintf "ftspan: %s\n" msg;
      exit 2
  | Graph_binio.Corrupt msg ->
      Printf.eprintf "ftspan: %s\n" msg;
      exit 1

(* A crash window on a node the graph does not have would inject
   nothing; [local] and [congest] refuse it like any other bad spec. *)
let load_chaos_graph chaos file =
  Result.bind (load_graph file) (fun g ->
      let outside (v, _, _) = v >= Graph.n g in
      match Option.bind chaos (fun p -> List.find_opt outside p.Chaos.crashes) with
      | Some (v, _, _) ->
          Error
            (`Msg
              (Printf.sprintf "--chaos: crash node %d is not a vertex (n = %d)"
                 v (Graph.n g)))
      | None -> Ok g)

(* --------------------------- generate -------------------------------- *)

let family_arg =
  let doc =
    "Graph family: gnp, gnm, complete, grid, torus, hypercube, geometric, \
     ba (Barabasi-Albert), regular, cycle-chords, projective (incidence \
     graph of PG(2,n), n prime), hard (BDPW18 lower-bound blow-up, n = \
     plane order, extra = f)."
  in
  Arg.(value & opt string "gnp" & info [ "family" ] ~docv:"FAMILY" ~doc)

let n_arg =
  let doc = "Number of vertices (or side/dimension for structured families)." in
  Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc)

let p_arg =
  let doc = "Edge probability / radius / density parameter." in
  Arg.(value & opt finite_float 0.1 & info [ "p" ] ~docv:"P" ~doc)

let extra_arg =
  let doc = "Secondary integer parameter (gnm edges, BA attachment, degree, chords)." in
  Arg.(value & opt int 3 & info [ "extra" ] ~docv:"INT" ~doc)

(* Every draw from [LO,HI] must be a valid weight: finite 0 < LO <= HI. *)
let weight_range =
  let pair = Arg.(pair ~sep:',' positive_float positive_float) in
  let parse s =
    match Arg.conv_parser pair s with
    | Ok (lo, hi) when lo > hi ->
        Error (`Msg (Printf.sprintf "LO must be <= HI (got %g,%g)" lo hi))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer pair)

let weights_arg =
  let doc =
    "Redraw edge weights uniformly from [LO,HI] (format LO,HI; finite, \
     0 < LO <= HI)."
  in
  Arg.(value & opt (some weight_range) None & info [ "weights" ] ~docv:"LO,HI" ~doc)

let connect_arg =
  let doc = "Add random edges until the graph is connected." in
  Arg.(value & flag & info [ "connect" ] ~doc)

let out_arg =
  let doc =
    "Output file.  A $(b,.ftsb) extension writes the binary \
     ftspan.graph.v1 format (loads ~10-100x faster at the \
     million-edge tier); anything else writes text."
  in
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let generate_cmd =
  let run seed family n p extra weights connect out =
    let rng = Rng.create ~seed in
    let generate () =
      match family with
      | "gnp" -> Ok (Generators.gnp rng ~n ~p)
      | "gnm" -> Ok (Generators.gnm rng ~n ~m:extra)
      | "complete" -> Ok (Generators.complete n)
      | "grid" -> Ok (Generators.grid ~rows:n ~cols:n)
      | "torus" -> Ok (Generators.torus ~rows:n ~cols:n)
      | "hypercube" -> Ok (Generators.hypercube ~dim:n)
      | "geometric" -> Ok (Generators.random_geometric rng ~n ~radius:p ~euclidean_weights:true)
      | "ba" -> Ok (Generators.barabasi_albert rng ~n ~attach:extra)
      | "regular" -> Ok (Generators.random_regular rng ~n ~d:extra)
      | "cycle-chords" -> Ok (Generators.cycle_with_chords rng ~n ~chords:extra)
      | "projective" ->
          (* n is the plane order q (prime) *)
          Ok (Lower_bound.projective_plane_incidence ~q:n)
      | "hard" ->
          (* the BDPW18 lower-bound instance: n = plane order, extra = f *)
          Ok
            (Lower_bound.hard_instance ~f:extra
               (Lower_bound.projective_plane_incidence ~q:n))
      | other -> Error (`Msg (Printf.sprintf "unknown family %S" other))
    in
    (* A family's own argument check (a hypercube dimension out of
       range, a gnm edge count above n(n-1)/2, ...) is a usage error. *)
    let result =
      try generate () with Invalid_argument msg | Failure msg -> Error (`Msg msg)
    in
    match result with
    | Error e -> Error e
    | Ok g ->
        let g = if connect then Generators.ensure_connected rng g else g in
        let g =
          match weights with
          | Some (lo, hi) -> Generators.with_uniform_weights rng g ~lo ~hi
          | None -> g
        in
        Graph_io.save g out;
        Printf.printf "wrote %s%s: %s\n" out
          (if Filename.check_suffix out Graph_io.binary_suffix then
             " (ftspan.graph.v1)"
           else "")
          (Format.asprintf "%a" Stats.pp (Stats.compute g));
        Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ family_arg $ n_arg $ p_arg $ extra_arg
       $ weights_arg $ connect_arg $ out_arg))
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a workload graph.") term

(* ----------------------------- info ---------------------------------- *)

let info_cmd =
  let run file =
    Result.map
      (fun g ->
        Printf.printf "%s\n" (Format.asprintf "%a" Stats.pp (Stats.compute g));
        Printf.printf "storage: int32 CSR, %d adjacency bytes\n"
          (Graph.resident_bytes g);
        Printf.printf "diameter (hops): %d\n" (Stats.diameter g);
        match Girth.girth g with
        | Some girth -> Printf.printf "girth: %d\n" girth
        | None -> Printf.printf "girth: none (forest)\n")
      (load_graph file)
  in
  let term = Term.(term_result (const run $ graph_arg)) in
  Cmd.v (Cmd.info "info" ~doc:"Print statistics of a graph file.") term

(* ----------------------------- build ---------------------------------- *)

let algo_arg =
  let doc = "Algorithm: greedy-poly (Algorithms 3/4), greedy-exp (Algorithm 1), dk11." in
  let enum_conv =
    Arg.enum (List.map (fun a -> (Spanner.algorithm_name a, a)) Spanner.all_algorithms)
  in
  Arg.(value & opt enum_conv Spanner.Greedy_poly & info [ "algo" ] ~docv:"ALGO" ~doc)

let batch_arg =
  let doc =
    "Decision-batch size for the greedy: edges per block decided against \
     the same frozen partial spanner.  $(b,--jobs) parallelism applies \
     within a block, so batching trades spanner size for parallel \
     speedup (experiment E12 quantifies the curve).  Defaults to 1 \
     (fully sequential decisions) when $(b,--jobs) is 1, else 512.  \
     Applies to greedy-poly only."
  in
  Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"B" ~doc)

let spanner_out_arg =
  let doc = "Write the selected edge ids (one per line) to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let dot_out_arg =
  let doc = "Write a Graphviz rendering (spanner edges highlighted)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let save_selection sel file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun id -> output_string oc (string_of_int id ^ "\n")) (Selection.ids sel))

let build_cmd =
  let run seed k f mode algo jobs shard batch metrics trace stream file
      out dot =
    match (Cli_flags.resolve_jobs jobs, batch) with
    | Error _ as e, _ -> e
    | _, Some b when b < 1 ->
        Error (`Msg (Printf.sprintf "--batch must be >= 1 (got %d)" b))
    | Ok jobs, batch ->
    let batch =
      match batch with Some b -> b | None -> if jobs > 1 then 512 else 1
    in
    Result.map
      (fun g ->
        Cli_flags.with_metrics metrics ~id:"build" @@ fun () ->
        Cli_flags.with_stream stream @@ fun () ->
        Cli_flags.with_trace trace @@ fun () ->
        Cli_flags.with_jobs jobs @@ fun pool ->
        let rng = Rng.create ~seed in
        let params = { Spanner.k; f; mode } in
        let options = Spanner.options ~batch ?pool ~shard () in
        let clusters0 = Obs.Counter.value (Obs.counter "shard.clusters") in
        let boundary0 = Obs.Counter.value (Obs.counter "shard.boundary_edges") in
        let t0 = Unix.gettimeofday () in
        let sel = Spanner.build ~rng ~algorithm:algo ~options params g in
        let dt = Unix.gettimeofday () -. t0 in
        let summary = Spanner.summarize ~algorithm:algo params sel in
        Printf.printf "%s\n" (Format.asprintf "%a" Spanner.pp_summary summary);
        Printf.printf "build time: %.3f s\n" dt;
        if shard then
          Printf.printf "shard: %d clusters, %d boundary edges kept\n"
            (Obs.Counter.value (Obs.counter "shard.clusters") - clusters0)
            (Obs.Counter.value (Obs.counter "shard.boundary_edges") - boundary0);
        Option.iter
          (fun file ->
            save_selection sel file;
            Printf.printf "selection written to %s\n" file)
          out;
        Option.iter
          (fun file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc
                  (Graph_io.to_dot ~highlight:sel.Selection.selected g));
            Printf.printf "dot rendering written to %s\n" file)
          dot)
      (load_graph file)
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ k_arg $ f_arg $ mode_arg $ algo_arg
       $ Cli_flags.jobs_arg $ Cli_flags.shard_arg $ batch_arg
       $ Cli_flags.metrics_arg $ Cli_flags.trace_arg $ Cli_flags.stream_arg
       $ graph_arg $ spanner_out_arg $ dot_out_arg))
  in
  Cmd.v (Cmd.info "build" ~doc:"Construct a fault-tolerant spanner.") term

(* ----------------------------- verify --------------------------------- *)

let selection_arg =
  let doc = "Selection file (edge ids, one per line) produced by ftspan build." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"SELECTION" ~doc)

let trials_arg =
  let doc = "Number of sampled fault sets per sampler (>= 1)." in
  Arg.(value & opt positive_int 200 & info [ "trials" ] ~docv:"N" ~doc)

let exhaustive_arg =
  let doc = "Enumerate all fault sets instead of sampling (small inputs only)." in
  Arg.(value & flag & info [ "exhaustive" ] ~doc)

(* A selection file that does not parse — a non-integer line, an edge
   id out of range — is a usage error (exit 2), like any malformed
   input. *)
let load_selection g file =
  try
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let ids = ref [] in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" then ids := int_of_string line :: !ids
           done
         with End_of_file -> ());
        Ok (Selection.of_ids g !ids))
  with e -> Error (`Msg (Printexc.to_string e))

let verify_cmd =
  let run seed k f mode jobs trials exhaustive graph_file sel_file =
    match (Cli_flags.resolve_jobs jobs, load_graph graph_file) with
    | (Error e, _) | (_, Error e) -> Error e
    | Ok jobs, Ok g -> (
        match load_selection g sel_file with
        | Error e -> Error e
        | Ok sel ->
            let outcome =
              Cli_flags.with_jobs jobs @@ fun pool ->
              (* One rng threads through adversarial -> random -> profile, so
                 the whole chain's figures are a function of [seed]. *)
              let rng = Rng.create ~seed in
              let cfg = Verify.config ?pool ~rng ~trials () in
              let stretch = float_of_int ((2 * k) - 1) in
              let report =
                if exhaustive then
                  (* Refusing more fault sets than the cap is a usage
                     error, not a failed check. *)
                  try Ok (Verify.exhaustive ~cfg sel ~mode ~stretch ~f)
                  with Invalid_argument msg -> Error (`Msg msg)
                else begin
                  let a = Verify.adversarial ~cfg sel ~mode ~stretch ~f in
                  Ok (if Verify.ok a then Verify.random ~cfg sel ~mode ~stretch ~f else a)
                end
              in
              Result.map
                (fun report ->
                  Printf.printf "checked %d fault sets\n" report.Verify.checked;
                  match report.Verify.violation with
                  | None ->
                      Printf.printf
                        "OK: no stretch violation found (stretch %.0f, f=%d)\n"
                        stretch f;
                      let profile =
                        Verify.profile
                          ~cfg:(Verify.config ?pool ~rng ~trials:(min trials 50) ())
                          sel ~mode ~f
                      in
                      Printf.printf "%s\n"
                        (Format.asprintf "%a" Verify.pp_profile profile);
                      false
                  | Some v ->
                      Printf.printf "VIOLATION: %s\n"
                        (Format.asprintf "%a" Verify.pp_violation v);
                      true)
                report
            in
            (* A violation is a failed check, not a usage error: exit 1. *)
            Result.map
              (fun violated ->
                if violated then begin
                  prerr_endline "ftspan: spanner property violated";
                  exit 1
                end)
              outcome)
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ k_arg $ f_arg $ mode_arg $ Cli_flags.jobs_arg
       $ trials_arg $ exhaustive_arg $ graph_arg $ selection_arg))
  in
  Cmd.v (Cmd.info "verify" ~doc:"Verify a spanner selection under faults.") term

(* ----------------------------- local ---------------------------------- *)

let local_cmd =
  let run seed k f mode chaos metrics trace stream file =
    Result.map
      (fun g ->
        Cli_flags.with_metrics metrics ~id:"local" @@ fun () ->
        Cli_flags.with_stream stream @@ fun () ->
        Cli_flags.with_trace trace @@ fun () ->
        let rng = Rng.create ~seed in
        let res = Local_spanner.build rng ?chaos ~mode ~k ~f g in
        let d = res.Local_spanner.decomposition in
        Printf.printf "partitions: %d, coverage: %.1f%%, max cluster depth: %d\n"
          (Array.length d.Shard_partition.partitions)
          (100. *. Shard_partition.coverage d)
          d.Shard_partition.max_depth;
        Printf.printf
          "rounds: %d total (%d decomposition + %d announce + %d gather + %d scatter)\n"
          res.Local_spanner.total_rounds d.Shard_partition.horizon
          res.Local_spanner.announce_rounds res.Local_spanner.gather_rounds
          res.Local_spanner.scatter_rounds;
        Printf.printf "spanner: %d/%d edges (bound %.0f)\n"
          res.Local_spanner.selection.Selection.size (Graph.m g)
          (Bounds.local_size ~k ~f ~n:(Graph.n g));
        Printf.printf "traffic: %s\n"
          (Format.asprintf "%a" Net.pp_stats res.Local_spanner.stats))
      (load_chaos_graph chaos file)
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ k_arg $ f_arg $ mode_arg $ Cli_flags.chaos_arg
       $ Cli_flags.metrics_arg $ Cli_flags.trace_arg $ Cli_flags.stream_arg
       $ graph_arg))
  in
  Cmd.v
    (Cmd.info "local" ~doc:"Run the LOCAL-model construction (Theorem 12).")
    term

(* ----------------------------- congest -------------------------------- *)

(* [c <= 0], [nan] or [inf] would collapse the reduction to one
   iteration and drop fault tolerance without a word. *)
let c_arg =
  let doc = "Iteration constant of the DK11 reduction (finite, > 0)." in
  Arg.(value & opt positive_float 1.0 & info [ "c" ] ~docv:"C" ~doc)

let congest_cmd =
  let run seed k f mode c chaos metrics trace stream file =
    Result.map
      (fun g ->
        Cli_flags.with_metrics metrics ~id:"congest" @@ fun () ->
        Cli_flags.with_stream stream @@ fun () ->
        Cli_flags.with_trace trace @@ fun () ->
        let rng = Rng.create ~seed in
        let res = Congest_ft.build rng ~c ?chaos ~mode ~k ~f g in
        Printf.printf "iterations: %d (word size %d bits)\n" res.Congest_ft.iterations
          res.Congest_ft.word_bits;
        Printf.printf "rounds: %d total = %d phase-1 + %d phase-2 (base %d, overlap %d)\n"
          res.Congest_ft.total_rounds res.Congest_ft.phase1_rounds
          res.Congest_ft.phase2_rounds res.Congest_ft.phase2_base_rounds
          res.Congest_ft.max_overlap;
        Printf.printf "spanner: %d/%d edges (bound %.0f, paper rounds %.0f)\n"
          res.Congest_ft.selection.Selection.size (Graph.m g)
          (Bounds.congest_size ~k ~f ~n:(Graph.n g))
          (Bounds.congest_rounds ~k ~f ~n:(Graph.n g)))
      (load_chaos_graph chaos file)
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ k_arg $ f_arg $ mode_arg $ c_arg
       $ Cli_flags.chaos_arg $ Cli_flags.metrics_arg $ Cli_flags.trace_arg
       $ Cli_flags.stream_arg $ graph_arg))
  in
  Cmd.v
    (Cmd.info "congest" ~doc:"Run the CONGEST-model construction (Theorem 15).")
    term

(* ----------------------------- oracle --------------------------------- *)

let queries_arg =
  let doc = "Number of sampled distance queries." in
  Arg.(value & opt int 1000 & info [ "queries" ] ~docv:"N" ~doc)

let oracle_cmd =
  let run seed k queries metrics trace file =
    Result.map
      (fun g ->
        Cli_flags.with_metrics metrics ~id:"oracle" @@ fun () ->
        Cli_flags.with_trace trace @@ fun () ->
        let rng = Rng.create ~seed in
        let t0 = Unix.gettimeofday () in
        let oracle = Oracle.build rng ~k g in
        let build_time = Unix.gettimeofday () -. t0 in
        Printf.printf "oracle built in %.3f s; storage %d entries (n^2 = %d)\n"
          build_time (Oracle.storage oracle)
          (Graph.n g * Graph.n g);
        let worst = ref 1.0 and total = ref 0. and counted = ref 0 in
        for _ = 1 to queries do
          let u = Rng.int rng (Graph.n g) and v = Rng.int rng (Graph.n g) in
          if u <> v then begin
            let exact = (Dijkstra.distances g u).(v) in
            if exact < infinity then begin
              let est = Oracle.query oracle u v in
              let ratio = est /. exact in
              incr counted;
              total := !total +. ratio;
              if ratio > !worst then worst := ratio
            end
          end
        done;
        Printf.printf
          "%d queries: mean stretch %.3f, max stretch %.3f (guarantee %.0f)\n"
          !counted
          (!total /. float_of_int (max 1 !counted))
          !worst (Oracle.stretch_bound oracle))
      (load_graph file)
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ k_arg $ queries_arg $ Cli_flags.metrics_arg
       $ Cli_flags.trace_arg $ graph_arg))
  in
  Cmd.v
    (Cmd.info "oracle" ~doc:"Build a Thorup-Zwick distance oracle and sample queries.")
    term

(* ----------------------------- prune ---------------------------------- *)

let prune_cmd =
  let run k f mode graph_file sel_file out =
    match Result.bind (load_graph graph_file) (fun g -> load_selection g sel_file) with
    | Error e -> Error e
    | Ok sel ->
        let res = Prune.minimalize ~mode ~k ~f sel in
        Printf.printf "pruned %d of %d edges (%.1f%%); %d remain\n"
          res.Prune.removed res.Prune.candidates
          (100. *. float_of_int res.Prune.removed
          /. float_of_int (max 1 res.Prune.candidates))
          res.Prune.pruned.Selection.size;
        Option.iter
          (fun file ->
            save_selection res.Prune.pruned file;
            Printf.printf "pruned selection written to %s\n" file)
          out;
        Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ k_arg $ f_arg $ mode_arg $ graph_arg $ selection_arg
       $ spanner_out_arg))
  in
  Cmd.v
    (Cmd.info "prune"
       ~doc:"Minimalize a spanner selection by sound exact pruning (small inputs).")
    term

(* ----------------------------- dynamic --------------------------------- *)

let ops_file_arg =
  let doc =
    "Operation script: one directive per line, $(b,#) comments.  \
     $(b,n) N declares the vertex count (first line, scripts without \
     $(b,--graph)); $(b,add) U V [W] inserts an edge; $(b,del) U V \
     deletes one; $(b,delv) X retires a vertex; $(b,flush) forces the \
     pending update batch to apply; $(b,faults) ... sets the fault set \
     for subsequent queries (vertex ids under $(b,--mode) vertex, U-V \
     pairs under edge); $(b,query) U V asks for the fault-masked spanner \
     distance — consecutive queries run as one concurrent batch."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OPS" ~doc)

let init_graph_arg =
  let doc = "Seed the handle with this graph before the script runs." in
  Arg.(value & opt (some file) None & info [ "graph" ] ~docv:"GRAPH" ~doc)

let out_graph_arg =
  let doc = "Write the final live graph (ftspan text format) to this file." in
  Arg.(value & opt (some string) None & info [ "out-graph" ] ~docv:"FILE" ~doc)

type dyn_item =
  | Dyn_n of int
  | Dyn_op of Dynamic.op
  | Dyn_flush
  | Dyn_faults_v of int list
  | Dyn_faults_e of (int * int) list
  | Dyn_query of int * int

(* Script errors are usage-class failures: report the offending line on
   stderr and exit 2, like the other spec parsers. *)
let parse_ops_file ~mode file =
  let fail lineno fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "ftspan dynamic: %s:%d: %s\n" file lineno msg;
        exit 2)
      fmt
  in
  let int_tok lineno what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail lineno "%s must be an integer (got %S)" what s
  in
  let pair_tok lineno s =
    match String.index_opt s '-' with
    | Some i when i > 0 && i < String.length s - 1 ->
        ( int_tok lineno "fault edge endpoint" (String.sub s 0 i),
          int_tok lineno "fault edge endpoint"
            (String.sub s (i + 1) (String.length s - i - 1)) )
    | _ -> fail lineno "edge faults are U-V pairs (got %S)" s
  in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let items = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           match
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun s -> s <> "")
           with
           | [] -> ()
           | [ "n"; n ] -> items := Dyn_n (int_tok !lineno "n" n) :: !items
           | "add" :: u :: v :: rest ->
               let w =
                 match rest with
                 | [] -> 1.0
                 | [ w ] -> (
                     match float_of_string_opt w with
                     | Some w -> w
                     | None -> fail !lineno "weight must be a number (got %S)" w)
                 | _ -> fail !lineno "add takes U V [W]"
               in
               items :=
                 Dyn_op
                   (Dynamic.Insert
                      {
                        u = int_tok !lineno "u" u;
                        v = int_tok !lineno "v" v;
                        w;
                      })
                 :: !items
           | [ "del"; u; v ] ->
               items :=
                 Dyn_op
                   (Dynamic.Delete_edge
                      { u = int_tok !lineno "u" u; v = int_tok !lineno "v" v })
                 :: !items
           | [ "delv"; x ] ->
               items :=
                 Dyn_op (Dynamic.Delete_vertex (int_tok !lineno "vertex" x))
                 :: !items
           | [ "flush" ] -> items := Dyn_flush :: !items
           | "faults" :: members -> (
               match mode with
               | Fault.VFT ->
                   items :=
                     Dyn_faults_v
                       (List.map (int_tok !lineno "fault vertex") members)
                     :: !items
               | Fault.EFT ->
                   items :=
                     Dyn_faults_e (List.map (pair_tok !lineno) members) :: !items)
           | [ "query"; u; v ] ->
               items :=
                 Dyn_query (int_tok !lineno "u" u, int_tok !lineno "v" v)
                 :: !items
           | tok :: _ -> fail !lineno "unknown directive %S" tok
         done
       with End_of_file -> ());
      List.rev !items)

let dynamic_cmd =
  let run k f mode jobs metrics trace stream ops_file graph_file out
      out_graph =
    match Cli_flags.resolve_jobs jobs with
    | Error _ as e -> e
    | Ok jobs -> (
        let items = parse_ops_file ~mode ops_file in
        let seed_graph =
          match (graph_file, items) with
          | Some _, Dyn_n _ :: _ ->
              Printf.eprintf
                "ftspan dynamic: %s declares n but --graph was given\n" ops_file;
              exit 2
          | Some file, _ -> Result.map (fun g -> (g, items)) (load_graph file)
          | None, Dyn_n n :: rest -> (
              try Ok (Graph.create n, rest)
              with Invalid_argument msg -> Error (`Msg (ops_file ^ ": " ^ msg)))
          | None, _ ->
              Printf.eprintf
                "ftspan dynamic: no initial graph: pass --graph or start %s \
                 with an 'n N' line\n"
                ops_file;
              exit 2
        in
        match seed_graph with
        | Error e -> Error e
        | Ok (g, items) ->
            Cli_flags.with_metrics metrics ~id:"dynamic" @@ fun () ->
            Cli_flags.with_stream stream @@ fun () ->
            Cli_flags.with_trace trace @@ fun () ->
            Cli_flags.with_jobs jobs @@ fun pool ->
            let d = Dynamic.create ~opts:(Dynamic.opts ~mode ~k ~f ?pool ()) g in
            Printf.printf "seeded: n=%d, %d live edges, spanner %d\n"
              (Dynamic.n d) (Dynamic.live_edges d) (Dynamic.size d);
            let pending = ref [] and pending_q = ref [] in
            let cur_fault = ref (Fault.empty mode) in
            let flush_ops () =
              match List.rev !pending with
              | [] -> ()
              | ops ->
                  pending := [];
                  let stats = Dynamic.apply d ops in
                  Printf.printf "apply: %s\n"
                    (Format.asprintf "%a" Dynamic.pp_stats stats)
            in
            let flush_queries () =
              match List.rev !pending_q with
              | [] -> ()
              | pairs ->
                  pending_q := [];
                  let results =
                    Dynamic.query_batch d ~faults:!cur_fault
                      (Array.of_list pairs)
                  in
                  Array.iter
                    (fun r ->
                      Printf.printf "%s\n"
                        (Format.asprintf "%a" Dynamic.pp_query_result r))
                    results
            in
            (* Fault edge ids resolve against the post-update snapshot, so
               the fault set always names live edges. *)
            let set_faults fault_of =
              flush_ops ();
              flush_queries ();
              cur_fault := fault_of ()
            in
            (try
               List.iter
                 (function
                   | Dyn_n _ ->
                       Printf.eprintf
                         "ftspan dynamic: 'n' is only valid as the first \
                          directive\n";
                       exit 2
                   | Dyn_op op ->
                       flush_queries ();
                       pending := op :: !pending
                   | Dyn_flush -> flush_ops ()
                   | Dyn_faults_v vs ->
                       set_faults (fun () -> Fault.of_vertices vs)
                   | Dyn_faults_e pairs ->
                       set_faults (fun () ->
                           let src = (Dynamic.snapshot d).Selection.source in
                           Fault.of_edges
                             (List.map
                                (fun (u, v) ->
                                  match Graph.find_edge src u v with
                                  | Some id -> id
                                  | None ->
                                      Printf.eprintf
                                        "ftspan dynamic: faults: edge %d-%d \
                                         is not live\n"
                                        u v;
                                      exit 2)
                                pairs))
                   | Dyn_query (u, v) ->
                       flush_ops ();
                       pending_q := (u, v) :: !pending_q)
                 items;
               flush_ops ();
               flush_queries ()
             with Invalid_argument msg ->
               Printf.eprintf "ftspan dynamic: %s\n" msg;
               exit 1);
            let sel = Dynamic.snapshot d in
            Printf.printf "final: n=%d, %d live edges, spanner %d, epoch %d%s\n"
              (Dynamic.n d) (Dynamic.live_edges d) (Dynamic.size d)
              (Dynamic.epoch d)
              (if Dynamic.weight_monotone d then "" else " (weights out of order)");
            Option.iter
              (fun file ->
                save_selection sel file;
                Printf.printf "selection written to %s\n" file)
              out;
            Option.iter
              (fun file ->
                Graph_io.save sel.Selection.source file;
                Printf.printf "final graph written to %s\n" file)
              out_graph;
            Ok ())
  in
  let term =
    Term.(
      term_result
        (const run $ k_arg $ f_arg $ mode_arg $ Cli_flags.jobs_arg
       $ Cli_flags.metrics_arg $ Cli_flags.trace_arg $ Cli_flags.stream_arg
       $ ops_file_arg $ init_graph_arg $ spanner_out_arg $ out_graph_arg))
  in
  Cmd.v
    (Cmd.info "dynamic"
       ~doc:
         "Maintain a fault-tolerant spanner under arbitrary-order updates \
          (insertions, deletions with local repair) and answer batched \
          fault-masked distance queries.")
    term

(* ------------------------------ trace ---------------------------------- *)

let trace_file_arg =
  let doc = "Trace file (ftspan.trace.v1 JSON, as written by --trace)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let trace_json_arg =
  let doc = "Emit the report as a ftspan.trace-report.v1 JSON document." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_top_arg =
  let doc = "Edges to keep in the per-edge leaderboard." in
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)

(* Malformed input (a bad --top, a file that is not a valid trace) is a
   usage-class failure: a term error, so exit 2. *)
let trace_analyze_cmd =
  let run file json top =
    if top < 0 then
      Error (`Msg (Printf.sprintf "--top must be >= 0 (got %d)" top))
    else
      match Obs_analyze.load file with
      | Error msg -> Error (`Msg msg)
      | Ok tr -> (
          match Obs_analyze.validate tr with
          | _ :: _ as violations ->
              Error
                (`Msg
                   (String.concat "\n"
                      (List.map (Printf.sprintf "%s: %s" file) violations)))
          | [] ->
              let report = Obs_analyze.analyze ~top tr in
              if json then
                print_endline
                  (Obs_json.to_string ~indent:true
                     (Obs_analyze.json_of_report report))
              else Format.printf "%a@." Obs_analyze.pp_report report;
              Ok ())
  in
  let term =
    Term.(term_result (const run $ trace_file_arg $ trace_json_arg $ trace_top_arg))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct message lifecycles from a trace: delivery-latency \
          quantiles, per-edge retransmit amplification, reorder depth, and \
          the synchronizer critical path.")
    term

let trace_cmd =
  let doc = "Offline analysis of recorded event traces." in
  let info = Cmd.info "trace" ~doc in
  let default = Term.(ret (const (`Help (`Pager, Some "trace")))) in
  Cmd.group ~default info [ trace_analyze_cmd ]

(* ------------------------------ main ----------------------------------- *)

let () =
  let doc = "fault-tolerant graph spanners (Dinitz-Robelle, PODC 2020)" in
  let info = Cmd.info "ftspan" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cli_flags.eval
       (Cmd.group ~default info
          [
            generate_cmd; info_cmd; build_cmd; verify_cmd; dynamic_cmd;
            local_cmd; congest_cmd; oracle_cmd; prune_cmd; trace_cmd;
          ]))
