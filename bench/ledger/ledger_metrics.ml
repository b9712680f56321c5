(* The metric catalogue, and the bounds BENCHMARK.json fixes for it.

   BENCHMARK.json is the contract the bounds live in; this table is what
   the workloads emit.  [check_benchmark] holds the two to each other, so
   a metric renamed on one side only fails the quick run. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Seen by a user of the system; every workload reports every one, and
   none is ever 0.  What "request" means per workload is in README.md. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "request_p50_ms" "ms" Lower;
    m "verify_faults_per_s" "1/s" Higher;
    m "kept_edges_pct" "%" Lower;
    m "max_heap_mb" "MB" Lower;
  ]

(* One layer each, from the traced run; 0 on a workload that does not
   exercise the layer. *)
let per_layer =
  [
    m "graph_io.load_s" "s" Lower;
    m "graph.resident_bytes" "bytes" Lower;
    m "lbc.decide_us" "us" Lower;
    m "lbc.minor_words_per_call" "words" Lower;
    m "lbc.bfs_rounds_per_call" "count" Lower;
    m "bfs.edges_scanned_per_call" "count" Lower;
    m "engine.order_s" "s" Lower;
    m "engine.commit_s" "s" Lower;
    m "shard_partition.run_s" "s" Lower;
    m "shard_build.clusters_s" "s" Lower;
    m "shard.boundary_edges" "count" Lower;
    m "dijkstra.edges_relaxed" "count" Lower;
    m "exec.busy_frac" "frac" Higher;
    m "exec.tasks" "count" Lower;
    m "verify.fault_s" "s" Lower;
    m "verify.minor_words_per_fault" "words" Lower;
    m "dynamic.insert_us" "us" Lower;
    m "dynamic.delete_ms" "ms" Lower;
    m "dynamic.touched_per_delete" "count" Lower;
    m "dynamic.snapshot_ms" "ms" Lower;
    m "dynamic.query_us" "us" Lower;
    m "bfs.nodes_per_query" "count" Lower;
    m "congest_ft.build_s" "s" Lower;
    m "synchronizer.run_s" "s" Lower;
    m "net.bits" "count" Lower;
    m "net.retries" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "trace.overhead" "ratio" Lower;
    m "trace.unattributed_frac" "frac" Lower;
  ]

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

type declared = { metric : metric; bound : float option }

type benchmark = {
  workloads : string list;
  declared_e2e : declared list;
  declared_layers : declared list;
}

let ( let* ) = Result.bind

let field name j =
  Option.to_result ~none:(Printf.sprintf "missing %S" name) (Obs_json.member name j)

let str name j =
  let* v = field name j in
  Option.to_result ~none:(Printf.sprintf "%S is not a string" name) (Obs_json.to_str v)

let list name j =
  let* v = field name j in
  Option.to_result ~none:(Printf.sprintf "%S is not a list" name) (Obs_json.to_list v)

let rec all = function
  | [] -> Ok []
  | r :: rest ->
      let* x = r in
      let* xs = all rest in
      Ok (x :: xs)

let declared ~with_bound j =
  let* name = str "name" j in
  let* unit = str "unit" j in
  let* b = str "better" j in
  let* better =
    Option.to_result ~none:(name ^ ": better must be lower or higher")
      (better_of_string b)
  in
  let* bound =
    if not with_bound then Ok None
    else
      let* v = field "bound" j in
      Option.to_result ~none:(name ^ ": bound is not a number")
        (Option.map Option.some (Obs_json.to_number v))
  in
  Ok { metric = { name; unit; better }; bound }

let load_benchmark file =
  let* text =
    try Ok (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* j = Obs_json.of_string text in
  let* ws = list "workloads" j in
  let* workloads = all (List.map (str "name") ws) in
  let* e2e = list "end_to_end" j in
  let* declared_e2e = all (List.map (declared ~with_bound:true) e2e) in
  let* layers = list "per_layer" j in
  let* declared_layers = all (List.map (declared ~with_bound:false) layers) in
  Ok { workloads; declared_e2e; declared_layers }

(* The catalogue and BENCHMARK.json must name the same metrics with the
   same units and directions. *)
let check_benchmark b =
  let same label declared catalogue =
    let names l = List.sort compare (List.map (fun m -> m.name) l) in
    let d = List.map (fun d -> d.metric) declared in
    if names d <> names catalogue then
      [ Printf.sprintf "%s: BENCHMARK.json and the catalogue name different metrics" label ]
    else
      List.filter_map
        (fun dm ->
          match List.find_opt (fun c -> c.name = dm.name) catalogue with
          | Some c when c = dm -> None
          | _ -> Some (Printf.sprintf "%s: unit or direction differs" dm.name))
        d
  in
  same "end_to_end" b.declared_e2e end_to_end
  @ same "per_layer" b.declared_layers per_layer
