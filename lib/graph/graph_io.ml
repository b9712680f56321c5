let binary_suffix = ".ftsb"

let add_edge_line buf e =
  Buffer.add_string buf
    (Printf.sprintf "e %d %d %.12g\n" e.Graph.u e.Graph.v e.Graph.w)

let to_string g =
  let buf = Buffer.create (64 + (Graph.m g * 16)) in
  Buffer.add_string buf (Printf.sprintf "p %d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun e -> add_edge_line buf e);
  Buffer.contents buf

(* One text record.  [fail] receives the 1-based line number so callers
   can prefix whatever location context they have (file name for [load],
   nothing for [of_string]). *)
let parse_line ~fail graph line_no line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else
    match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
    | [ "p"; n; _m ] -> (
        if !graph <> None then fail line_no "duplicate p line";
        match int_of_string_opt n with
        | Some n when n >= 0 -> (
            try graph := Some (Graph.create n)
            with Invalid_argument msg -> fail line_no msg)
        | _ -> fail line_no "bad vertex count")
    | "e" :: u :: v :: rest -> (
        match !graph with
        | None -> fail line_no "edge before p line"
        | Some g -> (
            let w =
              match rest with
              | [] -> Some 1.0
              | [ w ] -> float_of_string_opt w
              | _ -> None
            in
            match (int_of_string_opt u, int_of_string_opt v, w) with
            | Some u, Some v, Some w -> (
                try ignore (Graph.add_edge g u v ~w)
                with Invalid_argument msg -> fail line_no msg)
            | _ -> fail line_no "bad edge line"))
    | _ -> fail line_no "unrecognized record"

let of_string s =
  let lines = String.split_on_char '\n' s in
  let graph = ref None in
  let fail line_no msg =
    failwith (Printf.sprintf "Graph_io: line %d: %s" line_no msg)
  in
  List.iteri (fun i line -> parse_line ~fail graph (i + 1) line) lines;
  match !graph with
  | Some g -> g
  | None -> failwith "Graph_io: missing p line"

let save_text g file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "p %d %d\n" (Graph.n g) (Graph.m g);
      Graph.iter_edges g (fun e ->
          Printf.fprintf oc "e %d %d %.12g\n" e.Graph.u e.Graph.v e.Graph.w))

(* A regular (or absent) target is written beside, then renamed over:
   [file] may be the private mapping a binary-loaded [g] still reads
   from, and truncating it in place would fault that read (and a crash
   mid-write would leave it empty).  The name is unique per process and
   domain.  [lstat] does not follow links, so anything else (a symlink
   such as [/dev/stdout], a pipe, a path [lstat] cannot read) is written
   in place: a rename would replace the link, not the file it names, and
   [open_out] reports an unreadable path as [Sys_error]. *)
let save g file =
  let write =
    if Filename.check_suffix file binary_suffix then Graph_binio.save g
    else save_text g
  in
  match (Unix.lstat file).Unix.st_kind with
  | Unix.S_REG | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
      let tmp =
        Printf.sprintf "%s.%d-%d.tmp" file (Unix.getpid ())
          (Domain.self () :> int)
      in
      (try write tmp
       with e ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp file
  | _ | (exception Unix.Unix_error _) -> write file

let load file =
  if Filename.check_suffix file binary_suffix then Graph_binio.load file
  else begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* Stream line-by-line: peak memory is the graph plus one line,
           not the graph plus the whole file. *)
        let graph = ref None in
        let fail line_no msg =
          failwith (Printf.sprintf "Graph_io: %s: line %d: %s" file line_no msg)
        in
        let line_no = ref 0 in
        (try
           while true do
             let line = input_line ic in
             incr line_no;
             parse_line ~fail graph !line_no line
           done
         with End_of_file -> ());
        match !graph with
        | Some g -> g
        | None -> failwith (Printf.sprintf "Graph_io: %s: missing p line" file))
  end

let to_dot ?highlight g =
  let buf = Buffer.create (128 + (Graph.m g * 32)) in
  Buffer.add_string buf "graph ftspan {\n  node [shape=circle, fontsize=10];\n";
  let unit_graph = Graph.is_unit_weighted g in
  Graph.iter_edges g (fun e ->
      let marked =
        match highlight with
        | Some mask -> e.Graph.id < Array.length mask && mask.(e.Graph.id)
        | None -> false
      in
      let label =
        if unit_graph then "" else Printf.sprintf " label=\"%.3g\"" e.Graph.w
      in
      let style = if marked then " color=\"#1f77b4\" penwidth=2.0" else " color=gray" in
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [%s%s];\n" e.Graph.u e.Graph.v
           (String.trim (label ^ style))
           ""));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
