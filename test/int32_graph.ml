(* The int32 layout is picked by where a graph comes from: only a binary
   load maps into it.  Tests that compare the two layouts get their
   int32 copy the same way, through a temporary [.ftsb] file. *)

(* [of_graph g] is [g] saved as binary and loaded back. *)
let of_graph g =
  let file = Filename.temp_file "ftspan_int32" Graph_io.binary_suffix in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Graph_io.save g file;
  Graph_io.load file
