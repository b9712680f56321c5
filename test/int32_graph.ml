(* Tests that compare a graph's two origins get the mapped one here: a
   graph built in memory (its newest edges possibly still in the append
   buffer) against its copy mapped from a temporary [.ftsb] file
   (packed only). *)

(* [of_graph g] is [g] saved as binary and loaded back. *)
let of_graph g =
  let file = Filename.temp_file "ftspan_int32" Graph_io.binary_suffix in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Graph_io.save g file;
  Graph_io.load file
