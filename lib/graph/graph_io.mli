(** Plain-text graph serialization (with binary dispatch by extension).

    Format (one record per line, [#] starts a comment):
    {v
    p <n> <m>
    e <u> <v> <w>
    v}
    The [p] line must come first; exactly [m] edge lines follow.  Weights
    are optional on read (default [1.0]).

    Files named [*.ftsb] are the binary [ftspan.graph.v1] format:
    {!save} and {!load} dispatch on the extension, delegating to
    {!Graph_binio} (whose {!Graph_binio.Not_a_graph} /
    {!Graph_binio.Corrupt} exceptions then replace the [Failure]s
    documented below). *)

(** The extension that selects the binary format, [".ftsb"]. *)
val binary_suffix : string

(** [to_string g] serializes [g] as text. *)
val to_string : Graph.t -> string

(** [of_string s] parses a text graph.  Raises [Failure] with a
    line-numbered message on malformed input, including a vertex count
    {!Graph.create} rejects. *)
val of_string : string -> Graph.t

(** [save g file] writes [g] to [file] — text, streamed edge-by-edge
    (peak memory is one line, not the whole serialization), or binary
    when [file] ends in {!binary_suffix}.  When [file] is a regular file
    or absent, it writes a temporary file in [file]'s directory and
    renames it over [file], so [g] may be saved over the binary file it
    was loaded from, and a failed save leaves [file] as it was.  Any
    other [file] — a symlink (such as [/dev/stdout]), a pipe, a device —
    is written in place, through the link.  Raises [Sys_error] when
    [file] cannot be written. *)
val save : Graph.t -> string -> unit

(** [load file] reads [file] — text, streamed line-by-line, or binary
    (mapped straight into the adjacency, see {!Graph_binio.load}) when
    [file] ends in {!binary_suffix}.  Text-parse [Failure] messages are prefixed with
    the file name (["Graph_io: FILE: line N: ..."]). *)
val load : string -> Graph.t

(** [to_dot ?highlight g] renders Graphviz source for [g] ([graph { ... }]
    with weights as labels).  Edges whose id is set in [highlight] are
    drawn bold/colored — pass a spanner's [Selection.selected] mask to
    visualize which edges survived sparsification. *)
val to_dot : ?highlight:bool array -> Graph.t -> string
