(** Versioned binary graph serialization — the [ftspan.graph.v1]
    on-disk format.

    Text graphs ({!Graph_io}) parse at a few million edges per second;
    at the 10⁶–10⁷-edge tier the parse dominates every experiment.
    This format stores the compacted CSR itself, in the [int32] layout
    every {!Csr.t} packs into, so {!load} maps the packed regions
    straight into a graph's adjacency with [Unix.map_file] —
    near-zero-copy: the only per-edge work is the validation scan and
    the edge-store rebuild.

    {b Layout} (all integers little-endian; written byte-swapped on
    big-endian hosts, read through a copy-and-swap fallback there):

    {v
    offset  size        field
    0       8           magic "ftspan.g"
    8       4           format version (1)
    12      4           endianness tag 0x01020304
    16      8           n  (vertex count)
    24      8           m  (edge count)
    32      4           weights kind: 0 = unit, 1 = float64 array
    36      4           reserved (0)
    40      4(n+1)      off   — CSR row offsets, int32
    ...     8m          nbr   — neighbor vertices, int32
    ...     8m          eid   — edge ids, int32
    ...     0..7        zero padding to an 8-byte boundary
    ...     8m          weights, IEEE float64 (kind 1 only)
    v}

    The [off]/[nbr]/[eid] arrays are the row-concatenated adjacency in
    iteration order (newest-first per vertex — {!Csr}'s ordering
    contract), so a loaded graph reproduces the writer's traversals,
    selections and counters bit-for-bit.

    {b Error classes}: {!Not_a_graph} means the file is not this format
    at all (too short for the magic, or wrong magic) — the CLI maps it
    to exit 2, like any other usage error.  {!Corrupt} means the magic
    matched but the contents are unusable: unsupported version, bad
    endianness tag, truncated or oversized payload, [m] beyond the
    int32 index range, or adjacency contents that fail validation —
    exit 1. *)

exception Not_a_graph of string
exception Corrupt of string

(** [save g file] writes [g] in [ftspan.graph.v1] layout, truncating
    [file] first: saving over the file a graph was loaded from goes
    through {!Graph_io.save}, which writes a temporary file and renames
    it.  The weights array is omitted when [g] is unit-weighted.  Raises
    [Invalid_argument] if [g] has more edges than the int32 layout can
    index. *)
val save : Graph.t -> string -> unit

(** [load file] reads a graph written by {!save}, the near-zero-copy
    path (the mapped file regions become the packed adjacency; the
    mapping is private, so later mutation of the graph never touches
    the file).  Raises
    {!Not_a_graph} / {!Corrupt} as described above, or
    [Sys_error]/[Unix.Unix_error] on I/O failure. *)
val load : string -> Graph.t
