(** Incremental compressed-sparse-row (CSR) adjacency with pluggable
    packed storage.

    The flat core behind {!Graph}: incident half-edges live in packed
    arrays instead of cons lists, so the traversal inner loops ({!Bfs},
    {!Dijkstra}, {!Hop_dp}) walk contiguous memory.  Two regions hold
    the half-edges of a vertex [u]:

    - the {b packed region} — [nbr.(i)]/[eid.(i)] for
      [i] in [off.(u) .. off.(u+1) - 1], the classic CSR layout, stored
      in one of two {!backend}s:
      {ul
       {- [Int_array] — native OCaml [int array]s (one word per entry);}
       {- [Int32_bigarray] — [int32] C-layout [Bigarray]s, half the
          resident bytes and cache-denser inner loops, indexable up to
          [Int32.max_int] half-edges.  Binary graph files
          ({!Graph_binio}) map straight into this backend.}}
    - the {b append buffer} — a chain starting at [buf_head.(u)] through
      [buf_next], holding the half-edges added since the last
      compaction.  Always native [int array]s: it is small and
      mutation-heavy, so the backend seam only covers the packed bulk.

    {!add} appends into the buffer in O(1) and, once the buffer holds
    more than a quarter of the packed half-edges (floor
    {!compaction_floor}), merges it into a fresh packed layout
    ({!compact}).  The merge is geometric, so the total compaction cost
    over [m] insertions is [O((n + m) log m)] — negligible next to even
    a single BFS per insertion, the access pattern of the greedy
    spanner loop.

    {b Ordering contract}: iteration enumerates the half-edges of a
    vertex in strictly decreasing edge-id order (newest first) — buffer
    chain first, then the packed slice.  This is exactly the order of
    the historical [(neighbor, id) list] adjacency, which greedy
    verdicts, BFS parents and the checked-in bench counters all depend
    on; {!compact} and both backends preserve it, so selections are
    bit-identical whichever backend holds the graph.

    {b Which backend}: a graph's origin picks it.  Graphs built from
    scratch in memory ({!create} without [~backend]) are [Int_array];
    binary files loaded through {!Graph_binio} map into
    [Int32_bigarray]; a graph derived from another (a subgraph, a
    rebuild) passes its parent's {!backend} through [~backend].

    {b Concurrency}: {!iter}, {!scanner}, {!find}, {!degree} never
    mutate; concurrent readers (e.g. the parallel batch decision phase)
    are safe.  {!add} may compact and replace the arrays — single
    writer, no concurrent readers during a write. *)

(** Packed-region storage backends. *)
type backend =
  | Int_array  (** native [int array]s — graphs built in memory *)
  | Int32_bigarray  (** [int32] C-layout Bigarrays — half the words *)

(** [backend_name b] is ["int"] or ["int32"] (the CLI/bench spelling). *)
val backend_name : backend -> string

(** An [int32] C-layout Bigarray slice — the storage unit of the
    [Int32_bigarray] backend and of {!Graph_binio} mapped regions. *)
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** {1 Construction} *)

(** [create ?backend n] is the empty adjacency over vertices [0 .. n-1].
    [backend] defaults to [Int_array]. *)
val create : ?backend:backend -> int -> t

(** [add t u v id] records the half-edge [u -> v] with edge id [id].
    Amortized O(1); may trigger {!compact}.  Callers add both directions
    of an undirected edge.  No bounds or duplicate checks — {!Graph}
    validates — except the overflow guard: raises [Invalid_argument]
    when the half-edge count would exceed the backend's index range
    ({!max_half}) instead of wrapping around. *)
val add : t -> int -> int -> int -> unit

(** [copy t] is an independent deep copy (same backend). *)
val copy : t -> t

(** {1 Bulk constructor}

    For the binary loader ({!Graph_binio}), which already holds a packed
    layout and must not pay per-edge insertion. *)

(** [of_packed_i32 ~off ~nbr ~eid] wraps a packed [Int32_bigarray]
    layout ([off] has [n+1] entries) — e.g. regions mapped straight from
    a binary graph file.  Validates shape — offsets monotone from 0 and
    covering [nbr]/[eid], neighbors in range — and raises
    [Invalid_argument] otherwise; edge-id semantics are checked by
    [Graph.of_adjacency].  The arrays are adopted, not copied: do not
    mutate them afterwards. *)
val of_packed_i32 : off:i32 -> nbr:i32 -> eid:i32 -> t

(** {1 Traversal} *)

(** [iter t u fn] applies [fn v id] to every half-edge of [u], newest
    first (see the ordering contract above). *)
val iter : t -> int -> (int -> int -> unit) -> unit

(** [scanner t] resolves the backend dispatch and array captures once
    and returns the per-vertex scan: [scan u fn] is {!iter}[ t u fn].
    The hot-loop idiom — build one scanner per traversal of an
    unchanging structure, re-build after any {!add} (compaction replaces
    the arrays wholesale). *)
val scanner : t -> int -> (int -> int -> unit) -> unit

(** [find t u v] is the id of the most recently added half-edge
    [u -> v], if any. *)
val find : t -> int -> int -> int option

(** [degree t u] is the number of half-edges of [u].  O(1). *)
val degree : t -> int -> int

(** {1 Storage accounting} *)

(** [backend t] is the backend holding [t]'s packed region. *)
val backend : t -> backend

(** [vertices t] is the vertex count [n]. *)
val vertices : t -> int

(** [half_edges t] is the total number of half-edges stored (twice the
    edge count). *)
val half_edges : t -> int

(** [resident_bytes t] is the resident size of [t]'s storage in bytes
    (packed region at the backend's width plus buffers and degrees).
    [ftspan info] prints it per graph. *)
val resident_bytes : t -> int

(** [max_half b] is the largest half-edge count backend [b] can index
    ([Sys.max_array_length] / [Int32.max_int]). *)
val max_half : backend -> int

(** The compaction trigger floor, in buffered half-edges (see {!add}). *)
val compaction_floor : int

(** {1 Maintenance} *)

(** [buffered t] is the number of half-edges awaiting compaction
    (exposed for the compaction-invariant tests). *)
val buffered : t -> int

(** [compact t] merges the append buffer into the packed region; a no-op
    when the buffer is empty.  Iteration order is unchanged. *)
val compact : t -> unit
