(** Minimal binary min-heap with float keys and integer payloads.

    Tailored to Dijkstra: supports lazy deletion (duplicate pushes with
    improved keys) rather than decrease-key.  {!Async_net} orders its
    events with it too.

    {b Equal keys.}  Entries with equal keys leave in an order fixed by
    the sequence of pushes and pops alone — the array layout of a plain
    binary heap whose sift-up moves an entry past a strictly greater
    parent and whose sift-down moves it below a strictly smaller child,
    the left one unless the right is strictly smaller still.  It is
    neither FIFO nor LIFO, but it replays exactly: the event simulator's
    equal-time events (a burst of retransmit timers armed at one instant)
    fire in this order, and that order feeds its random streams.  Only
    a push or a pop moves entries; {!min_key} reads the root. *)

type t

(** [create ~capacity] allocates a heap; it grows as needed. *)
val create : capacity:int -> t

val is_empty : t -> bool

(** [push h key payload] inserts an entry. *)
val push : t -> float -> int -> unit

(** [min_key h] is the smallest key.  Raises [Invalid_argument] on an
    empty heap. *)
val min_key : t -> float

(** [pop h] removes the entry with the smallest key ({!min_key}) and
    returns its payload.  Raises [Invalid_argument] on an empty heap. *)
val pop : t -> int
