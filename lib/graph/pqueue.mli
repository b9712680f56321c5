(** Minimal binary min-heap with float keys and integer payloads.

    Tailored to Dijkstra: supports lazy deletion (duplicate pushes with
    improved keys) rather than decrease-key. *)

type t

(** [create ~capacity] allocates a heap; it grows as needed. *)
val create : capacity:int -> t

val is_empty : t -> bool

(** [push h key payload] inserts an entry. *)
val push : t -> float -> int -> unit

(** [pop_min h] removes and returns the entry with the smallest key. *)
val pop_min : t -> (float * int) option
