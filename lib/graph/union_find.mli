(** Disjoint-set forest with union by rank and path compression. *)

type t

(** [create n] makes [n] singleton sets [0..n-1]. *)
val create : int -> t

(** [union uf x y] merges the sets of [x] and [y]; returns [true] when they
    were previously distinct. *)
val union : t -> int -> int -> bool

(** [same uf x y] tests whether [x] and [y] share a set. *)
val same : t -> int -> int -> bool

(** [count uf] is the current number of disjoint sets. *)
val count : t -> int
