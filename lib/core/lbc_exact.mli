(** Exact Length-Bounded Cut by branch-and-bound — the one exact cut search,
    behind {!Exp_greedy}, the {!Prune} certificate and the Algorithm 2 tests.

    Length-Bounded Cut is NP-hard, so this solver is exponential in the
    cut size; it is intended for small budgets (the regimes where the
    exponential greedy of BDPW18/BP19 is runnable at all).  The search
    branches on the members of a minimum-hop path that fits [within] (at
    most [Hops t] edges, or weight at most [Weight b]; found by BFS, or by
    {!Hop_dp.min_hop_path} on weighted graphs): any valid cut must contain
    an interior vertex (VFT) / edge (EFT) of it.  Each such witness search
    counts under [lbc_exact.witness_searches]. *)

type within = Hops of int | Weight of float

(** [find_cut ~mode g ~u ~v ~within ~limit] returns the first cut of size
    [<= limit] in search order (sorted), stopping there, or [None] if there
    is none.  Requires [u <> v], [limit >= 0], and [t >= 1] for [Hops t]. *)
val find_cut :
  mode:Fault.mode ->
  Graph.t ->
  u:int ->
  v:int ->
  within:within ->
  limit:int ->
  int list option

(** [min_cut ~mode g ~u ~v ~t ~limit] returns [Some cut] (sorted) where
    [cut] is a minimum-cardinality length-[t]-cut of size [<= limit], or
    [None] when every length-[t]-cut is larger than [limit] (including the
    case where no cut exists at all, e.g. a direct [u]-[v] edge in VFT
    mode).  It is iterative deepening over {!find_cut} at limits
    [0, 1, ..., limit]: the search tree above the limit does not depend on
    it, so the first hit is the first minimum cut in DFS preorder — the cut
    a branch-and-bound recording only strictly smaller cuts would return. *)
val min_cut :
  mode:Fault.mode ->
  Graph.t ->
  u:int ->
  v:int ->
  t:int ->
  limit:int ->
  int list option

(** [is_cut ~mode g ~u ~v ~t members] checks the cut property directly: no
    [u]-[v] path of at most [t] hops survives deleting [members]. *)
val is_cut : mode:Fault.mode -> Graph.t -> u:int -> v:int -> t:int -> int list -> bool
