(** Algorithm 1 of the paper: the exponential-time greedy of Bodwin-Dinitz-
    Parter-Vassilevska Williams (SODA'18) / Bodwin-Patel (PODC'19).

    For each edge [{u,v}] in nondecreasing weight order, the edge is added
    iff there exists a fault set [F] with [|F| <= f] such that
    [d_{H\F}(u,v) > (2k-1) * w(u,v)] in the current partial spanner [H].
    This produces the size-optimal [O(f^{1-1/k} n^{1+1/k})] fault-tolerant
    spanner, but the existence check is NP-hard, so the construction takes
    exponential time — the weakness this paper's Algorithm 3/4 removes.

    The existence check is {!Lbc_exact.find_cut} with a [Weight] budget:
    exact branch-and-bound (branch over the members of a minimum-hop path
    within the stretch budget — any valid [F] must hit it) that stops at
    the first fault set found, rather than brute-force enumeration of all
    [C(n,f)] sets; both are exponential in the worst case, but the
    branching version makes the baseline runnable on the instance sizes the
    comparison experiments use. *)

(** [build ~mode ~k ~f g] runs the exponential greedy.  Requires [k >= 1],
    [f >= 0].  Worst-case time grows like [(2k-1)^f] per edge in unweighted
    graphs (worse in weighted ones); keep [n], [f] small. *)
val build : mode:Fault.mode -> k:int -> f:int -> Graph.t -> Selection.t

(** [build_naive ~mode ~k ~f g] is the greedy with the decision implemented
    exactly as in BDPW18/BP19: enumerate {e every} fault set of size at
    most [f] and test each.  [Theta(n^f)] per edge — only for the
    baseline-comparison experiment; agrees with {!build} edge for edge. *)
val build_naive : mode:Fault.mode -> k:int -> f:int -> Graph.t -> Selection.t
