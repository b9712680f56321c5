(** Sound post-pruning of fault-tolerant spanners — a minimality probe.

    The greedy never removes an edge once added, so its output need not be
    (inclusion-)minimal.  This pass revisits the selected edges in
    nonincreasing weight order and deletes an edge whenever the remainder
    {e provably} stays an f-FT (2k-1)-spanner.  The certificate used is
    exact (Lemma 3 + {!Lbc_exact.find_cut} with a [Weight] budget: for
    every source edge, no fault set of size [<= f] destroys all detours of
    weight at most [(2k-1) * w]), so
    pruning preserves correctness unconditionally; it is exponential in
    [f] and meant for the minimality experiment (E11), not production.

    The measured gap between greedy size and pruned size quantifies how
    much of the factor-k loss of Theorem 2 (and the approximation slack of
    Algorithm 2) materializes on real inputs. *)

type result = {
  pruned : Selection.t;
  removed : int;  (** edges deleted from the input selection *)
  candidates : int;  (** edges examined *)
}

(** [minimalize ~mode ~k ~f sel] runs the pass.  The input must itself be
    a valid f-FT (2k-1)-spanner (e.g. a greedy output); the output then is
    one too, and is minimal w.r.t. single-edge removal.  Requires
    [k >= 1] and [f >= 0] ([Invalid_argument] otherwise). *)
val minimalize : mode:Fault.mode -> k:int -> f:int -> Selection.t -> result
