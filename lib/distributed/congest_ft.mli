(** The CONGEST fault-tolerant spanner of Section 5.2 (Theorem 15):
    Dinitz-Krauthgamer iterations instantiated with distributed
    Baswana-Sen, run in parallel under a per-edge congestion schedule.

    Phase 1: every vertex picks, for each of the [J = ceil(c f^3 ln n)]
    iterations, whether it participates (probability [1/(f+1)]), and ships
    the chosen iteration indices to its neighbors.  A vertex picks
    [O(f^2 log n)] iterations w.h.p. and each index costs [O(log f +
    log log n)] bits, so chunking into [O(log n)]-bit messages takes
    [O(f^2 (log f + log log n))] rounds — computed here from the actual
    sampled sets, not the asymptotic.

    Phase 2: all [J] Baswana-Sen instances run in parallel.  Each instance
    is executed on the simulator with per-round edge loads recorded; the
    parallel composition is then costed by congestion scheduling — BS step
    [r] takes [ceil(max_edge total_bits(r) / capacity)] physical rounds,
    exactly the "O(f log n) time steps per time step" argument in the
    paper's proof.  W.h.p. at most [O(f log n)] instances share an edge,
    giving [O(k^2 f log n)] rounds for this phase.

    The schedule is computed from one dense row per BS step, indexed by
    parent directed slot, holding the bits summed over instances and the
    number of instances that loaded the slot.  A row is allocated when
    some instance first loads that step, so the schedule's memory is
    [O(base rounds * 2m)] ints; one scan over the rows gives every
    step's round count and [max_overlap].

    The union of all instance spanners is an f-FT (2k-1)-spanner w.h.p.
    with [O(k f^{2-1/k} n^{1+1/k} log n)] edges.  Edge faults use the
    edge-sampled variant of the reduction (see {!Dk11}). *)

type result = {
  selection : Selection.t;
  iterations : int;  (** J *)
  phase1_rounds : int;
  phase2_base_rounds : int;  (** longest single instance, unscheduled *)
  phase2_rounds : int;  (** after congestion scheduling *)
  total_rounds : int;
  max_overlap : int;
      (** most instances simultaneously using one edge direction in one BS
          step — the paper bounds this by [O(f log n)] w.h.p. *)
  word_bits : int;  (** CONGEST capacity used *)
}

(** [build rng ?c ?word_bits ?chaos ~mode ~k ~f g] runs the construction.
    [c] is the DK11 iteration constant (default 1.0); it must be finite
    and positive (see {!Dk11.iterations}).  [word_bits] must be [>= 1].
    [chaos] makes every instance's network unreliable; the {!Reliable}
    protocol masks the faults, so the selection is unchanged while the
    recorded loads include retransmission traffic.  Raises
    [Invalid_argument] on a bad [k], [f], [c] or [word_bits]. *)
val build :
  Rng.t ->
  ?c:float ->
  ?word_bits:int ->
  ?chaos:Chaos.plan ->
  mode:Fault.mode ->
  k:int ->
  f:int ->
  Graph.t ->
  result
