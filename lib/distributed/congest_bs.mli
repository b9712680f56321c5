(** Distributed Baswana-Sen in the CONGEST model (Theorem 14).

    The same clustering process as the centralized {!Baswana_sen}, executed
    in synchronous rounds with [O(log n)]-bit messages:

    + at phase [i], each cluster center draws its sampling bit and floods
      it down the cluster BFS tree — [i] rounds, since level-[i-1]
      clusters have radius [< i];
    + one round in which every vertex announces [(center, sampled)] to its
      neighbors, after which all decisions are local (each vertex knows
      its incident edge weights and its neighbors' clusters);
    + one round of per-edge kill notifications keeping the two endpoints'
      views of the surviving edge set consistent.

    Phases [1 .. k-1] plus the final connect-to-all-clusters phase give
    [sum_i (i + 2) + 2 = O(k^2)] rounds, matching Theorem 14; expected
    size is [O(k n^{1+1/k})] as in the centralized version.

    Each vertex runs the centralized per-vertex step
    ({!Baswana_sen.scan}, {!Baswana_sen.join}), but where the centralized
    build processes vertices sequentially and kills edges at once, every
    vertex here decides against the same announced snapshot of the
    clustering and defers its kills to the kill round — the genuinely
    distributed semantics.

    With [record_history] the per-round, per-edge bit loads are retained;
    {!Congest_ft} replays those histories to schedule many instances in
    parallel under a congestion bound (Theorem 15). *)

type result = {
  selection : Selection.t;
  rounds : int;
  stats : Net.stats;
  history : (int * int * int) list array;
      (** per round: [(edge, direction, bits)] — empty unless recorded *)
}

(** [build rng ?word_bits ?record_history ?chaos ~k g] runs the
    algorithm.  [word_bits] is the CONGEST message capacity (default:
    [4 * (ceil log2 n + 1)], i.e. a constant number of vertex ids).
    [chaos] injects network faults, masked by the {!Reliable} protocol:
    the selection is unchanged, while [rounds]/[stats]/[history] reflect
    the retransmission traffic. *)
val build :
  Rng.t ->
  ?word_bits:int ->
  ?record_history:bool ->
  ?chaos:Chaos.plan ->
  k:int ->
  Graph.t ->
  result
