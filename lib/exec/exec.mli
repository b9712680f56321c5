(** Persistent domain-pool executor: the parallel substrate under every
    multicore code path in the library.

    The paper's greedy spends its whole budget in per-edge [LBC(2k-1, f)]
    calls whose costs vary wildly — a [Yes] can return after one BFS, a
    [No] burns [alpha + 1] rounds — so static equal chunks leave domains
    idle behind one expensive chunk, and spawning fresh domains per batch
    pays domain startup on every round.  This module fixes both: a
    {!Pool} is a set of worker domains created {e once}, parked on a
    condition variable between regions, and handed dynamically-chunked
    index ranges through one shared atomic cursor, so uneven work
    load-balances by construction and steady-state regions spawn
    nothing.

    {b Determinism contract.}  {!parallel_for} partitions [\[lo, hi)] into
    chunks and promises only {e that every index is passed to [body]
    exactly once} (in some order, on some worker).  Callers that write
    results {e by index} into pre-sized arrays — the way
    {!Poly_greedy.build} records verdicts and {!Verify.stretch_many}
    records stretches — therefore produce {e bit-identical} results
    regardless of the domain count, the chunk size, or which worker stole
    which range.  Do not fold results in completion order; index-addressed
    writes are the contract.

    {b No pool.}  Every entry point takes the pool as an option, and
    "no pool" means one thing: the caller is the only worker.
    {!parallel_for} then runs [body ~worker:0 lo hi] once, inline, and
    {!Worker_local} has one slot, so a sequential run is the one-worker
    case of the same code and callers never branch on whether a pool was
    given.

    Telemetry (all under the [pool.] prefix, which the bench regression
    gate deliberately ignores — chunk claims are scheduling, not
    algorithm, counters): [pool.regions], [pool.tasks] (chunks executed),
    [pool.steals] (chunks executed by a helper domain rather than the
    submitting one), per-worker busy timers [pool.busy.N], and a
    [pool.utilization] histogram of percent-busy per region.  While
    {!Obs_trace} collects, each region additionally emits a
    [Phase {name = "pool.parallel_for"}] event and runs inside a
    [pool.parallel_for] span, so the trace viewer shows the fan-out.
    A pool-less call records none of this. *)

(** Default worker count for tools: the value set by {!set_default_jobs}
    ([bench/main.exe]'s [--jobs]), else the [FTSPAN_JOBS] environment variable,
    else [1].  Malformed or non-positive values of [FTSPAN_JOBS] read as
    [1]. *)
val default_jobs : unit -> int

(** [set_default_jobs n] overrides {!default_jobs} for this process.
    Raises [Invalid_argument] if [n < 1].

    The override is a plain, unsynchronized reference.  The only caller
    outside the tests is [bench/main.exe], which sets it once, before
    any pool exists; any other caller must do the same. *)
val set_default_jobs : int -> unit

module Pool : sig
  (** A fixed team of [domains - 1] helper domains plus the calling
      domain.  Helpers are spawned by {!create} and live until
      {!shutdown}; between regions they block on a condition variable and
      cost nothing.

      Ownership: a pool belongs to the domain that created it.  Only that
      domain may submit regions or shut the pool down.  A region
      submitted from inside another region on the same pool runs inline
      on the submitting worker (no deadlock, same determinism). *)
  type t

  (** [create ~domains ()] spawns [domains - 1] helper domains
      ([domains = 1] spawns none — a sequential pool).  Raises
      [Invalid_argument] if [domains < 1]. *)
  val create : domains:int -> unit -> t

  (** Total workers, the caller included: the [domains] of {!create}.
      Worker indices passed to {!parallel_for} bodies range over
      [0 .. size - 1]; index [0] is always the submitting domain, and a
      given helper always reports the same index, so per-worker state
      (workspaces) binds to a fixed domain for the pool's lifetime. *)
  val size : t -> int

  (** [shutdown p] wakes every helper, waits for them to exit, and joins
      their domains.  Idempotent.  Must not be called while a region is
      running.  Submitting to a shut-down pool raises
      [Invalid_argument]. *)
  val shutdown : t -> unit

  (** [with_pool ~domains f] is [f (create ~domains ())] with a
      guaranteed {!shutdown} on every exit path. *)
  val with_pool : domains:int -> (t -> 'a) -> 'a
end

(** [parallel_for ?chunk ?pool ~lo ~hi body] runs
    [body ~worker l h] over disjoint subranges [\[l, h)] covering
    [\[lo, hi)] exactly once, fanned out over the pool's workers.
    Without [pool] it is [body ~worker:0 lo hi], run once and inline:
    no region, span, trace phase, [pool.*] counter or heartbeat pulse.

    Ranges are claimed dynamically: workers repeatedly take the next
    [chunk] indices from a shared cursor until the range is exhausted, so
    a worker stuck on an expensive chunk never idles the others.  [chunk]
    defaults to a size that yields several chunks per worker; pass an
    explicit value to tune the balance between steal granularity and
    cursor contention.  Raises [Invalid_argument] if [chunk < 1].

    [worker] identifies the executing worker ([0 .. Pool.size - 1], [0] =
    the caller); use it to index per-worker scratch state.  [body] must
    not submit to the same pool from a helper, must not mutate state
    shared across indices, and should write its results by index (see the
    determinism contract above).

    If [body] raises, the region stops claiming new chunks, every worker
    returns to its parking lot (no helper is leaked or wedged — the pool
    stays usable), and the first exception re-raises in the caller with
    its original backtrace.  Chunks already claimed when the exception
    hit may still have run; treat the output arrays as garbage.

    Empty ranges ([hi <= lo]) return immediately and record nothing. *)
val parallel_for :
  ?chunk:int ->
  ?pool:Pool.t ->
  lo:int ->
  hi:int ->
  (worker:int -> int -> int -> unit) ->
  unit

module Worker_local : sig
  (** Lazily-initialized per-worker state for one pool: slot [w] is
      created on worker [w]'s first {!get} and then reused by that worker
      only, so access is race-free without locks.  This is how per-domain
      scratch (an [Lbc.Workspace]) persists across batches and across
      builds on the same pool. *)
  type 'a t

  (** [create ?pool init] allocates one empty slot per pool worker (one
      slot without [pool]); [init w] runs on worker [w] at its first
      {!get}. *)
  val create : ?pool:Pool.t -> (int -> 'a) -> 'a t

  (** [get t ~worker] is worker [worker]'s slot, initializing it on first
      use.  Must only be called with the caller's own worker index (from
      a {!parallel_for} body, or [~worker:0] outside any region). *)
  val get : 'a t -> worker:int -> 'a

  (** [iter t f] applies [f] to every slot initialized so far, in worker
      order.  Call it outside any region, once the workers are done. *)
  val iter : 'a t -> ('a -> unit) -> unit
end
