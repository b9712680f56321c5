(** The wire model shared by the simulators: how one send becomes
    physical copies on a directed edge.

    {!Net} (synchronous rounds) and {!Async_net} (event-driven time)
    differ in how a copy {e lands} — a staged or lagging inbox entry
    versus a scheduled event — but not in how it gets onto the wire.
    This module owns that part, so a chaos or tracing change is made
    once:

    - {b directed slots}: wire [src -> dst] over edge [id] is slot
      [2 * id + dir], [dir = 0] when [src < dst], the simulators'
      load-accounting index;
    - {b skeleton attribution}: an optional per-edge mask splits every
      physical copy between a spanner counter and an "other" counter;
    - {b the send prologue}: a causal id is minted unless the caller
      passes one, then one [Msg_send] is traced;
    - {b per-copy chaos fate}: a crashed sender's message never reaches
      the wire; otherwise one copy, and a second one when the plan
      duplicates it, each charged to the wire before its drop draw.

    Draw order is part of the contract: a seeded chaos run consumes its
    fault stream, mints cids and emits trace events in exactly this
    order whichever simulator it drives. *)

type t

(** [create ~who ?chaos ~spanner ~other g] is the wire of topology [g].
    [who] prefixes error messages (["Net"], ["Async_net"]); [spanner]
    and [other] are the counters {!set_skeleton} attribution feeds. *)
val create :
  who:string ->
  ?chaos:Chaos.state ->
  spanner:Obs.Counter.t ->
  other:Obs.Counter.t ->
  Graph.t ->
  t

(** [chaos w] is the fault plan the wire was armed with, if any. *)
val chaos : t -> Chaos.state option

(** [slots g] is the length of a per-slot array over [g] ([2m], at
    least 1). *)
val slots : Graph.t -> int

(** [edge_dir s] is [(edge_id, dir)] of slot [s]. *)
val edge_dir : int -> int * int

(** [set_skeleton w mask] arms spanner-vs-rest attribution ([mask] has
    one flag per edge id).  Raises [Invalid_argument] on a size
    mismatch. *)
val set_skeleton : t -> bool array -> unit

(** [transmit w ?cid ~src ~dst ~at ~bits ~charge arrive] puts one send on
    the wire at simulated time/round [at] and returns its causal id.
    Every physical copy calls [charge s] with its directed slot [s] and
    is attributed [bits] to the skeleton counters; each copy that
    survives its drop draw calls [arrive ~cid chaos] — the simulator's
    own step (lag, delay spike, destination crash, enqueue), given the
    armed chaos state.  Raises [Invalid_argument] ("[who].send: ... not
    adjacent") for a non-adjacent pair before anything is charged,
    minted or traced. *)
val transmit :
  t ->
  ?cid:int ->
  src:int ->
  dst:int ->
  at:float ->
  bits:int ->
  charge:(int -> unit) ->
  (cid:int -> Chaos.state option -> unit) ->
  int
