type plan = {
  drop : float;
  dup : float;
  reorder : int;
  spike : float;
  spike_factor : float;
  crashes : (int * float * float) list;
  seed : int;
}

let default_seed = 0xC4A05
(* The synchronous [Reliable] gives a packet up after 212 * (2 + reorder)
   physical rounds (see [chaos.mli]); this bound keeps that under 2^16. *)
let max_reorder = 254

let check_prob name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Chaos.plan: %s must be in [0,1] (got %g)" name p)

let plan ?(drop = 0.) ?(dup = 0.) ?(reorder = 0) ?(spike = 0.)
    ?(spike_factor = 5.0) ?(crashes = []) ?(seed = default_seed) () =
  check_prob "drop" drop;
  check_prob "dup" dup;
  check_prob "spike" spike;
  if reorder < 0 || reorder > max_reorder then
    invalid_arg
      (Printf.sprintf "Chaos.plan: reorder must be in [0,%d] (got %d)"
         max_reorder reorder);
  if not (spike_factor >= 1. && Float.is_finite spike_factor) then
    invalid_arg "Chaos.plan: spike_factor must be finite and >= 1";
  List.iter
    (fun (v, from_t, until_t) ->
      if v < 0 then invalid_arg "Chaos.plan: crash node must be >= 0";
      (* [until] may be [infinity] (never recovers), [from] may not *)
      if not (from_t >= 0. && Float.is_finite from_t && until_t >= from_t) then
        invalid_arg
          "Chaos.plan: crash window must satisfy 0 <= from <= until, from \
           finite")
    crashes;
  { drop; dup; reorder; spike; spike_factor; crashes; seed }

let is_silent p =
  p.drop = 0. && p.dup = 0. && p.reorder = 0 && p.spike = 0. && p.crashes = []

(* --------------------------- spec grammar ---------------------------- *)

let ( let* ) = Result.bind

let parse_float key v =
  match float_of_string_opt v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "chaos: %s needs a float (got %S)" key v)

let parse_int key v =
  match int_of_string_opt v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "chaos: %s needs an integer (got %S)" key v)

(* crash=V@T / recover=V@T *)
let parse_at key v =
  match String.index_opt v '@' with
  | None -> Error (Printf.sprintf "chaos: %s needs NODE@TIME (got %S)" key v)
  | Some i ->
      let node = String.sub v 0 i in
      let time = String.sub v (i + 1) (String.length v - i - 1) in
      let* node = parse_int key node in
      let* time = parse_float key time in
      Ok (node, time)

let parse_spec s =
  let fields = String.split_on_char ',' (String.trim s) in
  let rec go acc crashes = function
    | [] ->
        let acc = { acc with crashes = List.rev crashes } in
        (try Ok (plan ~drop:acc.drop ~dup:acc.dup ~reorder:acc.reorder
                   ~spike:acc.spike ~spike_factor:acc.spike_factor
                   ~crashes:acc.crashes ~seed:acc.seed ())
         with Invalid_argument msg -> Error msg)
    | field :: rest -> (
        let field = String.trim field in
        if field = "" then go acc crashes rest
        else
          match String.index_opt field '=' with
          | None -> Error (Printf.sprintf "chaos: expected KEY=VALUE (got %S)" field)
          | Some i -> (
              let key = String.sub field 0 i in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              match key with
              | "drop" ->
                  let* x = parse_float key v in
                  go { acc with drop = x } crashes rest
              | "dup" ->
                  let* x = parse_float key v in
                  go { acc with dup = x } crashes rest
              | "reorder" ->
                  let* x = parse_int key v in
                  go { acc with reorder = x } crashes rest
              | "spike" ->
                  let* x = parse_float key v in
                  go { acc with spike = x } crashes rest
              | "spikex" ->
                  let* x = parse_float key v in
                  go { acc with spike_factor = x } crashes rest
              | "seed" ->
                  let* x = parse_int key v in
                  go { acc with seed = x } crashes rest
              | "crash" ->
                  let* node, time = parse_at key v in
                  go acc ((node, time, infinity) :: crashes) rest
              | "recover" -> (
                  let* node, time = parse_at key v in
                  (* close the node's most recent open crash window *)
                  let rec close = function
                    | [] ->
                        Error
                          (Printf.sprintf
                             "chaos: recover=%d@%g without a prior crash" node time)
                    | (n, f, u) :: tl when n = node && u = infinity ->
                        Ok ((n, f, time) :: tl)
                    | hd :: tl ->
                        let* tl = close tl in
                        Ok (hd :: tl)
                  in
                  match close crashes with
                  | Ok crashes -> go acc crashes rest
                  | Error e -> Error e)
              | _ -> Error (Printf.sprintf "chaos: unknown key %S" key)))
  in
  go (plan ()) [] fields

let pp_plan ppf p =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  if p.drop > 0. then add "drop=%g" p.drop;
  if p.dup > 0. then add "dup=%g" p.dup;
  if p.reorder > 0 then add "reorder=%d" p.reorder;
  if p.spike > 0. then begin
    add "spike=%g" p.spike;
    if p.spike_factor <> 5.0 then add "spikex=%g" p.spike_factor
  end;
  List.iter
    (fun (v, from_t, until_t) ->
      add "crash=%d@%g" v from_t;
      if until_t < infinity then add "recover=%d@%g" v until_t)
    p.crashes;
  add "seed=%d" p.seed;
  Format.pp_print_string ppf (String.concat "," (List.rev !parts))

(* ----------------------------- telemetry ----------------------------- *)

let m_drops = Obs.counter "net.drops"
let m_dups = Obs.counter "net.dups"
let m_reorders = Obs.counter "net.reorders"
let retries_counter = Obs.counter "net.retries"
let giveups_counter = Obs.counter "net.giveups"

let trace ?(cid = -1) kind ~src ~dst =
  if Obs_trace.enabled () then
    Obs_trace.emit (Obs_trace.Chaos_event { kind; cid; src; dst })

(* ------------------------------- state ------------------------------- *)

type counts = { c_drops : int; c_dups : int; c_reorders : int }

type state = {
  plan : plan;
  rng : Rng.t;
  mutable drops : int;
  mutable dups : int;
  mutable reorders : int;
}

let start plan =
  { plan; rng = Rng.create ~seed:plan.seed; drops = 0; dups = 0; reorders = 0 }

let plan_of st = st.plan
let counts st = { c_drops = st.drops; c_dups = st.dups; c_reorders = st.reorders }

(* Asked on every transmit and every non-empty inbox: a plan without
   crash windows answers before building the [List.exists] closure. *)
let crashed st ~node ~time =
  match st.plan.crashes with
  | [] -> false
  | crashes ->
      List.exists
        (fun (v, from_t, until_t) -> v = node && time >= from_t && time < until_t)
        crashes

let note_drop ?cid st ~src ~dst =
  st.drops <- st.drops + 1;
  Obs.Counter.incr m_drops;
  trace ?cid "drop" ~src ~dst

let draw_drop ?cid st ~src ~dst =
  let hit = st.plan.drop > 0. && Rng.bernoulli st.rng ~p:st.plan.drop in
  if hit then note_drop ?cid st ~src ~dst;
  hit

let draw_dup ?cid st ~src ~dst =
  let hit = st.plan.dup > 0. && Rng.bernoulli st.rng ~p:st.plan.dup in
  if hit then begin
    st.dups <- st.dups + 1;
    Obs.Counter.incr m_dups;
    trace ?cid "dup" ~src ~dst
  end;
  hit

let draw_lag ?cid st ~src ~dst =
  if st.plan.reorder = 0 then 0
  else begin
    let lag = Rng.int st.rng (st.plan.reorder + 1) in
    if lag > 0 then begin
      st.reorders <- st.reorders + 1;
      Obs.Counter.incr m_reorders;
      trace ?cid "reorder" ~src ~dst
    end;
    lag
  end

let draw_spike ?cid st ~src ~dst =
  if st.plan.spike > 0. && Rng.bernoulli st.rng ~p:st.plan.spike then begin
    st.reorders <- st.reorders + 1;
    Obs.Counter.incr m_reorders;
    trace ?cid "spike" ~src ~dst;
    st.plan.spike_factor
  end
  else 1.0

let count_crash_drop ?cid st ~src ~dst = note_drop ?cid st ~src ~dst
