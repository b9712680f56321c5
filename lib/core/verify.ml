type violation = {
  fault : Fault.t;
  u : int;
  v : int;
  d_source : float;
  d_spanner : float;
}

let pp_violation ppf x =
  Format.fprintf ppf "@[<h>%a breaks {%d,%d}: d_G\\F=%g, d_H\\F=%g@]" Fault.pp
    x.fault x.u x.v x.d_source x.d_spanner

type report = { checked : int; violation : violation option }

let ok r = Option.is_none r.violation

let eps = 1e-9

(* One fault evaluation's view of G\F and H\F.  The spanner-with-faults
   is the source graph with "unselected or faulted" edges blocked (see
   {!Selection.blocked_edges}).  Everything here is allocated per fault
   evaluation and read-only graph state is shared, so a battery of
   faults is embarrassingly parallel: results land by fault index,
   making the parallel sweep bit-identical to the sequential one (Exec's
   determinism contract). *)
type scope = {
  g : Graph.t;
  bv : bool array;  (* faulted vertices, [[||]] under EFT *)
  be : bool array;  (* faulted edges, [[||]] under VFT *)
  h_blocked : bool array;  (* edges absent from H\F *)
  ws : Bfs.Workspace.t option;  (* BFS scratch, unit-weight graphs only *)
}

let scope sel fault =
  let g = sel.Selection.source in
  let bv, be = Fault.masks g fault in
  let h_blocked =
    Selection.blocked_edges sel
      (match fault.Fault.mode with Fault.EFT -> fault.Fault.members | Fault.VFT -> [])
  in
  {
    g;
    bv = Option.value bv ~default:[||];
    be = Option.value be ~default:[||];
    h_blocked;
    ws = (if Graph.is_unit_weighted g then Some (Bfs.Workspace.create ()) else None);
  }

(* An edge Lemma 3 quantifies, seen from its lower endpoint [u] (itself
   surviving): the edge and its other endpoint survive. *)
let surviving s u v id =
  v > u && (not (Bfs.blocked s.be id)) && not (Bfs.blocked s.bv v)

(* Distances from [src] in G\F minus [blocked_edges]: exact up to
   [radius], [infinity] beyond it.  Admission keeps a distance bit for
   bit, because float addition of positive lengths is monotone.  On a
   unit-weight graph the answer reads the workspace, so it holds until
   the next search of the same scope. *)
let search s ~blocked_edges ~radius src =
  match s.ws with
  | Some ws ->
      let n = Graph.n s.g in
      let max_hops =
        if radius >= float_of_int n then n
        else if radius >= 0. then int_of_float radius
        else 0
      in
      Bfs.ball ws ~blocked_vertices:s.bv ~blocked_edges s.g ~src ~max_hops;
      fun v ->
        let d = Bfs.Workspace.depth ws v in
        if d < 0 then infinity else float_of_int d
  | None ->
      let cutoff = if radius = infinity then None else Some radius in
      Array.get
        (Dijkstra.distances ~blocked_vertices:s.bv ~blocked_edges ?cutoff s.g src)

(* The one per-fault sweep: every surviving source in index order, while
   [visit] answers [true].  A source is visited only if some surviving
   edge to a higher-numbered neighbour passes [keep], with the largest
   [reach id] among those edges; [visit] then looks at them in
   adjacency order. *)
let sweep s ~keep ~reach visit =
  let go = ref true and u = ref 0 in
  while !go && !u < Graph.n s.g do
    let src = !u in
    if not (Bfs.blocked s.bv src) then begin
      let any = ref false and radius = ref neg_infinity in
      Graph.iter_neighbors s.g src (fun v id ->
          if surviving s src v id && keep id then begin
            any := true;
            if reach id > !radius then radius := reach id
          end);
      if !any then go := visit src !radius
    end;
    incr u
  done

(* Lemma 3, edge by edge: a surviving edge {u,v} breaks the spanner iff
   d_{G\F}(u,v) >= w - eps (the edge realizes the faulted distance) and
   d_{H\F}(u,v) > stretch*w + eps.  A kept surviving edge has
   d_{H\F} <= w, so with [stretch >= 1] only the edges H drops are
   candidates.  Per source, one search in H\F bounded by the largest
   candidate bound decides every candidate; only a failing one pays for
   d_{G\F} (1 on a unit-weight graph, else a search cut off at w, exact
   since the edge survives), and only a reported one for an unbounded
   search to fill in d_spanner.  The sweep's order makes the first
   violation the one a look at every surviving edge would meet first. *)
let check_under_fault sel ~stretch fault =
  let s = scope sel fault in
  let g = s.g in
  let bound id = (stretch *. Graph.weight g id) +. eps in
  let keep id = stretch < 1. || Bfs.blocked s.h_blocked id in
  let d_source u v id =
    match s.ws with
    | Some _ -> 1.0
    | None -> (
        match
          Dijkstra.distance_upto ~blocked_vertices:s.bv ~blocked_edges:s.be g
            ~src:u ~dst:v ~cutoff:(Graph.weight g id)
        with
        | Some d -> d
        | None -> infinity)
  in
  let found = ref None in
  sweep s ~keep ~reach:bound (fun src radius ->
      let d_h = search s ~blocked_edges:s.h_blocked ~radius src in
      Graph.iter_neighbors g src (fun v id ->
          if
            Option.is_none !found && surviving s src v id && keep id
            && d_h v > bound id
          then begin
            let d_g = d_source src v id in
            if d_g >= Graph.weight g id -. eps then begin
              let d_spanner =
                if d_h v < infinity then d_h v
                else search s ~blocked_edges:s.h_blocked ~radius:infinity src v
              in
              found := Some { fault; u = src; v; d_source = d_g; d_spanner }
            end
          end);
      Option.is_none !found);
  !found

(* The exact ratio needs d_{H\F} unbounded, but a surviving edge has
   d_{G\F} <= w: 1 on a unit-weight graph, else a search cut off at the
   source's heaviest surviving edge. *)
let max_stretch_under_fault sel fault =
  let s = scope sel fault in
  let g = s.g in
  let worst = ref 1.0 in
  sweep s ~keep:(fun _ -> true) ~reach:(Graph.weight g) (fun src heaviest ->
      let d_h = search s ~blocked_edges:s.h_blocked ~radius:infinity src in
      let d_g =
        match s.ws with
        | Some _ -> fun _ -> 1.0
        | None -> search s ~blocked_edges:s.be ~radius:heaviest src
      in
      Graph.iter_neighbors g src (fun v id ->
          if surviving s src v id then begin
            let d_g = d_g v and d_h = d_h v in
            let ratio =
              if d_g = infinity then 1.0
              else if d_h = infinity then infinity
              else if d_g <= eps then 1.0
              else d_h /. d_g
            in
            if ratio > !worst then worst := ratio
          end);
      true);
  !worst

(* ------------------------- config surface ------------------------- *)

type config = {
  pool : Exec.Pool.t option;
  trials : int;
  rng : Rng.t option;
  max_sets : float;
}

let default = { pool = None; trials = 200; rng = None; max_sets = 2e6 }

let config ?pool ?(trials = default.trials) ?rng
    ?(max_sets = default.max_sets) () =
  if trials < 1 then invalid_arg "Verify.config: trials must be >= 1";
  if max_sets <= 0. then invalid_arg "Verify.config: max_sets must be > 0";
  { pool; trials; rng; max_sets }

(* A shared [rng] in the config threads one stream through successive
   batteries (the CLI's adversarial -> random -> profile chain); without
   one, each call starts a fresh stream from a fixed seed. *)
let cfg_rng cfg =
  match cfg.rng with Some r -> r | None -> Rng.create ~seed:0x5eed

let stretch_many ?(cfg = default) sel faults =
  let out = Array.make (Array.length faults) 1.0 in
  Exec.parallel_for ?pool:cfg.pool ~lo:0 ~hi:(Array.length faults)
    (fun ~worker:_ lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- max_stretch_under_fault sel faults.(i)
      done);
  out

type profile = {
  samples : int;
  mean : float;
  p95 : float;
  worst : float;
  disconnections : int;
}

let pp_profile ppf p =
  Format.fprintf ppf
    "stretch over %d fault sets: mean %.3f, p95 %.3f, worst %s (%d disconnections)"
    p.samples p.mean p.p95
    (if p.worst = infinity then "inf" else Printf.sprintf "%.3f" p.worst)
    p.disconnections

let profile ?(cfg = default) sel ~mode ~f =
  let trials = cfg.trials in
  if trials < 1 then invalid_arg "Verify.profile: trials must be >= 1";
  let rng = cfg_rng cfg in
  let g = sel.Selection.source in
  (* Faults are drawn sequentially (index order) so the rng stream — and
     with it every profile figure — is identical with and without a
     pool; only the stretch evaluations fan out. *)
  let faults = Array.make trials (Fault.empty mode) in
  for i = 0 to trials - 1 do
    faults.(i) <-
      (if i mod 2 = 0 then Fault.random rng mode g ~f
       else Fault.random_adversarial rng mode g ~f)
  done;
  let values = stretch_many ~cfg sel faults in
  let disconnections = ref 0 in
  Array.iter (fun s -> if s = infinity then incr disconnections) values;
  Array.sort compare values;
  let finite = Array.to_list values |> List.filter (fun v -> v < infinity) in
  let mean =
    match finite with
    | [] -> infinity
    | _ ->
        List.fold_left ( +. ) 0. finite /. float_of_int (List.length finite)
  in
  let p95 = values.(min (trials - 1) (trials * 95 / 100)) in
  {
    samples = trials;
    mean;
    p95;
    worst = values.(trials - 1);
    disconnections = !disconnections;
  }

(* The one streaming scan: up to [max_sets] fault sets cannot be
   pre-drawn, so enumeration stops at the first violation. *)
let exhaustive ?(cfg = default) sel ~mode ~stretch ~f =
  let g = sel.Selection.source in
  let universe = match mode with Fault.VFT -> Graph.n g | Fault.EFT -> Graph.m g in
  let total = Fault.count_subsets ~universe ~f in
  if total > cfg.max_sets then
    invalid_arg
      (Printf.sprintf "Verify.exhaustive: %.3g fault sets exceed the %.3g cap"
         total cfg.max_sets);
  let checked = ref 0 and violation = ref None in
  (try
     Fault.enumerate mode g ~f (fun fault ->
         incr checked;
         match check_under_fault sel ~stretch fault with
         | Some x ->
             violation := Some x;
             raise Exit
         | None -> ())
   with Exit -> ());
  { checked = !checked; violation = !violation }

(* A sampled battery: [trials] faults drawn in sample order, every one
   evaluated (results by index, over [cfg.pool] when given), then the
   report read off in sample order — [checked] counts to the first
   violation, as an early-exit scan would. *)
let check_sampled cfg draw sel ~stretch =
  let rng = cfg_rng cfg in
  let faults = Array.init cfg.trials (fun _ -> draw rng) in
  let n = Array.length faults in
  let found = Array.make n None in
  Exec.parallel_for ?pool:cfg.pool ~lo:0 ~hi:n (fun ~worker:_ lo hi ->
      for i = lo to hi - 1 do
        found.(i) <- check_under_fault sel ~stretch faults.(i)
      done);
  let rec first i =
    if i >= n then { checked = n; violation = None }
    else
      match found.(i) with
      | Some _ as v -> { checked = i + 1; violation = v }
      | None -> first (i + 1)
  in
  first 0

let random ?(cfg = default) sel ~mode ~stretch ~f =
  check_sampled cfg
    (fun rng -> Fault.random rng mode sel.Selection.source ~f)
    sel ~stretch

let adversarial ?(cfg = default) sel ~mode ~stretch ~f =
  check_sampled cfg
    (fun rng -> Fault.random_adversarial rng mode sel.Selection.source ~f)
    sel ~stretch
