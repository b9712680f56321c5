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

(* The one per-fault sweep, over the edges Lemma 3 quantifies: for
   every surviving source [u] with a surviving edge to a higher-numbered
   surviving neighbour [v], the distances from [u] in G\F and in H\F,
   then [visit u v id d_g d_h] on each such edge until [visit] answers
   [false].  The spanner-with-faults is the source graph with
   "unselected or faulted" edges blocked (see {!Selection.blocked_edges}).
   One fault's sweep touches only freshly allocated masks and
   BFS/Dijkstra arrays plus read-only graph state, so a battery of
   faults is embarrassingly parallel: results land by fault index,
   making the parallel sweep bit-identical to the sequential one (Exec's
   determinism contract). *)
let sweep sel fault visit =
  let g = sel.Selection.source in
  let bv, be = Fault.masks g fault in
  let h_blocked =
    Selection.blocked_edges sel
      (match fault.Fault.mode with Fault.EFT -> fault.Fault.members | Fault.VFT -> [])
  in
  let unit_graph = Graph.is_unit_weighted g in
  let distances src =
    if unit_graph then
      let to_float a =
        Array.map (fun d -> if d < 0 then infinity else float_of_int d) a
      in
      ( to_float (Bfs.distances ?blocked_vertices:bv ?blocked_edges:be g src),
        to_float (Bfs.distances ?blocked_vertices:bv ~blocked_edges:h_blocked g src) )
    else
      ( Dijkstra.distances ?blocked_vertices:bv ?blocked_edges:be g src,
        Dijkstra.distances ?blocked_vertices:bv ~blocked_edges:h_blocked g src )
  in
  let vertex_faulted x = match bv with None -> false | Some a -> a.(x) in
  let surviving u v id =
    v > u
    && (match be with None -> true | Some a -> not a.(id))
    && not (vertex_faulted v)
  in
  let go = ref true and u = ref 0 in
  while !go && !u < Graph.n g do
    let src = !u in
    if not (vertex_faulted src) then begin
      let needs_check = ref false in
      Graph.iter_neighbors g src (fun v id ->
          if surviving src v id then needs_check := true);
      if !needs_check then begin
        let d_g, d_h = distances src in
        Graph.iter_neighbors g src (fun v id ->
            if !go && surviving src v id then go := visit src v id d_g d_h)
      end
    end;
    incr u
  done

let check_under_fault sel ~stretch fault =
  let g = sel.Selection.source in
  let found = ref None in
  sweep sel fault (fun u v id d_g d_h ->
      let w = Graph.weight g id in
      (* Lemma 3: the spanner condition need only be checked when the
         edge realizes the faulted distance. *)
      if d_g.(v) >= w -. eps && d_h.(v) > (stretch *. w) +. eps then
        found := Some { fault; u; v; d_source = d_g.(v); d_spanner = d_h.(v) };
      Option.is_none !found);
  !found

let max_stretch_under_fault sel fault =
  let worst = ref 1.0 in
  sweep sel fault (fun _ v _ d_g d_h ->
      let ratio =
        if d_g.(v) = infinity then 1.0
        else if d_h.(v) = infinity then infinity
        else if d_g.(v) <= eps then 1.0
        else d_h.(v) /. d_g.(v)
      in
      if ratio > !worst then worst := ratio;
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
