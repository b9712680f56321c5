(* Bit-identity of the edge-local verifier against a reference model.

   [Verify] decides a fault set edge by edge: per surviving source, one
   search in H\F bounded by the largest candidate bound, and distances
   in G\F only where a candidate fails.  That is meant to be a pure
   speedup.  The model below is the all-sources sweep it replaced: full
   distances from every surviving source in G\F and in H\F, then a look
   at every surviving edge to a higher-numbered neighbour.  Reports
   ([checked] and the whole violation record, floats compared with [=])
   and stretch arrays (bit for bit) must match it exactly — unit and
   weighted, VFT and EFT, valid and degraded selections, sequential and
   on a pool. *)

let seeded seed = Rng.create ~seed
let eps = 1e-9

(* ------------------------- reference model ---------------------------- *)

let model_sweep sel fault visit =
  let g = sel.Selection.source in
  let bv, be = Fault.masks g fault in
  let h_blocked =
    Selection.blocked_edges sel
      (match fault.Fault.mode with Fault.EFT -> fault.Fault.members | Fault.VFT -> [])
  in
  let distances src =
    if Graph.is_unit_weighted g then
      let to_float a =
        Array.map (fun d -> if d < 0 then infinity else float_of_int d) a
      in
      ( to_float (Bfs.distances ?blocked_vertices:bv ?blocked_edges:be g src),
        to_float (Bfs.distances ?blocked_vertices:bv ~blocked_edges:h_blocked g src) )
    else
      ( Dijkstra.distances ?blocked_vertices:bv ?blocked_edges:be g src,
        Dijkstra.distances ?blocked_vertices:bv ~blocked_edges:h_blocked g src )
  in
  let faulted mask x = match mask with None -> false | Some a -> a.(x) in
  let surviving u v id = v > u && (not (faulted be id)) && not (faulted bv v) in
  let go = ref true and u = ref 0 in
  while !go && !u < Graph.n g do
    let src = !u in
    if not (faulted bv src) then begin
      let d_g, d_h = distances src in
      Graph.iter_neighbors g src (fun v id ->
          if !go && surviving src v id then go := visit src v id d_g d_h)
    end;
    incr u
  done

let model_check sel ~stretch fault =
  let g = sel.Selection.source in
  let found = ref None in
  model_sweep sel fault (fun u v id d_g d_h ->
      let w = Graph.weight g id in
      if d_g.(v) >= w -. eps && d_h.(v) > (stretch *. w) +. eps then
        found :=
          Some { Verify.fault; u; v; d_source = d_g.(v); d_spanner = d_h.(v) };
      Option.is_none !found);
  !found

let model_stretch sel fault =
  let worst = ref 1.0 in
  model_sweep sel fault (fun _ v _ d_g d_h ->
      let ratio =
        if d_g.(v) = infinity then 1.0
        else if d_h.(v) = infinity then infinity
        else if d_g.(v) <= eps then 1.0
        else d_h.(v) /. d_g.(v)
      in
      if ratio > !worst then worst := ratio;
      true);
  !worst

(* The batteries' reporting rule over the model's per-fault check. *)
let model_report sel ~stretch faults =
  let rec first i =
    if i >= Array.length faults then { Verify.checked = i; violation = None }
    else
      match model_check sel ~stretch faults.(i) with
      | Some _ as v -> { Verify.checked = i + 1; violation = v }
      | None -> first (i + 1)
  in
  first 0

let enumerated mode g ~f =
  let acc = ref [] in
  Fault.enumerate mode g ~f (fun x -> acc := x :: !acc);
  Array.of_list (List.rev !acc)

(* ------------------------------ inputs -------------------------------- *)

let graph r =
  let n = 4 + Rng.int r 14 in
  let g =
    if Rng.bool r then Generators.connected_gnp r ~n ~p:(0.15 +. Rng.float r 0.4)
    else
      Generators.random_geometric r ~n ~radius:(0.3 +. Rng.float r 0.3)
        ~euclidean_weights:false
  in
  if Rng.bool r then g else Generators.with_uniform_weights r g ~lo:1. ~hi:10.

(* A valid greedy selection, or one with about a tenth of its edges
   dropped so that violations occur. *)
let selection r ~mode ~k ~f g =
  let sel = Poly_greedy.build ~mode ~k ~f g in
  if Rng.bool r then sel
  else
    Selection.of_ids g
      (List.filter (fun _ -> Rng.float r 1.0 >= 0.1) (Selection.ids sel))

let stretches = [ 0.5; 1.0; 2.5; 3.0; 5.0 ]

let bits a = Array.map Int64.bits_of_float a

let arb_seed =
  QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_bound 1_000_000)

(* ----------------------------- properties ----------------------------- *)

let agree ?pool seed =
  let r = seeded seed in
  let g = graph r in
  let mode = if Rng.bool r then Fault.VFT else Fault.EFT in
  let k = 1 + Rng.int r 3 and f = Rng.int r 3 in
  let sel = selection r ~mode ~k ~f g in
  let trials = 12 in
  let sampled draw =
    let rng = seeded (seed + 1) in
    Array.init trials (fun _ -> draw rng)
  in
  let uniform = sampled (fun rng -> Fault.random rng mode g ~f) in
  let packed = sampled (fun rng -> Fault.random_adversarial rng mode g ~f) in
  let cfg () = Verify.config ?pool ~trials ~rng:(seeded (seed + 1)) () in
  let every = enumerated mode g ~f:(min f 1) in
  List.for_all
    (fun stretch ->
      Verify.exhaustive ~cfg:(cfg ()) sel ~mode ~stretch ~f:(min f 1)
      = model_report sel ~stretch every
      && Verify.random ~cfg:(cfg ()) sel ~mode ~stretch ~f
         = model_report sel ~stretch uniform
      && Verify.adversarial ~cfg:(cfg ()) sel ~mode ~stretch ~f
         = model_report sel ~stretch packed)
    stretches
  && bits (Verify.stretch_many ~cfg:(cfg ()) sel (Array.append uniform packed))
     = bits (Array.map (model_stretch sel) (Array.append uniform packed))

let prop_sequential =
  QCheck.Test.make ~count:150 ~name:"verify: reports and stretches = model"
    arb_seed (fun seed -> agree seed)

let prop_pooled =
  QCheck.Test.make ~count:40 ~name:"verify on 2 domains: reports and stretches = model"
    arb_seed (fun seed -> Exec.Pool.with_pool ~domains:2 (fun pool -> agree ~pool seed))

(* The properties must see violations, or they would only compare
   [None] with [None]. *)
let test_inputs_violate () =
  let violating = ref 0 in
  for seed = 0 to 59 do
    let r = seeded seed in
    let g = graph r in
    let mode = if Rng.bool r then Fault.VFT else Fault.EFT in
    let k = 1 + Rng.int r 3 and f = Rng.int r 3 in
    let sel = selection r ~mode ~k ~f g in
    if not (Verify.ok (Verify.exhaustive sel ~mode ~stretch:3.0 ~f:(min f 1)))
    then incr violating
  done;
  Alcotest.(check bool) "some selections violate" true (!violating > 5)

let () =
  Alcotest.run "verify model"
    [
      ( "pinned",
        [ Alcotest.test_case "inputs violate" `Quick test_inputs_violate ] );
      ( "bit identity",
        List.map QCheck_alcotest.to_alcotest [ prop_sequential; prop_pooled ] );
    ]
