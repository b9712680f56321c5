let m_decisions = Obs.counter "exp_greedy.decisions"

(* The literal decision of BDPW18/BP19: try all fault sets.  The fault set
   never usefully contains u or v (VFT faults on terminals exempt the pair
   from the spanner condition), so terminals are skipped. *)
let exists_fault_set_naive ~mode h ~u ~v ~budget ~f =
  let n = Graph.n h and m = Graph.m h in
  let blocked_v = Array.make n false in
  let blocked_e = Array.make (max 1 m) false in
  let universe = match mode with Fault.VFT -> n | Fault.EFT -> m in
  let blocked = match mode with Fault.VFT -> blocked_v | Fault.EFT -> blocked_e in
  let skip x = match mode with Fault.VFT -> x = u || x = v | Fault.EFT -> false in
  let cut_found () =
    Option.is_none
      (Dijkstra.distance_upto ~blocked_vertices:blocked_v ~blocked_edges:blocked_e
         h ~src:u ~dst:v ~cutoff:budget)
  in
  let rec enumerate count start =
    cut_found ()
    || (count < f
       &&
       let rec scan x =
         x < universe
         && ((not (skip x))
             && begin
                  blocked.(x) <- true;
                  let hit = enumerate (count + 1) (x + 1) in
                  blocked.(x) <- false;
                  hit
                end
            || scan (x + 1))
       in
       scan start)
  in
  enumerate 0 0

let build_greedy ~decide ~mode ~k ~f g =
  if k < 1 then invalid_arg "Exp_greedy.build: k must be >= 1";
  if f < 0 then invalid_arg "Exp_greedy.build: f must be >= 0";
  let stretch = float_of_int ((2 * k) - 1) in
  let oracle h edges decisions lo hi =
    for i = lo to hi - 1 do
      let e = edges.(i) in
      Obs.Counter.incr m_decisions;
      let budget = stretch *. e.Graph.w in
      if decide ~mode h ~u:e.Graph.u ~v:e.Graph.v ~budget ~f then
        decisions.(i) <- Engine.Keep { cut = [] }
    done
  in
  let res =
    Engine.run ~caller:"Exp_greedy" ~span:"exp_greedy.build" ~decide:oracle g
  in
  res.Engine.selection

let build ~mode ~k ~f g =
  let decide ~mode h ~u ~v ~budget ~f =
    Option.is_some
      (Lbc_exact.find_cut ~mode h ~u ~v ~within:(Weight budget) ~limit:f)
  in
  build_greedy ~decide ~mode ~k ~f g

let build_naive ~mode ~k ~f g =
  build_greedy ~decide:exists_fault_set_naive ~mode ~k ~f g
