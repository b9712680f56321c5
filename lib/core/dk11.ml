type algo = Rng.t -> Graph.t -> Selection.t

let iterations ?(c = 1.0) ~f ~n () =
  if not (Float.is_finite c && c > 0.) then
    invalid_arg (Printf.sprintf "Dk11.iterations: c must be finite and > 0 (got %g)" c);
  if f <= 0 then 1
  else begin
    (* A fixed pair (edge, fault set) is "hit" by an iteration with
       probability p^2 (1-p)^f >= 1/(e (f+1)^2), so the union bound over
       the O(n^{f+2}) pairs needs J ~ e (f+1)^2 * (f+2) ln n; we expose the
       leading constant as [c] and keep the (f+1)^3 ln n shape. *)
    let ff = float_of_int (f + 1) in
    let j = c *. exp 1.0 *. (ff ** 3.) *. log (float_of_int (max 2 n)) in
    max 1 (int_of_float (ceil j))
  end

(* One reduction iteration: sample the participating subgraph from [rng],
   run [algo] on it, OR the kept edges (as parent ids) into [union]. *)
let iterate rng ~mode ~p ~algo g union =
  let n = Graph.n g in
  let sub =
    match mode with
    | Fault.VFT ->
        let keep = Array.init n (fun _ -> Rng.bernoulli rng ~p) in
        Subgraph.induced_mask g keep
    | Fault.EFT ->
        let keep = Array.init (Graph.m g) (fun _ -> Rng.bernoulli rng ~p) in
        Subgraph.of_edge_subset g keep
  in
  let sel = algo rng sub.Subgraph.graph in
  Array.iteri
    (fun sid chosen ->
      if chosen then union.(sub.Subgraph.to_parent_edge.(sid)) <- true)
    sel.Selection.selected

let build rng ~mode ~k ~f ?(c = 1.0) ?algo ?pool g =
  if k < 1 then invalid_arg "Dk11.build: k must be >= 1";
  if f < 0 then invalid_arg "Dk11.build: f must be >= 0";
  let algo = match algo with Some a -> a | None -> fun rng g -> Baswana_sen.build rng ~k g in
  let n = Graph.n g in
  let j = iterations ~c ~f ~n () in
  if f = 0 then algo rng g
  else begin
    let p = 1. /. float_of_int (f + 1) in
    (* Iterations are independent, so each gets a stream pre-split from
       [rng] (sequentially, before the fan-out) and a worker ORs into its
       own mask.  The union of masks is the same edge set whichever
       worker ran which iteration, so the selection is bit-identical at
       every pool size, and without a pool. *)
    let streams = Array.init j (fun _ -> Rng.split rng) in
    let masks =
      Exec.Worker_local.create ?pool (fun _ -> Array.make (Graph.m g) false)
    in
    Exec.parallel_for ~chunk:1 ?pool ~lo:0 ~hi:j (fun ~worker lo hi ->
        let mask = Exec.Worker_local.get masks ~worker in
        for iter = lo to hi - 1 do
          iterate streams.(iter) ~mode ~p ~algo g mask
        done);
    let union = Array.make (Graph.m g) false in
    Exec.Worker_local.iter masks
      (Array.iteri (fun id b -> if b then union.(id) <- true));
    Selection.of_mask g union
  end
