type cluster_state = { center_of : int array; phases : int }

(* Per-vertex grouping of alive incident edges by the neighbor's cluster,
   using stamped scratch arrays so each phase costs O(m) total. *)
type scratch = {
  best_w : float array;  (* per center: lightest edge weight *)
  best_e : int array;  (* per center: lightest edge id *)
  first : int array;  (* per center: first neighbor met in it *)
  stamp_of : int array;  (* per center: stamp of last refresh *)
  kill : int array;  (* per center: stamp when marked for edge removal *)
  mutable stamp : int;
}

let scratch n =
  {
    best_w = Array.make n infinity;
    best_e = Array.make n (-1);
    first = Array.make n (-1);
    stamp_of = Array.make n 0;
    kill = Array.make n 0;
    stamp = 0;
  }

let scan sc g ~alive ~cluster_of ~own ~on_own v =
  sc.stamp <- sc.stamp + 1;
  let adjacent = ref [] in
  Graph.iter_neighbors g v (fun y id ->
      if alive.(id) then begin
        let oc = cluster_of.(y) in
        if oc < 0 then ()
        else if oc = own then on_own y id
        else begin
          if sc.stamp_of.(oc) <> sc.stamp then begin
            sc.stamp_of.(oc) <- sc.stamp;
            sc.best_w.(oc) <- infinity;
            sc.best_e.(oc) <- -1;
            sc.first.(oc) <- y;
            adjacent := oc :: !adjacent
          end;
          let w = Graph.weight g id in
          if w < sc.best_w.(oc) then begin
            sc.best_w.(oc) <- w;
            sc.best_e.(oc) <- id
          end
        end
      end);
  !adjacent

let lightest_edge sc c = sc.best_e.(c)
let first_neighbor sc c = sc.first.(c)

let join sc adjacent ~sampled ~keep =
  let hook = ref (-1) and hook_w = ref infinity in
  List.iter
    (fun c ->
      if sampled c && sc.best_w.(c) < !hook_w then begin
        hook_w := sc.best_w.(c);
        hook := c
      end)
    adjacent;
  List.iter (fun c -> if !hook < 0 || sc.best_w.(c) < !hook_w then keep c) adjacent;
  !hook

let build_with_state rng ~k g =
  if k < 1 then invalid_arg "Baswana_sen.build: k must be >= 1";
  let n = Graph.n g in
  let m = Graph.m g in
  let selected = Array.make m false in
  let alive = Array.make m true in
  let center = Array.init n (fun v -> v) in
  let p = if n <= 1 then 1.0 else float_of_int n ** (-1. /. float_of_int k) in
  let sc = scratch n in
  (* Keep the lightest edge to cluster [c] and mark [c]'s edges for
     removal; intra-cluster edges die on sight, their detour being the
     cluster tree. *)
  let keep c =
    selected.(sc.best_e.(c)) <- true;
    sc.kill.(c) <- sc.stamp
  in
  let on_own _ id = alive.(id) <- false in
  (* Kill every alive edge of [v] leading to a cluster marked in
     [sc.kill] at the current stamp. *)
  let apply_kills old v =
    Graph.iter_neighbors g v (fun y id ->
        if alive.(id) then begin
          let oc = old.(y) in
          if oc >= 0 && sc.kill.(oc) = sc.stamp then alive.(id) <- false
        end)
  in
  (* Phase 1: k-1 rounds of cluster sampling. *)
  for _phase = 1 to k - 1 do
    let sampled = Array.make n false in
    let is_center = Array.make n false in
    for v = 0 to n - 1 do
      if center.(v) >= 0 then is_center.(center.(v)) <- true
    done;
    for c = 0 to n - 1 do
      if is_center.(c) then sampled.(c) <- Rng.bernoulli rng ~p
    done;
    let old = Array.copy center and is_sampled = Array.get sampled in
    for v = 0 to n - 1 do
      if old.(v) >= 0 && not sampled.(old.(v)) then begin
        let adjacent = scan sc g ~alive ~cluster_of:old ~own:old.(v) ~on_own v in
        (* Hook onto the lightest sampled cluster, or retire from the
           clustering when none is adjacent. *)
        let hook = join sc adjacent ~sampled:is_sampled ~keep in
        if hook >= 0 then keep hook;
        apply_kills old v;
        center.(v) <- hook
      end
    done
  done;
  (* Phase 2: lightest edge to every remaining adjacent cluster. *)
  let old = Array.copy center in
  for v = 0 to n - 1 do
    List.iter keep (scan sc g ~alive ~cluster_of:old ~own:old.(v) ~on_own v);
    apply_kills old v
  done;
  (Selection.of_mask g selected, { center_of = center; phases = k - 1 })

let build rng ~k g = fst (build_with_state rng ~k g)
