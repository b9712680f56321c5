type hierarchy = {
  levels : int array;
  delta : float array array;
  pivots : int array array;
}

type state = { levels : int array; cluster_count : int }

let sample_hierarchy rng ~k ~n =
  if n < 1 then [||]
  else begin
    let p = if n <= 1 then 1.0 else float_of_int n ** (-1. /. float_of_int k) in
    let draw () =
      let levels = Array.make n 0 in
      for v = 0 to n - 1 do
        let rec climb i =
          if i <= k - 1 && Rng.bernoulli rng ~p then begin
            levels.(v) <- i;
            climb (i + 1)
          end
        in
        climb 1
      done;
      levels
    in
    (* Levels 1 .. k-1 are all nonempty iff some vertex reaches k-1. *)
    let populated levels = Array.exists (fun l -> l >= k - 1) levels in
    let rec attempt tries =
      let levels = draw () in
      if populated levels || tries <= 0 then levels else attempt (tries - 1)
    in
    let levels = attempt 50 in
    (* Last resort: promote one vertex to the highest still-empty levels so
       every A_i (i <= k-1) is nonempty; only size, not correctness, is
       affected. *)
    let top = ref 0 in
    Array.iteri (fun v l -> if l > levels.(!top) then top := v) levels;
    if levels.(!top) < k - 1 then levels.(!top) <- k - 1;
    levels
  end

(* d(A_i, v) for every v, and the A_i vertex realizing it (-1 if none):
   one seeded Dijkstra from A_i.  The sources are seeded in decreasing
   vertex order, which fixes the witness on equal distances.  A_0 = V
   needs no search: every vertex is its own witness at distance 0. *)
let level_distances g levels i =
  let n = Graph.n g in
  if i = 0 then (Array.make n 0., Array.init n Fun.id)
  else begin
    let witness = Array.make n (-1) in
    let sources = ref [] in
    Array.iteri
      (fun v l ->
        if l >= i then begin
          witness.(v) <- v;
          sources := (v, 0.) :: !sources
        end)
      levels;
    let dist =
      Dijkstra.seeded
        ~on_improve:(fun y x _ -> witness.(y) <- witness.(x))
        g !sources
    in
    (dist, witness)
  end

(* Truncated Dijkstra growing the cluster of [center]: only vertices with
   [d(center, v) < bound.(v)] are entered. *)
let cluster g ~center ~bound =
  let parent = Array.make (Graph.n g) (-1) in
  let entered = ref [] in
  let dist =
    Dijkstra.seeded
      ~admit:(fun y d -> d < bound.(y))
      ~on_improve:(fun y _ id ->
        if parent.(y) < 0 then entered := y :: !entered;
        parent.(y) <- id)
      g [ (center, 0.) ]
  in
  List.map (fun v -> (v, dist.(v), parent.(v))) (center :: !entered)

let clusters rng ~k g f =
  if k < 1 then invalid_arg "Thorup_zwick.clusters: k must be >= 1";
  let levels = sample_hierarchy rng ~k ~n:(Graph.n g) in
  let per_level = Array.init (k + 1) (level_distances g levels) in
  let delta = Array.map fst per_level in
  Array.iteri (fun w i -> f w (cluster g ~center:w ~bound:delta.(i + 1))) levels;
  { levels; delta; pivots = Array.map snd per_level }

let build_with_state rng ~k g =
  if k < 1 then invalid_arg "Thorup_zwick.build: k must be >= 1";
  let selected = Array.make (Graph.m g) false in
  let cluster_count = ref 0 in
  let h =
    clusters rng ~k g (fun _ members ->
        List.iter
          (fun (_, _, parent_edge) ->
            if parent_edge >= 0 then selected.(parent_edge) <- true)
          members;
        if List.length members > 1 then incr cluster_count)
  in
  ( Selection.of_mask g selected,
    { levels = h.levels; cluster_count = !cluster_count } )

let build rng ~k g = fst (build_with_state rng ~k g)
