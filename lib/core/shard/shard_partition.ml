type clustering = {
  center_of : int array;
  parent_of : int array;
  depth_of : int array;
}

type t = {
  partitions : clustering array;
  covered : bool array;
  beta : float;
  horizon : int;
  max_depth : int;
}

let coverage t =
  let m = Array.length t.covered in
  if m = 0 then 1.0
  else
    float_of_int (Array.fold_left (fun a c -> if c then a + 1 else a) 0 t.covered)
    /. float_of_int m

let members c =
  let n = Array.length c.center_of in
  let buckets = Array.make n [] in
  for v = n - 1 downto 0 do
    let ctr = c.center_of.(v) in
    buckets.(ctr) <- v :: buckets.(ctr)
  done;
  let acc = ref [] in
  for ctr = n - 1 downto 0 do
    match buckets.(ctr) with [] -> () | ms -> acc := (ctr, ms) :: !acc
  done;
  !acc

let default_partitions n =
  max 1 (int_of_float (ceil (2. *. log (float_of_int (max 2 n)) /. log 2.)))

(* Seeded Dijkstra over the hop metric with seed keys [-delta_v]: vertex
   [w] settles at key [-(delta_c - d(c, w))] for the centre [c]
   maximizing [delta_c - d(c, w)], and the improvement hook carries the
   centre, parent and depth along.  This is the fixed point the flooded
   offers of [Decomposition.run] converge to — each hop adds an exact
   [1.0] to the key, adoption is strict improvement in both, and a
   winning offer always travels fewer than [delta_c <= horizon] hops, so
   the simulation's round cap never truncates it. *)
let assign g delta =
  let n = Graph.n g in
  let center_of = Array.init n (fun v -> v) in
  let parent_of = Array.make n (-1) in
  let depth_of = Array.make n 0 in
  let adopt w v _ =
    center_of.(w) <- center_of.(v);
    parent_of.(w) <- v;
    depth_of.(w) <- depth_of.(v) + 1
  in
  ignore
    (Dijkstra.seeded ~length:(fun _ -> 1.0) ~on_improve:adopt g
       (List.init n (fun v -> (v, -.delta.(v)))));
  { center_of; parent_of; depth_of }

type shifts = { beta : float; delta : float array array; horizon : int }

let shifts rng ?(beta = 0.25) ?partitions g =
  if beta <= 0. || beta >= 1. then
    invalid_arg "Shard_partition.shifts: beta in (0,1)";
  let n = Graph.n g in
  let ell =
    match partitions with
    | Some p ->
        if p < 1 then invalid_arg "Shard_partition.shifts: partitions >= 1";
        p
    | None -> default_partitions n
  in
  let delta =
    Array.init ell (fun _ ->
        Array.init n (fun _ -> Rng.exponential rng ~rate:beta))
  in
  let max_delta =
    Array.fold_left (fun acc row -> Array.fold_left max acc row) 0. delta
  in
  { beta; delta; horizon = int_of_float (ceil max_delta) }

let assemble g sh partitions =
  let ell = Array.length partitions in
  let max_depth =
    Array.fold_left (fun acc c -> Array.fold_left max acc c.depth_of) 0 partitions
  in
  let covered = Array.make (Graph.m g) false in
  Graph.iter_edges g (fun e ->
      let rec scan p =
        p < ell
        && (partitions.(p).center_of.(e.Graph.u)
            = partitions.(p).center_of.(e.Graph.v)
           || scan (p + 1))
      in
      covered.(e.Graph.id) <- scan 0);
  { partitions; covered; beta = sh.beta; horizon = sh.horizon; max_depth }

let run rng ?beta ?partitions g =
  let sh = shifts rng ?beta ?partitions g in
  assemble g sh (Array.map (assign g) sh.delta)
