(* One message per round: for each partition that improved, the sender's
   current best offer (center, key).  Keys are [delta_center - hops]. *)
type offer = { partition : int; center : int; key : float }

let offer_bits _ = 3 * 64

let run rng ?beta ?partitions g =
  let sh = Shard_partition.shifts rng ?beta ?partitions g in
  let delta = sh.Shard_partition.delta in
  let ell = Array.length delta in
  let n = Graph.n g in
  let net = Net.create ~model:Net.Local ~bits:offer_bits g in
  (* Per-partition per-vertex best offer state. *)
  let best_center = Array.init ell (fun _p -> Array.init n (fun v -> v)) in
  let best_key = Array.init ell (fun p -> Array.init n (fun v -> delta.(p).(v))) in
  let parent = Array.init ell (fun _ -> Array.make n (-1)) in
  let depth = Array.init ell (fun _ -> Array.make n 0) in
  (* A vertex re-broadcasts an offer only when it improved in the previous
     round; initially everything is fresh. *)
  let fresh = Array.init ell (fun _ -> Array.make n true) in
  for _round = 1 to sh.Shard_partition.horizon do
    for p = 0 to ell - 1 do
      for v = 0 to n - 1 do
        if fresh.(p).(v) then
          Net.broadcast net ~src:v
            { partition = p; center = best_center.(p).(v); key = best_key.(p).(v) }
      done
    done;
    Array.iter (fun row -> Array.fill row 0 n false) fresh;
    Net.next_round net;
    for v = 0 to n - 1 do
      List.iter
        (fun (sender, o) ->
          let cand = o.key -. 1.0 in
          (* Strictly positive keys only: a vertex always beats a
             non-positive offer with its own shift. *)
          if cand > best_key.(o.partition).(v) then begin
            best_key.(o.partition).(v) <- cand;
            best_center.(o.partition).(v) <- o.center;
            parent.(o.partition).(v) <- sender;
            depth.(o.partition).(v) <- 0;  (* fixed after convergence *)
            fresh.(o.partition).(v) <- true
          end)
        (Net.inbox net v)
    done
  done;
  (* Depths from parent pointers (simulation-side bookkeeping only). *)
  for p = 0 to ell - 1 do
    let rec depth_of v =
      if parent.(p).(v) < 0 then 0
      else if depth.(p).(v) > 0 then depth.(p).(v)
      else begin
        let d = 1 + depth_of parent.(p).(v) in
        depth.(p).(v) <- d;
        d
      end
    in
    for v = 0 to n - 1 do
      ignore (depth_of v)
    done
  done;
  let partitions =
    Array.init ell (fun p ->
        {
          Shard_partition.center_of = best_center.(p);
          parent_of = parent.(p);
          depth_of = depth.(p);
        })
  in
  if Obs_trace.enabled () then
    Array.iteri
      (fun p c ->
        Obs_trace.emit
          (Obs_trace.Cluster_stats
             {
               partition = p;
               clusters = List.length (Shard_partition.members c);
               max_depth = Array.fold_left max 0 c.Shard_partition.depth_of;
             }))
      partitions;
  Shard_partition.assemble g sh partitions
