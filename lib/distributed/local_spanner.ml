type result = {
  selection : Selection.t;
  decomposition : Shard_partition.t;
  announce_rounds : int;
  gather_rounds : int;
  scatter_rounds : int;
  total_rounds : int;
  stats : Net.stats;
}

(* Gather/scatter payload: per partition, a bag of parent-graph edge ids. *)
type payload = { partition : int; edge_ids : int list }

let payload_bits p = 64 * (2 + List.length p.edge_ids)

let build rng ?engine ?beta ?partitions ?chaos ~mode ~k ~f g =
  Obs.with_span "local_spanner.build" @@ fun () ->
  let decomposition = Decomposition.run rng ?beta ?partitions g in
  let parts = decomposition.Shard_partition.partitions in
  let ell = Array.length parts in
  let n = Graph.n g in
  let depth = decomposition.Shard_partition.max_depth in
  let net = Reliable.create ?chaos ~model:Net.Local ~bits:payload_bits g in

  (* Round 0: neighbors exchange cluster ids (all partitions at once; the
     vector fits in one LOCAL message).  We charge one round; the cluster
     comparison below then uses global knowledge, which is exactly what the
     exchanged vectors provide. *)
  for v = 0 to n - 1 do
    Reliable.broadcast net ~src:v { partition = -1; edge_ids = [] }
  done;
  Reliable.next_round net;

  (* Convergecast: each vertex starts with its same-cluster incident edges
     (deduplicated by the smaller endpoint) and pushes accumulated ids to
     its parent, deepest layer first. *)
  let gathered = Array.init ell (fun _ -> Array.make n []) in
  for p = 0 to ell - 1 do
    let c = parts.(p) in
    Graph.iter_edges g (fun e ->
        let center = c.Shard_partition.center_of in
        if center.(e.Graph.u) = center.(e.Graph.v) then gathered.(p).(e.Graph.u) <- e.Graph.id :: gathered.(p).(e.Graph.u))
  done;
  for step = depth downto 1 do
    for p = 0 to ell - 1 do
      let c = parts.(p) in
      for v = 0 to n - 1 do
        if c.Shard_partition.depth_of.(v) = step then begin
          let parent = c.Shard_partition.parent_of.(v) in
          if parent >= 0 && gathered.(p).(v) <> [] then begin
            Reliable.send net ~src:v ~dst:parent
              { partition = p; edge_ids = gathered.(p).(v) };
            gathered.(p).(v) <- []
          end
        end
      done
    done;
    Reliable.next_round net;
    for v = 0 to n - 1 do
      List.iter
        (fun (_, pay) ->
          if pay.partition >= 0 then
            gathered.(pay.partition).(v) <- pay.edge_ids @ gathered.(pay.partition).(v))
        (Reliable.inbox net v)
    done
  done;

  (* Cluster centers run the centralized greedy on their gathered induced
     subgraph: Shard_build's cluster stage over the flooded decomposition. *)
  let per_cluster_selection = Array.init ell (fun _ -> Array.make n []) in
  let union = Array.make (Graph.m g) false in
  Array.iter
    (fun (c : Shard_build.cluster) ->
      per_cluster_selection.(c.Shard_build.partition).(c.Shard_build.center) <-
        c.Shard_build.kept;
      List.iter (fun id -> union.(id) <- true) c.Shard_build.kept)
    (Shard_build.clusters ?engine ~mode ~k ~f g decomposition);

  (* Scatter: flood each cluster's selection down its tree so every member
     learns the incident decisions (rounds and traffic are what matter for
     the simulation; the union above is the global result). *)
  let knows = Array.init ell (fun p -> Array.map (fun l -> l <> []) per_cluster_selection.(p)) in
  let pending = per_cluster_selection in
  for _step = 0 to depth - 1 do
    for p = 0 to ell - 1 do
      for v = 0 to n - 1 do
        if knows.(p).(v) && pending.(p).(v) <> [] then begin
          Reliable.broadcast net ~src:v { partition = p; edge_ids = pending.(p).(v) }
        end
      done
    done;
    (* mark forwarded *)
    for p = 0 to ell - 1 do
      for v = 0 to n - 1 do
        if knows.(p).(v) then pending.(p).(v) <- []
      done
    done;
    Reliable.next_round net;
    for v = 0 to n - 1 do
      List.iter
        (fun (sender, pay) ->
          if pay.partition >= 0 then begin
            let c = parts.(pay.partition) in
            if
              c.Shard_partition.parent_of.(v) = sender
              && not knows.(pay.partition).(v)
            then begin
              knows.(pay.partition).(v) <- true;
              pending.(pay.partition).(v) <- pay.edge_ids
            end
          end)
        (Reliable.inbox net v)
    done
  done;

  let stats = Reliable.stats net in
  {
    selection = Selection.of_mask g union;
    decomposition;
    announce_rounds = 1;
    gather_rounds = depth;
    scatter_rounds = depth;
    total_rounds = decomposition.Shard_partition.horizon + 1 + depth + depth;
    stats;
  }
