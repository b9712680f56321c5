type engine = Polynomial | Exponential

type t = {
  selection : Selection.t;
  partition : Shard_partition.t;
  clusters : int;
  boundary_edges : int;
}

type cluster = { partition : int; center : int; kept : int list }

let m_clusters = Obs.counter "shard.clusters"
let m_boundary = Obs.counter "shard.boundary_edges"
let h_cluster_wall = Obs.histogram_log "shard.cluster_wall"

(* One cluster work item: its partition and centre, the parent vertex
   set and the interior parent edge ids, both ascending, pre-extracted
   so workers never scan the full edge list. *)
type task = { part : int; ctr : int; verts : int array; edges : int array }

(* All cluster work items, partition by partition, clusters in centre
   order — a fixed sequence, so results indexed by task id are
   schedule-independent.  Extraction is one edge scan per partition
   (not per cluster). *)
let tasks_of g part =
  let n = Graph.n g in
  let task_of_center = Array.make n (-1) in
  let all = ref [] in
  Array.iteri
    (fun p c ->
      Array.fill task_of_center 0 n (-1);
      let groups =
        List.filter
          (fun (_, ms) -> match ms with _ :: _ :: _ -> true | _ -> false)
          (Shard_partition.members c)
      in
      List.iteri (fun i (ctr, _) -> task_of_center.(ctr) <- i) groups;
      let bufs = Array.make (max 1 (List.length groups)) [] in
      Graph.iter_edges g (fun e ->
          let cu = c.Shard_partition.center_of.(e.Graph.u) in
          if cu = c.Shard_partition.center_of.(e.Graph.v) then begin
            let i = task_of_center.(cu) in
            if i >= 0 then bufs.(i) <- e.Graph.id :: bufs.(i)
          end);
      List.iteri
        (fun i (ctr, ms) ->
          all :=
            {
              part = p;
              ctr;
              verts = Array.of_list ms;
              edges = Array.of_list (List.rev bufs.(i));
            }
            :: !all)
        groups)
    part.Shard_partition.partitions;
  Array.of_list (List.rev !all)

(* Build one cluster's induced subgraph and run the greedy over it,
   returning the kept parent edge ids (ascending). *)
let run_cluster ~engine ~mode ~k ~f ~ws g task =
  let t0 = Obs.now_s () in
  let sub = Subgraph.of_ids g ~vertices:task.verts task.edges in
  let sel =
    match engine with
    | Exponential -> Exp_greedy.build ~mode ~k ~f sub.Subgraph.graph
    | Polynomial ->
        (Engine.run ~caller:"Shard_build.build" ~trace:false
           ~decide:(Poly_greedy.decider ~ws ~mode ~k ~f)
           sub.Subgraph.graph)
          .Engine.selection
  in
  let kept = ref [] in
  for sid = Array.length task.edges - 1 downto 0 do
    if sel.Selection.selected.(sid) then kept := task.edges.(sid) :: !kept
  done;
  Obs.Histogram.observe h_cluster_wall (Obs.now_s () -. t0);
  !kept

let check caller ~k ~f =
  if k < 1 then invalid_arg (caller ^ ": k must be >= 1");
  if f < 0 then invalid_arg (caller ^ ": f must be >= 0")

let clusters ?(engine = Polynomial) ?pool ~mode ~k ~f g part =
  check "Shard_build.clusters" ~k ~f;
  let tasks = tasks_of g part in
  let results = Array.make (Array.length tasks) [] in
  let scratch = Exec.Worker_local.create ?pool (fun _ -> Lbc.Workspace.create ()) in
  Exec.parallel_for ~chunk:1 ?pool ~lo:0 ~hi:(Array.length tasks)
    (fun ~worker lo hi ->
      let ws = Exec.Worker_local.get scratch ~worker in
      for i = lo to hi - 1 do
        results.(i) <- run_cluster ~engine ~mode ~k ~f ~ws g tasks.(i)
      done);
  Array.mapi
    (fun i task -> { partition = task.part; center = task.ctr; kept = results.(i) })
    tasks

let build ?rng ?engine ?beta ?partitions ?pool ~mode ~k ~f g =
  check "Shard_build.build" ~k ~f;
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0x5eed in
  Obs.with_span "shard_build" @@ fun () ->
  let part = Shard_partition.run rng ?beta ?partitions g in
  let clusters = clusters ?engine ?pool ~mode ~k ~f g part in
  let union = Array.make (Graph.m g) false in
  Array.iter (fun c -> List.iter (fun id -> union.(id) <- true) c.kept) clusters;
  let boundary = ref 0 in
  Array.iteri
    (fun id covered ->
      if not covered then begin
        union.(id) <- true;
        incr boundary
      end)
    part.Shard_partition.covered;
  Obs.Counter.add m_clusters (Array.length clusters);
  Obs.Counter.add m_boundary !boundary;
  {
    selection = Selection.of_mask g union;
    partition = part;
    clusters = Array.length clusters;
    boundary_edges = !boundary;
  }
