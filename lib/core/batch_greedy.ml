type result = Engine.result = {
  selection : Selection.t;
  batches : int;
  max_batch : int;
}

let m_batches = Obs.counter "batch_greedy.batches"
let m_committed = Obs.counter "batch_greedy.edges_committed"

let build ?order ?pool ~mode ~k ~f ~batch g =
  if f < 0 then invalid_arg "Batch_greedy.build: f must be >= 0";
  if batch < 1 then invalid_arg "Batch_greedy.build: batch must be >= 1";
  if k < 1 then invalid_arg "Batch_greedy.build: k must be >= 1";
  let decide =
    match pool with
    | None ->
        (* Sequential: one workspace reused across every batch. *)
        Poly_greedy.decider ~ws:(Lbc.Workspace.create ()) ~mode ~k ~f
    | Some pool ->
        (* Parallel: the decision phase of each batch fans out over the
           pool with dynamic chunking, each worker deciding with its own
           decider and workspace, created on its first chunk and reused
           across this build's batches.  Verdicts land by index, so the
           selection is bit-identical to the sequential build whatever
           the domain count or steal order. *)
        let deciders =
          Exec.Worker_local.create pool (fun _ ->
              Poly_greedy.decider ~ws:(Lbc.Workspace.create ()) ~mode ~k ~f)
        in
        fun h edges decisions lo hi ->
          Exec.parallel_for pool ~lo ~hi (fun ~worker l r ->
              (Exec.Worker_local.get deciders ~worker) h edges decisions l r)
  in
  let on_batch idx =
    Obs.Counter.incr m_batches;
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_trace.Phase { name = "batch_greedy.batch"; index = idx })
  in
  let on_add _ _ = Obs.Counter.incr m_committed in
  Engine.run ?order ~caller:"Batch_greedy.build" ~span:"batch_greedy.build"
    ~batch ~on_batch ~on_add ~decide g
