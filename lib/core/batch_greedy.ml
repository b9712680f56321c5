type result = { selection : Selection.t; batches : int; max_batch : int }

(* [decide_range ~ws] judges edges.(lo..hi-1) against the frozen spanner
   [h], writing verdicts into [verdicts]; [h] is not mutated, so
   concurrent calls on disjoint ranges are race-free.  The workspace is
   the caller's: sequential builds reuse one across every batch, parallel
   builds pass each worker its own per-build workspace — either way the
   steady-state decide path allocates nothing. *)
let decide_range ~ws ~mode ~t ~f h edges verdicts lo hi =
  for i = lo to hi - 1 do
    let e = edges.(i) in
    match
      Lbc.decide ~ws ~edge:e.Graph.id ~mode h ~u:e.Graph.u ~v:e.Graph.v ~t ~alpha:f
    with
    | Lbc.Yes _ -> verdicts.(i) <- true
    | Lbc.No _ -> ()
  done

let m_batches = Obs.counter "batch_greedy.batches"
let m_committed = Obs.counter "batch_greedy.edges_committed"

let build_impl ?order ~decide ~mode:_ ~k ~f:_ ~batch g =
  if batch < 1 then invalid_arg "Batch_greedy.build: batch must be >= 1";
  if k < 1 then invalid_arg "Batch_greedy.build: k must be >= 1";
  (* Adapter from the bool-verdict range deciders (kept as the unit the
     parallel build fans out over domains) to Engine decisions. *)
  let verdicts = Array.make (max 1 (Graph.m g)) false in
  let decide h edges decisions lo hi =
    Array.fill verdicts lo (hi - lo) false;
    decide h edges verdicts lo hi;
    for i = lo to hi - 1 do
      if verdicts.(i) then decisions.(i) <- Engine.Keep { cut = [] }
    done
  in
  let on_batch idx =
    Obs.Counter.incr m_batches;
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_trace.Phase { name = "batch_greedy.batch"; index = idx })
  in
  let on_add _ _ = Obs.Counter.incr m_committed in
  let res =
    Engine.run ?order ~caller:"Batch_greedy.build" ~span:"batch_greedy.build"
      ~batch ~on_batch ~on_add ~decide g
  in
  {
    selection = res.Engine.selection;
    batches = res.Engine.batches;
    max_batch = res.Engine.max_batch;
  }

let build ?order ?pool ~mode ~k ~f ~batch g =
  if f < 0 then invalid_arg "Batch_greedy.build: f must be >= 0";
  let t = (2 * k) - 1 in
  let decide =
    match pool with
    | None ->
        (* Sequential: one workspace reused across every batch. *)
        let ws = Lbc.Workspace.create () in
        fun h edges verdicts lo hi ->
          decide_range ~ws ~mode ~t ~f h edges verdicts lo hi
    | Some pool ->
        (* Parallel: the decision phase of each batch fans out over the
           pool with dynamic chunking, each worker deciding with its own
           workspace, created on its first chunk and reused across this
           build's batches.  Verdicts land by index, so the selection is
           bit-identical to the sequential build whatever the domain
           count or steal order. *)
        let workspaces =
          Exec.Worker_local.create pool (fun _ -> Lbc.Workspace.create ())
        in
        fun h edges verdicts lo hi ->
          Exec.parallel_for pool ~lo ~hi (fun ~worker l r ->
              decide_range
                ~ws:(Exec.Worker_local.get workspaces ~worker)
                ~mode ~t ~f h edges verdicts l r)
  in
  build_impl ?order ~decide ~mode ~k ~f ~batch g
