type order = Engine.order =
  | By_weight
  | Input_order
  | Reverse_weight
  | Shuffled of Rng.t
  | Explicit of int array

type trace = { lbc_calls : int; bfs_rounds : int; yes_answers : int }

(* The trace is obs-backed: the greedy reads the [lbc.*] counters that
   Lbc.decide maintains, as a delta across the build.  Its own counters
   below add greedy-level series on top. *)
let c_lbc_calls = Obs.counter "lbc.calls"
let c_lbc_yes = Obs.counter "lbc.yes"
let c_lbc_bfs_rounds = Obs.counter "lbc.bfs_rounds"
let m_considered = Obs.counter "poly_greedy.edges_considered"
let m_added = Obs.counter "poly_greedy.edges_added"

(* The Algorithm 3 test: one LBC gap call per candidate, keeping it
   exactly on [Yes] with the cut as its certificate.  [cut] holds H-local
   ids (vertex ids coincide with the source graph's; EFT edge ids are H's
   at that moment). *)
let decider ~ws ~mode ~k ~f : Engine.decider =
  let t = (2 * k) - 1 in
  fun h edges decisions lo hi ->
    for i = lo to hi - 1 do
      let e = edges.(i) in
      match
        Lbc.decide ~ws ~edge:e.Graph.id ~mode h ~u:e.Graph.u ~v:e.Graph.v ~t
          ~alpha:f
      with
      | Lbc.Yes { cut } -> decisions.(i) <- Engine.Keep { cut }
      | Lbc.No _ -> ()
    done

let build_impl ?order ?batch ?pool ?on_add ~mode ~k ~f g =
  if k < 1 then invalid_arg "Poly_greedy.build: k must be >= 1";
  if f < 0 then invalid_arg "Poly_greedy.build: f must be >= 0";
  let calls0 = Obs.Counter.value c_lbc_calls in
  let yes0 = Obs.Counter.value c_lbc_yes in
  let rounds0 = Obs.Counter.value c_lbc_bfs_rounds in
  (* Each block's decisions fan out over the workers (the caller alone
     without a pool), each deciding with its own decider and workspace,
     created on its first chunk and reused across this build's blocks.
     Verdicts land by index, so the selection is bit-identical at every
     domain count. *)
  let deciders =
    Exec.Worker_local.create ?pool (fun _ ->
        decider ~ws:(Lbc.Workspace.create ()) ~mode ~k ~f)
  in
  let decide h edges decisions lo hi =
    Exec.parallel_for ?pool ~lo ~hi (fun ~worker l r ->
        (Exec.Worker_local.get deciders ~worker) h edges decisions l r)
  in
  let on_add e cut =
    Obs.Counter.incr m_added;
    match on_add with Some fn -> fn e cut | None -> ()
  in
  let res =
    Engine.run ?order ~caller:"Poly_greedy" ~span:"poly_greedy.build" ?batch
      ~on_add ~decide g
  in
  Obs.Counter.add m_considered (Graph.m g);
  ( res.Engine.selection,
    {
      lbc_calls = Obs.Counter.value c_lbc_calls - calls0;
      bfs_rounds = Obs.Counter.value c_lbc_bfs_rounds - rounds0;
      yes_answers = Obs.Counter.value c_lbc_yes - yes0;
    } )

let build_traced ?order ~mode ~k ~f g = build_impl ?order ~mode ~k ~f g

let build ?order ?batch ?pool ~mode ~k ~f g =
  fst (build_impl ?order ?batch ?pool ~mode ~k ~f g)

type certificate = { edge : Graph.edge; cut : int list }

let build_with_certificates ?order ~mode ~k ~f g =
  let certificates = ref [] in
  let on_add e cut = certificates := { edge = e; cut } :: !certificates in
  let sel, _ = build_impl ?order ~on_add ~mode ~k ~f g in
  (sel, List.rev !certificates)
