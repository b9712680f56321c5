type algorithm =
  | Greedy_poly
  | Greedy_exponential
  | Dinitz_krauthgamer

let algorithm_name = function
  | Greedy_poly -> "greedy-poly"
  | Greedy_exponential -> "greedy-exp"
  | Dinitz_krauthgamer -> "dk11"

let all_algorithms = [ Greedy_poly; Greedy_exponential; Dinitz_krauthgamer ]

type params = { k : int; f : int; mode : Fault.mode }

let stretch p = float_of_int ((2 * p.k) - 1)

type options = {
  order : Engine.order option;
  batch : int;
  pool : Exec.Pool.t option;
  shard : bool;
}

let default_options = { order = None; batch = 1; pool = None; shard = false }

let options ?order ?(batch = 1) ?pool ?(shard = false) () =
  if batch < 1 then invalid_arg "Spanner.options: batch must be >= 1";
  { order; batch; pool; shard }

let build_sharded rng ~options ~algorithm params g =
  match algorithm with
  | Greedy_poly | Greedy_exponential ->
      let engine =
        match algorithm with
        | Greedy_exponential -> Shard_build.Exponential
        | _ -> Shard_build.Polynomial
      in
      (Shard_build.build ~rng ~engine ?pool:options.pool ~mode:params.mode
         ~k:params.k ~f:params.f g)
        .Shard_build.selection
  | Dinitz_krauthgamer -> (
      (* Always the pooled (pre-split stream) path, so the selection is
         the same whether --jobs handed us a pool or not. *)
      let run pool =
        Dk11.build rng ~mode:params.mode ~k:params.k ~f:params.f ~pool g
      in
      match options.pool with
      | Some pool -> run pool
      | None -> Exec.Pool.with_pool ~domains:1 run)

let build ?rng ?(algorithm = Greedy_poly) ?(options = default_options) params g
    =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0x5eed in
  if options.shard then build_sharded rng ~options ~algorithm params g
  else
    match algorithm with
    | Greedy_poly ->
        if options.batch = 1 && options.pool = None then
          (* The exact historical path (and its poly_greedy.* telemetry):
             default options change nothing. *)
          Poly_greedy.build ?order:options.order ~mode:params.mode ~k:params.k
            ~f:params.f g
        else
          (Batch_greedy.build ?order:options.order ?pool:options.pool
             ~mode:params.mode ~k:params.k ~f:params.f ~batch:options.batch g)
            .Batch_greedy.selection
    | Greedy_exponential ->
        Exp_greedy.build ~mode:params.mode ~k:params.k ~f:params.f g
    | Dinitz_krauthgamer ->
        Dk11.build rng ~mode:params.mode ~k:params.k ~f:params.f g

type summary = {
  algorithm : string;
  params : params;
  n : int;
  m_source : int;
  m_spanner : int;
  weight_source : float;
  weight_spanner : float;
  bound_ratio : float;
}

let size_bound algorithm ~k ~f ~n =
  match algorithm with
  | Greedy_poly -> Bounds.poly_greedy_size ~k ~f ~n
  | Greedy_exponential -> Bounds.optimal_size ~k ~f ~n
  | Dinitz_krauthgamer -> Bounds.dk11_size ~k ~f ~n

let summarize ~algorithm params sel =
  let g = sel.Selection.source in
  let n = Graph.n g in
  {
    algorithm = algorithm_name algorithm;
    params;
    n;
    m_source = Graph.m g;
    m_spanner = sel.Selection.size;
    weight_source = Graph.total_weight g;
    weight_spanner = Selection.weight sel;
    bound_ratio =
      float_of_int sel.Selection.size
      /. size_bound algorithm ~k:params.k ~f:params.f ~n;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "%-11s k=%d f=%d %s n=%d: %d/%d edges (%.1f%%), weight %.1f/%.1f, bound ratio %.4f"
    s.algorithm s.params.k s.params.f
    (match s.params.mode with Fault.VFT -> "VFT" | Fault.EFT -> "EFT")
    s.n s.m_spanner s.m_source
    (100. *. float_of_int s.m_spanner /. float_of_int (max 1 s.m_source))
    s.weight_spanner s.weight_source s.bound_ratio
