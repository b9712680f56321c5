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

let build ?rng ?(algorithm = Greedy_poly) ?(options = default_options) params g
    =
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0x5eed in
  let { k; f; mode } = params in
  let sharded engine =
    (Shard_build.build ~rng ~engine ?pool:options.pool ~mode ~k ~f g)
      .Shard_build.selection
  in
  match algorithm with
  | Greedy_poly when options.shard -> sharded Shard_build.Polynomial
  | Greedy_exponential when options.shard -> sharded Shard_build.Exponential
  | Greedy_poly ->
      Poly_greedy.build ?order:options.order ~batch:options.batch
        ?pool:options.pool ~mode ~k ~f g
  | Greedy_exponential -> Exp_greedy.build ~mode ~k ~f g
  | Dinitz_krauthgamer -> Dk11.build rng ~mode ~k ~f ?pool:options.pool g

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
