type order =
  | By_weight
  | Input_order
  | Reverse_weight
  | Shuffled of Rng.t
  | Explicit of int array

type decision = Keep of { cut : int list } | Skip

type decider = Graph.t -> Graph.edge array -> decision array -> int -> int -> unit

type result = { selection : Selection.t }

let ordered_edges ?(caller = "Engine") order g =
  let edges = Graph.edge_array g in
  (match order with
  | By_weight -> Array.sort (fun a b -> compare a.Graph.w b.Graph.w) edges
  | Input_order -> ()
  | Reverse_weight -> Array.sort (fun a b -> compare b.Graph.w a.Graph.w) edges
  | Shuffled rng -> Rng.shuffle rng edges
  | Explicit perm ->
      if Array.length perm <> Graph.m g then
        invalid_arg (caller ^ ": explicit order must be a permutation of edge ids");
      let seen = Array.make (Graph.m g) false in
      Array.iter
        (fun id ->
          if id < 0 || id >= Graph.m g || seen.(id) then
            invalid_arg
              (caller ^ ": explicit order must be a permutation of edge ids");
          seen.(id) <- true)
        perm;
      Array.iteri (fun i id -> edges.(i) <- Graph.edge g id) perm);
  edges

let run ?(order = By_weight) ?(caller = "Engine") ?span ?(batch = 1) ?on_add
    ?(trace = true) ~decide g =
  if batch < 1 then invalid_arg (caller ^ ": batch must be >= 1");
  let body () =
    let edges = ordered_edges ~caller order g in
    let m = Array.length edges in
    let h = Graph.create (Graph.n g) in
    let selected = Array.make (Graph.m g) false in
    let decisions = Array.make (max 1 m) Skip in
    let pos = ref 0 in
    while !pos < m do
      let hi = min m (!pos + batch) in
      (* Decision phase: the block is judged against the same frozen H. *)
      decide h edges decisions !pos hi;
      (* Commit phase.  Each slot goes back to [Skip] as it is read, so a
         verdict and its cut die young instead of being promoted with the
         array, and the next block starts pre-filled. *)
      let tracing = trace && Obs_trace.enabled () in
      for i = !pos to hi - 1 do
        let e = edges.(i) in
        let d = decisions.(i) in
        decisions.(i) <- Skip;
        match d with
        | Keep { cut } ->
            if tracing then
              Obs_trace.emit
                (Obs_trace.Greedy_edge
                   { edge = e.Graph.id; kept = true; weight = e.Graph.w });
            (match on_add with Some fn -> fn e cut | None -> ());
            ignore (Graph.add_edge h e.Graph.u e.Graph.v ~w:e.Graph.w);
            selected.(e.Graph.id) <- true
        | Skip ->
            if tracing then
              Obs_trace.emit
                (Obs_trace.Greedy_edge
                   { edge = e.Graph.id; kept = false; weight = e.Graph.w })
      done;
      pos := hi
    done;
    { selection = Selection.of_mask g selected }
  in
  match span with Some name -> Obs.with_span name body | None -> body ()
