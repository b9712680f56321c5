let is_cut ~mode g ~u ~v ~t members =
  let blocked_vertices, blocked_edges = Fault.masks g { Fault.mode; members } in
  Option.is_none
    (Bfs.hop_bounded_path ?blocked_vertices ?blocked_edges g ~src:u ~dst:v
       ~max_hops:t)

let min_cut ~mode g ~u ~v ~t ~limit =
  if u = v then invalid_arg "Lbc_exact.min_cut: u = v";
  if t < 1 || limit < 0 then invalid_arg "Lbc_exact.min_cut: bad parameters";
  let blocked_v = Array.make (Graph.n g) false in
  let blocked_e = Array.make (max 1 (Graph.m g)) false in
  let best : int list option ref = ref None in
  let best_size = ref (limit + 1) in
  (* Depth-first search: [chosen] is the current partial cut.  Branch over
     the members of a minimum-hop surviving path; prune when even one more
     deletion would not beat the best cut found. *)
  let rec search chosen depth =
    if depth < !best_size then
      match
        Bfs.hop_bounded_path ~blocked_vertices:blocked_v ~blocked_edges:blocked_e
          g ~src:u ~dst:v ~max_hops:t
      with
      | None ->
          best := Some chosen;
          best_size := depth
      | Some p ->
          if depth + 1 <= limit then begin
            let branch_vertex x =
              blocked_v.(x) <- true;
              search (x :: chosen) (depth + 1);
              blocked_v.(x) <- false
            in
            let branch_edge id =
              blocked_e.(id) <- true;
              search (id :: chosen) (depth + 1);
              blocked_e.(id) <- false
            in
            match mode with
            | Fault.VFT -> List.iter branch_vertex (Path.interior p)
            | Fault.EFT -> List.iter branch_edge p.Path.edges
          end
  in
  search [] 0;
  Option.map (List.sort compare) !best
