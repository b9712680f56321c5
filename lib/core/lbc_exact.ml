type within = Hops of int | Weight of float

let m_witness = Obs.counter "lbc_exact.witness_searches"

let is_cut ~mode g ~u ~v ~t members =
  let blocked_vertices, blocked_edges = Fault.masks g { Fault.mode; members } in
  Option.is_none
    (Bfs.hop_bounded_path ?blocked_vertices ?blocked_edges g ~src:u ~dst:v
       ~max_hops:t)

let check ~u ~v ~within ~limit =
  if u = v then invalid_arg "Lbc_exact.min_cut: u = v";
  if limit < 0 || match within with Hops t -> t < 1 | Weight _ -> false then
    invalid_arg "Lbc_exact.min_cut: bad parameters"

(* The witness is a surviving u-v path within the budget with as few hops
   as possible (small branching factor).  On unit-weight graphs weight and
   hops coincide, so plain BFS is both exact and fast. *)
let witness g ~within ~blocked_v ~blocked_e ~u ~v =
  let bfs max_hops () =
    Bfs.hop_bounded_path ~blocked_vertices:blocked_v ~blocked_edges:blocked_e g
      ~src:u ~dst:v ~max_hops
  in
  match within with
  | Hops t -> bfs t
  | Weight b when Graph.is_unit_weighted g -> bfs (int_of_float (floor (b +. 1e-9)))
  | Weight budget ->
      fun () ->
        Hop_dp.min_hop_path ~blocked_vertices:blocked_v ~blocked_edges:blocked_e g
          ~src:u ~dst:v ~budget ~max_hops:(Graph.n g - 1)

let find_cut ~mode g ~u ~v ~within ~limit =
  check ~u ~v ~within ~limit;
  let blocked_v = Array.make (Graph.n g) false in
  let blocked_e = Array.make (max 1 (Graph.m g)) false in
  let witness = witness g ~within ~blocked_v ~blocked_e ~u ~v in
  (* Depth-first search: [chosen] is the current partial cut.  Any cut
     must hit every surviving witness, so branch over its members and stop
     at the first node where no witness survives. *)
  let rec search chosen depth =
    Obs.Counter.incr m_witness;
    match witness () with
    | None -> Some chosen
    | Some p when depth < limit ->
        let branch blocked x =
          blocked.(x) <- true;
          let hit = search (x :: chosen) (depth + 1) in
          blocked.(x) <- false;
          hit
        in
        (match mode with
        | Fault.VFT -> List.find_map (branch blocked_v) (Path.interior p)
        | Fault.EFT -> List.find_map (branch blocked_e) p.Path.edges)
    | Some _ -> None
  in
  Option.map (List.sort compare) (search [] 0)

let min_cut ~mode g ~u ~v ~t ~limit =
  let within = Hops t in
  check ~u ~v ~within ~limit;
  Seq.find_map
    (fun l -> find_cut ~mode g ~u ~v ~within ~limit:l)
    (Seq.init (limit + 1) Fun.id)
