let vertex_blocked mask x =
  match mask with
  | None -> false
  | Some a -> x < Array.length a && a.(x)

let labels ?blocked_vertices ?blocked_edges g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let queue = Array.make n 0 in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 && not (vertex_blocked blocked_vertices s) then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = queue.(!head) in
        incr head;
        let visit y id =
          let edge_ok =
            match blocked_edges with
            | None -> true
            | Some a -> not (id < Array.length a && a.(id))
          in
          if label.(y) < 0 && edge_ok && not (vertex_blocked blocked_vertices y)
          then begin
            label.(y) <- c;
            queue.(!tail) <- y;
            incr tail
          end
        in
        Graph.iter_neighbors g x visit
      done
    end
  done;
  (label, !next)

let count g = snd (labels g)

let is_connected g = Graph.n g <= 1 || count g = 1
