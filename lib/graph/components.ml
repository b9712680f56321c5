(* One expansion per unlabelled vertex (a blocked one reaches nothing);
   its reached prefix is the component.  No path is [n] hops long. *)
let labels ?blocked_vertices ?blocked_edges g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let ws = Bfs.Workspace.create () in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let reached =
        Bfs.seeded ws ?blocked_vertices ?blocked_edges g [ s ] ~max_hops:n
      in
      for i = 0 to reached - 1 do
        label.(Bfs.Workspace.reached ws i) <- !next
      done;
      if reached > 0 then incr next
    end
  done;
  (label, !next)

let count g = snd (labels g)

let is_connected g = Graph.n g <= 1 || count g = 1
