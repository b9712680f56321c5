(* BFS from [src], truncated at depth [limit].  An edge {x,y} with [x]
   expanded is a non-tree edge iff its id is neither [x]'s nor [y]'s
   parent edge, and then closes a cycle of length at most
   [depth x + depth y + 1] (maybe not through [src], but then a shorter
   one is found from another source): the minimum over all sources is
   the exact girth, in O(nm).  As [depth y >= depth x - 1], the pass
   stops at the first [x] that cannot beat the best cycle so far. *)
let shortest_cycle_through ws g src ~limit =
  let module W = Bfs.Workspace in
  let reached = Bfs.seeded ws g [ src ] ~max_hops:limit in
  let adj = Graph.adjacency g in
  let best = ref max_int and dx = ref 0 and px = ref (-1) in
  let check y id =
    if id <> !px && id <> W.parent_edge ws y then begin
      let len = !dx + W.depth ws y + 1 in
      if len < !best then best := len
    end
  in
  let rec pass i =
    if i < reached then begin
      let x = W.reached ws i in
      dx := W.depth ws x;
      if !dx < limit && 2 * !dx < !best then begin
        px := W.parent_edge ws x;
        Csr.iter adj x check;
        pass (i + 1)
      end
    end
  in
  pass 0;
  !best

(* A forest (exactly n - c edges for c components) skips the n
   unbounded searches. *)
let girth g =
  if Graph.m g = Graph.n g - Components.count g then None
  else begin
    let ws = Bfs.Workspace.create () in
    let best = ref max_int in
    for src = 0 to Graph.n g - 1 do
      let limit = if !best = max_int then Graph.n g else (!best / 2) + 1 in
      let c = shortest_cycle_through ws g src ~limit in
      if c < !best then best := c
    done;
    Some !best
  end

let girth_exceeds g ~bound =
  let ws = Bfs.Workspace.create () in
  let limit = (bound / 2) + 1 in
  let rec loop src =
    if src >= Graph.n g then true
    else if shortest_cycle_through ws g src ~limit <= bound then false
    else loop (src + 1)
  in
  loop 0
