type t = {
  graph : Graph.t;
  to_parent_vertex : int array;
  to_parent_edge : int array;
}

(* Position of parent vertex [v] in the ascending [vertices], by
   bisection, so no parent-sized vertex map is ever allocated. *)
let rank vertices v =
  let lo = ref 0 and hi = ref (Array.length vertices - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if vertices.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !hi < 0 || vertices.(!lo) <> v then
    invalid_arg (Printf.sprintf "Subgraph.of_ids: endpoint %d not in vertices" v);
  !lo

let of_ids g ~vertices edges =
  let sub = Graph.create (Array.length vertices) in
  Array.iter
    (fun id ->
      let e = Graph.edge g id in
      let u = rank vertices e.Graph.u and v = rank vertices e.Graph.v in
      ignore (Graph.add_edge sub u v ~w:e.Graph.w))
    edges;
  { graph = sub; to_parent_vertex = vertices; to_parent_edge = edges }

(* The ids [x] with [wanted x], ascending, over [0, len): one counting
   pass sizes the array, a second fills it. *)
let ids_where len wanted =
  let count = ref 0 in
  for x = 0 to len - 1 do
    if wanted x then incr count
  done;
  let ids = Array.make !count 0 in
  let next = ref 0 in
  for x = 0 to len - 1 do
    if wanted x then begin
      ids.(!next) <- x;
      incr next
    end
  done;
  ids

let induced_mask g keep =
  let kept v = v < Array.length keep && keep.(v) in
  let vertices = ids_where (Graph.n g) kept in
  let edges =
    ids_where (Graph.m g) (fun id ->
        let e = Graph.edge g id in
        kept e.Graph.u && kept e.Graph.v)
  in
  of_ids g ~vertices edges

let of_edge_subset g keep =
  let edges = ids_where (Graph.m g) (fun id -> id < Array.length keep && keep.(id)) in
  of_ids g ~vertices:(Array.init (Graph.n g) Fun.id) edges
