type t = {
  graph : Graph.t;
  to_parent_vertex : int array;
  of_parent_vertex : int array;
  to_parent_edge : int array;
}

let induced_mask g keep =
  let n = Graph.n g in
  let of_parent = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if v < Array.length keep && keep.(v) then begin
      of_parent.(v) <- !count;
      incr count
    end
  done;
  let to_parent = Array.make !count 0 in
  for v = 0 to n - 1 do
    if of_parent.(v) >= 0 then to_parent.(of_parent.(v)) <- v
  done;
  (* Count surviving edges up front and fill the id map in place: sub
     edge ids are consecutive in insertion order, so the map slot of an
     edge is exactly the id [add_edge] hands back. *)
  let kept = ref 0 in
  Graph.iter_edges g (fun e ->
      if of_parent.(e.Graph.u) >= 0 && of_parent.(e.Graph.v) >= 0 then incr kept);
  let sub = Graph.create !count in
  let to_parent_edge = Array.make !kept (-1) in
  Graph.iter_edges g (fun e ->
      let su = of_parent.(e.Graph.u) and sv = of_parent.(e.Graph.v) in
      if su >= 0 && sv >= 0 then
        to_parent_edge.(Graph.add_edge sub su sv ~w:e.Graph.w) <- e.Graph.id);
  { graph = sub; to_parent_vertex = to_parent; of_parent_vertex = of_parent; to_parent_edge }

let induced g vertices =
  let keep = Array.make (Graph.n g) false in
  List.iter (fun v -> keep.(v) <- true) vertices;
  induced_mask g keep

let of_edge_subset g keep =
  let n = Graph.n g in
  let wanted e = e.Graph.id < Array.length keep && keep.(e.Graph.id) in
  let kept = ref 0 in
  Graph.iter_edges g (fun e -> if wanted e then incr kept);
  let sub = Graph.create n in
  let to_parent_edge = Array.make !kept (-1) in
  Graph.iter_edges g (fun e ->
      if wanted e then
        to_parent_edge.(Graph.add_edge sub e.Graph.u e.Graph.v ~w:e.Graph.w) <-
          e.Graph.id);
  {
    graph = sub;
    to_parent_vertex = Array.init n (fun i -> i);
    of_parent_vertex = Array.init n (fun i -> i);
    to_parent_edge;
  }
