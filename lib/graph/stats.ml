type t = {
  n : int;
  m : int;
  min_degree : int;
  max_degree : int;
  avg_degree : float;
  density : float;
  total_weight : float;
  components : int;
}

let compute g =
  let n = Graph.n g and m = Graph.m g in
  let min_d = ref max_int and max_d = ref 0 in
  for v = 0 to n - 1 do
    let d = Graph.degree g v in
    if d < !min_d then min_d := d;
    if d > !max_d then max_d := d
  done;
  let pairs = float_of_int n *. float_of_int (n - 1) /. 2. in
  {
    n;
    m;
    min_degree = (if n = 0 then 0 else !min_d);
    max_degree = !max_d;
    avg_degree = (if n = 0 then 0. else 2. *. float_of_int m /. float_of_int n);
    density = (if n < 2 then 0. else float_of_int m /. pairs);
    total_weight = Graph.total_weight g;
    components = Components.count g;
  }

(* A ball to depth n reaches and counts [v]'s whole component. *)
let diameter g =
  let n = Graph.n g and ws = Bfs.Workspace.create () and best = ref 0 in
  for v = 0 to n - 1 do
    Bfs.ball ws ~blocked_vertices:[||] ~blocked_edges:[||] g ~src:v ~max_hops:n;
    for x = 0 to n - 1 do
      let d = Bfs.Workspace.depth ws x in
      if d > !best then best := d
    done
  done;
  !best

let pp ppf s =
  Format.fprintf ppf
    "n=%d m=%d deg[%d..%d] avg=%.2f density=%.4f weight=%.2f components=%d"
    s.n s.m s.min_degree s.max_degree s.avg_degree s.density s.total_weight
    s.components
