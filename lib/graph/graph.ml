type edge = { u : int; v : int; w : float; id : int }

(* The edge store is struct-of-arrays: three parallel arrays indexed by
   edge id (first [count] slots valid), not an [edge array].  At 3 words
   per edge instead of 6 (slot + record header + fields) this halves the
   store's resident size, and bulk loaders ([of_adjacency]) fill plain
   int/float arrays without allocating a record per edge.  [edge]
   records are materialized on demand; they are short-lived minor-heap
   values, which OCaml's GC reclaims for free. *)
type t = {
  size : int;
  mutable count : int;
  mutable e_u : int array;  (* smaller endpoint *)
  mutable e_v : int array;  (* larger endpoint *)
  mutable e_w : float array;  (* weight *)
  adj : Csr.t;  (* flat adjacency; see Csr for the layout *)
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  (* First, so its int32 bound rejects an oversize [n] before the edge
     store below is allocated. *)
  let adj = Csr.create n in
  let cap = max 8 n in
  {
    size = n;
    count = 0;
    e_u = Array.make cap (-1);
    e_v = Array.make cap (-1);
    e_w = Array.make cap 0.;
    adj;
  }

let n g = g.size
let m g = g.count
let resident_bytes g = Csr.resident_bytes g.adj

let check_vertex g x name =
  if x < 0 || x >= g.size then
    invalid_arg (Printf.sprintf "Graph.%s: vertex %d out of range [0,%d)" name x g.size)

let adjacency g = g.adj

let degree g u =
  check_vertex g u "degree";
  Csr.degree g.adj u

let find_edge g u v =
  check_vertex g u "find_edge";
  check_vertex g v "find_edge";
  Csr.find g.adj u v

let mem_edge g u v = Option.is_some (find_edge g u v)

let grow g =
  let cap = Array.length g.e_u in
  if g.count = cap then begin
    let widen a fill =
      let bigger = Array.make (2 * cap) fill in
      Array.blit a 0 bigger 0 cap;
      bigger
    in
    g.e_u <- widen g.e_u (-1);
    g.e_v <- widen g.e_v (-1);
    let bigger = Array.make (2 * cap) 0. in
    Array.blit g.e_w 0 bigger 0 cap;
    g.e_w <- bigger
  end

let valid_weight w = Float.is_finite w && w > 0.

let add_edge g u v ~w =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if not (valid_weight w) then
    invalid_arg "Graph.add_edge: weight must be finite and > 0";
  if mem_edge g u v then
    invalid_arg (Printf.sprintf "Graph.add_edge: duplicate edge {%d,%d}" u v);
  let lo = min u v and hi = max u v in
  let id = g.count in
  grow g;
  g.e_u.(id) <- lo;
  g.e_v.(id) <- hi;
  g.e_w.(id) <- w;
  g.count <- id + 1;
  Csr.add g.adj u v id;
  Csr.add g.adj v u id;
  id

let add_edge_unit g u v = add_edge g u v ~w:1.0

let of_edges n pairs =
  let g = create n in
  List.iter (fun (u, v) -> ignore (add_edge_unit g u v)) pairs;
  g

let of_weighted_edges n triples =
  let g = create n in
  List.iter (fun (u, v, w) -> ignore (add_edge g u v ~w)) triples;
  g

(* Bulk constructor for loaders: adopt a pre-built adjacency and
   reconstruct the edge store from its half-edges in one linear pass,
   bypassing the per-edge duplicate probes of [add_edge] (which are
   O(deg) each and dominate at 10^7-edge scale).  Every consistency
   property [add_edge] enforces is re-checked here, just in aggregate:
   each id in [0, m) must appear as exactly two half-edges forming one
   undirected non-loop edge, and weights must pass [valid_weight]. *)
let of_adjacency ?weights adj =
  let fail msg = invalid_arg ("Graph.of_adjacency: " ^ msg) in
  let n = Csr.vertices adj in
  let half = Csr.half_edges adj in
  if half mod 2 <> 0 then fail "odd half-edge count";
  let m = half / 2 in
  (match weights with
  | Some w when Array.length w <> m -> fail "weight array length <> m"
  | _ -> ());
  let cap = max 8 m in
  (* Vertex rows are scanned in increasing order, so the [min]-endpoint
     half-edge of an id is always met before its reverse: record on
     [x < y], match on [x > y].  [mark] stamps neighbors per row to
     reject parallel edges under distinct ids.  Per-id state lives in
     ONE word of [uv] — both endpoints packed as [(u lsl 31) lor v]
     (the guard below keeps vertex ids inside 31 bits), with
     [-1] = unseen and [lnot packed] = paired — because the [uv.(id)]
     accesses are random while everything else streams: one cache miss
     per half-edge instead of three is what bulk loading 10^7 edges
     actually pays for. *)
  if n > 0x7fffffff then fail "vertex count exceeds the packing range";
  let uv = Array.make m (-1) in
  let mark = Array.make n (-1) in
  for x = 0 to n - 1 do
    Csr.iter adj x (fun y id ->
        if id < 0 || id >= m then fail "edge id out of range";
        if x = y then fail "self-loop";
        if mark.(y) = x then fail "parallel edge";
        mark.(y) <- x;
        if x < y then begin
          if uv.(id) <> -1 then fail "duplicate edge id";
          uv.(id) <- (x lsl 31) lor y
        end
        else begin
          if uv.(id) <> (y lsl 31) lor x then
            fail "half-edges of an id do not pair up";
          uv.(id) <- lnot uv.(id)
        end)
  done;
  let e_u = Array.make cap (-1) and e_v = Array.make cap (-1) in
  for id = 0 to m - 1 do
    (* [-1] = never seen, [>= 0] = recorded but never matched. *)
    let v = uv.(id) in
    if v >= -1 then fail "edge id missing a half-edge";
    let packed = lnot v in
    e_u.(id) <- packed lsr 31;
    e_v.(id) <- packed land 0x7fffffff
  done;
  let e_w =
    match weights with
    | None ->
        let w = Array.make cap 0. in
        Array.fill w 0 m 1.0;
        w
    | Some src ->
        let w = Array.make cap 0. in
        for id = 0 to m - 1 do
          if not (valid_weight src.(id)) then
            fail "weight must be finite and > 0";
          w.(id) <- src.(id)
        done;
        w
  in
  { size = n; count = m; e_u; e_v; e_w; adj }

let unsafe_edge g id =
  {
    u = Array.unsafe_get g.e_u id;
    v = Array.unsafe_get g.e_v id;
    w = Array.unsafe_get g.e_w id;
    id;
  }

let edge g id =
  if id < 0 || id >= g.count then
    invalid_arg (Printf.sprintf "Graph.edge: id %d out of range [0,%d)" id g.count);
  unsafe_edge g id

let endpoints g id =
  let e = edge g id in
  (e.u, e.v)

let weight g id = (edge g id).w

let other_endpoint g id x =
  let e = edge g id in
  if e.u = x then e.v
  else if e.v = x then e.u
  else invalid_arg (Printf.sprintf "Graph.other_endpoint: %d not on edge %d" x id)

let iter_edges g fn =
  for i = 0 to g.count - 1 do
    fn (unsafe_edge g i)
  done

let fold_edges g init fn =
  let acc = ref init in
  for i = 0 to g.count - 1 do
    acc := fn !acc (unsafe_edge g i)
  done;
  !acc

let edge_array g = Array.init g.count (fun i -> unsafe_edge g i)

let iter_neighbors g u fn =
  check_vertex g u "iter_neighbors";
  Csr.iter g.adj u fn

let copy g =
  {
    size = g.size;
    count = g.count;
    e_u = Array.copy g.e_u;
    e_v = Array.copy g.e_v;
    e_w = Array.copy g.e_w;
    adj = Csr.copy g.adj;
  }

let total_weight g =
  let acc = ref 0. in
  for i = 0 to g.count - 1 do
    acc := !acc +. g.e_w.(i)
  done;
  !acc

let is_unit_weighted g =
  let ok = ref true in
  for i = 0 to g.count - 1 do
    if g.e_w.(i) <> 1.0 then ok := false
  done;
  !ok
