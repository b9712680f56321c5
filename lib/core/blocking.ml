type t = { pairs : (int * int) list; spanner : Selection.t }

let of_certificates sel certs =
  let pairs =
    List.concat_map
      (fun c ->
        List.map
          (fun x -> (x, c.Poly_greedy.edge.Graph.id))
          c.Poly_greedy.cut)
      certs
  in
  { pairs; spanner = sel }

let size b = List.length b.pairs

let lemma6_bound ~k ~f ~spanner_size = ((2 * k) - 1) * f * spanner_size

type cycle = { vertices : int list; edges : int list }

(* Enumerate simple cycles with at most [max_len] vertices in the spanner,
   each exactly once: root every cycle at its smallest vertex [s], walk
   only through vertices [> s], and break the two traversal directions by
   requiring the first step to be smaller than the last. *)
let short_cycles ?(limit = 200_000) sel ~max_len =
  let sub = Selection.to_subgraph sel in
  let h = sub.Subgraph.graph in
  let n = Graph.n h in
  let cycles = ref [] in
  let count = ref 0 in
  let exhausted = ref true in
  let on_path = Array.make n false in
  (* path: reversed vertex stack (the spanner subgraph keeps the parent's
     vertex numbering); edges: reversed edge-id stack (spanner subgraph
     ids, translated on emission). *)
  let rec extend s path edges len =
    if !count >= limit then exhausted := false
    else
      let x = List.hd path in
      Graph.iter_neighbors h x (fun y id ->
          if !count < limit then
            if y = s && len >= 3 then begin
              match List.rev path with
              | _ :: first :: _ as vertices when first < x ->
                  incr count;
                  let edge_ids =
                    List.rev_map
                      (fun e -> sub.Subgraph.to_parent_edge.(e))
                      (id :: edges)
                  in
                  cycles := { vertices; edges = edge_ids } :: !cycles
              | _ -> ()
            end
            else if y > s && (not on_path.(y)) && len < max_len then begin
              on_path.(y) <- true;
              extend s (y :: path) (id :: edges) (len + 1);
              on_path.(y) <- false
            end)
  in
  for s = 0 to n - 1 do
    if !count < limit then begin
      on_path.(s) <- true;
      extend s [ s ] [] 1;
      on_path.(s) <- false
    end
  done;
  (!cycles, !exhausted)

let is_blocking ?limit b ~t_bound =
  let by_edge = Hashtbl.create 64 in
  List.iter
    (fun (x, e) ->
      let cur = try Hashtbl.find by_edge e with Not_found -> [] in
      Hashtbl.replace by_edge e (x :: cur))
    b.pairs;
  let cycles, exhaustive = short_cycles ?limit b.spanner ~max_len:t_bound in
  if not exhaustive then Error "cycle enumeration hit the limit"
  else begin
    let blocked c =
      List.exists
        (fun e ->
          match Hashtbl.find_opt by_edge e with
          | None -> false
          | Some xs -> List.exists (fun x -> List.mem x c.vertices) xs)
        c.edges
    in
    Ok (List.find_opt (fun c -> not (blocked c)) cycles)
  end

type subsample = {
  sampled_nodes : int;
  surviving_edges : int;
  expected_edges : float;
  girth_exceeds_2k : bool;
}

let lemma7_subsample rng b ~k ~f =
  let g = b.spanner.Selection.source in
  let n = Graph.n g in
  let m_h = b.spanner.Selection.size in
  let q = (2 * ((2 * k) - 1)) * max 1 f in
  let sample_size = max 0 (n / q) in
  let sample = Rng.sample_without_replacement rng ~k:sample_size ~n in
  let in_sample = Array.make n false in
  List.iter (fun v -> in_sample.(v) <- true) sample;
  (* H': spanner induced on the sample.  H'': drop every edge appearing in
     a pair whose vertex also survived. *)
  let dropped = Hashtbl.create 64 in
  List.iter
    (fun (x, e) ->
      let u, v = Graph.endpoints g e in
      if in_sample.(x) && in_sample.(u) && in_sample.(v) then
        Hashtbl.replace dropped e ())
    b.pairs;
  let keep = Array.make (Graph.m g) false in
  Array.iteri
    (fun e selected ->
      if selected then begin
        let u, v = Graph.endpoints g e in
        if in_sample.(u) && in_sample.(v) && not (Hashtbl.mem dropped e) then
          keep.(e) <- true
      end)
    b.spanner.Selection.selected;
  let sub = Subgraph.of_edge_subset g keep in
  let kf = float_of_int (((2 * k) - 1) * max 1 f) in
  {
    sampled_nodes = sample_size;
    surviving_edges = Graph.m sub.Subgraph.graph;
    expected_edges = float_of_int m_h /. (8. *. kf *. kf);
    girth_exceeds_2k = Girth.girth_exceeds sub.Subgraph.graph ~bound:(2 * k);
  }
