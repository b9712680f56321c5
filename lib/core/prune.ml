type result = { pruned : Selection.t; removed : int; candidates : int }

(* Exact spanner certificate (Lemma 3): for every source edge {u,v} not
   kept by [mask], no fault set of size <= f pushes the detour distance in
   the masked spanner above (2k-1)·w(u,v); kept edges are their own
   detour (and in EFT mode, faulting a kept edge shifts the obligation to
   the surviving edges of the pair's shortest path, which are each checked
   here themselves).  Exact in both fault modes and for arbitrary weights:
   the existence search is Lbc_exact.find_cut with a weight budget. *)
let still_spanner ~mode ~k ~f g mask =
  let stretch = float_of_int ((2 * k) - 1) in
  let h = (Subgraph.of_edge_subset g mask).Subgraph.graph in
  Graph.fold_edges g true (fun ok e ->
      let within = Lbc_exact.Weight (stretch *. e.Graph.w) in
      ok
      && (mask.(e.Graph.id)
         || Option.is_none
              (Lbc_exact.find_cut ~mode h ~u:e.Graph.u ~v:e.Graph.v ~within ~limit:f)))

let minimalize ~mode ~k ~f sel =
  if k < 1 then invalid_arg "Prune.minimalize: k must be >= 1";
  if f < 0 then invalid_arg "Prune.minimalize: f must be >= 0";
  let g = sel.Selection.source in
  let mask = Array.copy sel.Selection.selected in
  (* Heaviest first: removing an expensive edge is worth the most, and the
     weighted correctness argument tolerates any removal that keeps the
     hop-based certificate (detours among kept edges are all no heavier
     than the removed edge's weight class on greedy outputs). *)
  let kept =
    Graph.fold_edges g [] (fun acc e -> if mask.(e.Graph.id) then e :: acc else acc)
  in
  let by_weight_desc = List.sort (fun a b -> compare b.Graph.w a.Graph.w) kept in
  let removed = ref 0 and candidates = ref 0 in
  List.iter
    (fun e ->
      incr candidates;
      mask.(e.Graph.id) <- false;
      if still_spanner ~mode ~k ~f g mask then incr removed
      else mask.(e.Graph.id) <- true)
    by_weight_desc;
  { pruned = Selection.of_mask g mask; removed = !removed; candidates = !candidates }
