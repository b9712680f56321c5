type t = { source : Graph.t; selected : bool array; size : int }

let count mask = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask

let of_mask g mask =
  if Array.length mask <> Graph.m g then
    invalid_arg "Selection.of_mask: mask length must equal edge count";
  let selected = Array.copy mask in
  { source = g; selected; size = count selected }

let of_ids g ids =
  let selected = Array.make (Graph.m g) false in
  List.iter
    (fun id ->
      if id < 0 || id >= Graph.m g then invalid_arg "Selection.of_ids: bad edge id";
      selected.(id) <- true)
    ids;
  { source = g; selected; size = count selected }

let full g = { source = g; selected = Array.make (Graph.m g) true; size = Graph.m g }

let union a b =
  if a.source != b.source then invalid_arg "Selection.union: different sources";
  let selected = Array.mapi (fun i s -> s || b.selected.(i)) a.selected in
  { source = a.source; selected; size = count selected }

let ids sel =
  let acc = ref [] in
  for id = Array.length sel.selected - 1 downto 0 do
    if sel.selected.(id) then acc := id :: !acc
  done;
  !acc

let weight sel =
  let total = ref 0. in
  Array.iteri (fun id s -> if s then total := !total +. Graph.weight sel.source id) sel.selected;
  !total

let to_subgraph sel = Subgraph.of_edge_subset sel.source sel.selected

let blocked_edges sel extra_faults =
  let blocked = Array.map not sel.selected in
  List.iter
    (fun id -> if id >= 0 && id < Array.length blocked then blocked.(id) <- true)
    extra_faults;
  blocked
