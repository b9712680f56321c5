type t = { vertices : int list; edges : int list }

let hops p = List.length p.edges

let interior p =
  match p.vertices with
  | [] | [ _ ] -> []
  | _ :: rest -> (
      match List.rev rest with
      | [] -> []
      | _ :: middle_rev -> List.rev middle_rev)

let weight g p = List.fold_left (fun acc id -> acc +. Graph.weight g id) 0. p.edges

let is_valid g p =
  match p.vertices with
  | [] -> false
  | first :: rest ->
      let rec walk prev vs es =
        match (vs, es) with
        | [], [] -> true
        | v :: vs', id :: es' ->
            id >= 0 && id < Graph.m g
            &&
            let a, b = Graph.endpoints g id in
            ((a = prev && b = v) || (a = v && b = prev)) && walk v vs' es'
        | _, _ -> false
      in
      walk first rest p.edges
