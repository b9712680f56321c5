type mode = VFT | EFT

type t = { mode : mode; members : int list }

let pp_mode ppf = function
  | VFT -> Format.pp_print_string ppf "VFT"
  | EFT -> Format.pp_print_string ppf "EFT"

let pp ppf fault =
  Format.fprintf ppf "@[<h>%a{%a}@]" pp_mode fault.mode
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    fault.members

let empty mode = { mode; members = [] }

let dedup xs = List.sort_uniq compare xs

let of_vertices vs = { mode = VFT; members = dedup vs }
let of_edges es = { mode = EFT; members = dedup es }

let masks g fault =
  match fault.mode with
  | VFT ->
      let mask = Array.make (Graph.n g) false in
      List.iter (fun v -> mask.(v) <- true) fault.members;
      (Some mask, None)
  | EFT ->
      let mask = Array.make (max 1 (Graph.m g)) false in
      List.iter (fun e -> mask.(e) <- true) fault.members;
      (None, Some mask)

let universe mode g = match mode with VFT -> Graph.n g | EFT -> Graph.m g

let random rng mode g ~f =
  if f < 0 then invalid_arg "Fault.random: negative f";
  let n = universe mode g in
  let k = min f n in
  let members = Rng.sample_without_replacement rng ~k ~n in
  { mode; members }

let random_adversarial rng mode g ~f =
  if Graph.m g = 0 then empty mode
  else begin
    let e = Graph.edge g (Rng.int rng (Graph.m g)) in
    (* Candidates around the target edge, which is itself excluded: the
       other neighbours of its endpoints (VFT) or the other edges
       incident to them (EFT). *)
    let candidates = ref [] in
    let collect x id =
      match mode with
      | VFT ->
          if x <> e.Graph.u && x <> e.Graph.v then candidates := x :: !candidates
      | EFT -> if id <> e.Graph.id then candidates := id :: !candidates
    in
    Graph.iter_neighbors g e.Graph.u collect;
    Graph.iter_neighbors g e.Graph.v collect;
    let cands = Array.of_list (dedup !candidates) in
    Rng.shuffle rng cands;
    let k = min f (Array.length cands) in
    { mode; members = dedup (Array.to_list (Array.sub cands 0 k)) }
  end

let enumerate mode g ~f fn =
  let n = universe mode g in
  (* Enumerate subsets of {0..n-1} of size <= f in lexicographic order. *)
  let rec extend members count start =
    fn { mode; members = List.rev members };
    if count < f then
      for x = start to n - 1 do
        extend (x :: members) (count + 1) (x + 1)
      done
  in
  extend [] 0 0

let count_subsets ~universe ~f =
  let rec binom n k = if k = 0 then 1. else binom n (k - 1) *. float_of_int (n - k + 1) /. float_of_int k in
  let total = ref 0. in
  for i = 0 to min f universe do
    total := !total +. binom universe i
  done;
  !total
