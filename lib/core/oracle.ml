type t = {
  k : int;
  pivots : int array array;  (* pivots.(i).(v): nearest A_i vertex, -1 if none *)
  pivot_dist : float array array;  (* distance to that pivot *)
  bunches : (int, float) Hashtbl.t array;  (* bunches.(v): w -> d(w,v) *)
}

let build rng ~k g =
  if k < 1 then invalid_arg "Oracle.build: k must be >= 1";
  (* Bunches: w \in B(v) iff v \in C(w); filled as every cluster grows. *)
  let bunches = Array.init (Graph.n g) (fun _ -> Hashtbl.create 4) in
  let h =
    Thorup_zwick.clusters rng ~k g (fun w members ->
        List.iter (fun (v, d, _) -> Hashtbl.replace bunches.(v) w d) members)
  in
  (* Level 0 is A_0 = V: every vertex is its own pivot at distance 0. *)
  {
    k;
    pivots = Array.sub h.Thorup_zwick.pivots 0 k;
    pivot_dist = Array.sub h.Thorup_zwick.delta 0 k;
    bunches;
  }

let stretch_bound t = float_of_int ((2 * t.k) - 1)

let storage t =
  let bunch_entries =
    Array.fold_left (fun acc b -> acc + Hashtbl.length b) 0 t.bunches
  in
  bunch_entries + (t.k * Array.length t.bunches) (* pivot tables *)

let query t u v =
  if u = v then 0.
  else begin
    let u = ref u and v = ref v in
    let w = ref !u in
    let d_wu = ref 0. in
    let i = ref 0 in
    let result = ref None in
    while !result = None do
      (match Hashtbl.find_opt t.bunches.(!v) !w with
      | Some d_wv when !w >= 0 -> result := Some (!d_wu +. d_wv)
      | _ ->
          incr i;
          if !i > t.k - 1 then result := Some infinity
          else begin
            let tmp = !u in
            u := !v;
            v := tmp;
            w := t.pivots.(!i).(!u);
            d_wu := t.pivot_dist.(!i).(!u)
          end);
      ()
    done;
    match !result with Some d -> d | None -> infinity
  end
