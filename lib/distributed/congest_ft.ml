type result = {
  selection : Selection.t;
  iterations : int;
  phase1_rounds : int;
  phase2_base_rounds : int;
  phase2_rounds : int;
  total_rounds : int;
  max_overlap : int;
  word_bits : int;
}

let bits_needed x =
  let rec go v acc = if v = 0 then max 1 acc else go (v lsr 1) (acc + 1) in
  go (max 1 x) 0

let build rng ?(c = 1.0) ?word_bits ?chaos ~mode ~k ~f g =
  if k < 1 then invalid_arg "Congest_ft.build: k must be >= 1";
  if f < 0 then invalid_arg "Congest_ft.build: f must be >= 0";
  (match word_bits with
  | Some b when b < 1 -> invalid_arg "Congest_ft.build: word_bits must be >= 1"
  | _ -> ());
  Obs.with_span "congest_ft.build" @@ fun () ->
  let n = Graph.n g in
  let m = Graph.m g in
  let word = match word_bits with Some b -> b | None -> 4 * (bits_needed n + 1) in
  let j = Dk11.iterations ~c ~f ~n () in
  let p = 1. /. float_of_int (f + 1) in
  let index_bits = bits_needed j in

  (* Phase 1: sample participation sets.  VFT samples vertices, EFT edges
     (each edge's choice is drawn and announced by its smaller endpoint). *)
  let vertex_iters = Array.make n [] in
  let edge_iters = Array.make (max 1 m) [] in
  (match mode with
  | Fault.VFT ->
      for v = 0 to n - 1 do
        for it = 0 to j - 1 do
          if Rng.bernoulli rng ~p then vertex_iters.(v) <- it :: vertex_iters.(v)
        done
      done
  | Fault.EFT ->
      for id = 0 to m - 1 do
        for it = 0 to j - 1 do
          if Rng.bernoulli rng ~p then edge_iters.(id) <- it :: edge_iters.(id)
        done
      done);
  (* Round cost of shipping the participation lists along every edge:
     chunked into [word]-bit messages; all edges ship in parallel, so the
     cost is the max per directed edge. *)
  let phase1_rounds =
    match mode with
    | Fault.VFT ->
        let worst = ref 1 in
        for v = 0 to n - 1 do
          let bits = List.length vertex_iters.(v) * index_bits in
          let rounds = max 1 ((bits + word - 1) / word) in
          if rounds > !worst then worst := rounds
        done;
        !worst
    | Fault.EFT ->
        (* each endpoint learns only the iterations of its own incident
           edges; the heaviest vertex ships the sum over its edges *)
        let worst = ref 1 in
        for v = 0 to n - 1 do
          let bits = ref 0 in
          Graph.iter_neighbors g v (fun _ id ->
              bits := !bits + (List.length edge_iters.(id) * index_bits));
          let rounds = max 1 ((!bits + word - 1) / word) in
          if rounds > !worst then worst := rounds
        done;
        !worst
  in

  (* Phase 2: run each instance with history recording, then cost the
     parallel composition by congestion scheduling over the union of
     per-round edge loads. *)
  let union = Array.make m false in
  (* One row per BS step, indexed by parent directed slot ([2 * edge +
     dir], as in {!Wire}) and allocated when some instance first loads
     that step.  An entry packs the load summed over instances as
     [bits * stride + instances]; at most [j < stride] instances add to
     it, so a non-zero entry is a loaded slot.  The longest instance
     sets the number of steps. *)
  let slots = Wire.slots g in
  let stride = j + 1 in
  let rows = ref [||] in
  (* Participation lists were built newest-first; reversed, each head is
     the next iteration its vertex (edge) joins, so one pass over the
     heads yields iteration [it]'s keep mask. *)
  let pending =
    Array.map List.rev
      (match mode with Fault.VFT -> vertex_iters | Fault.EFT -> edge_iters)
  in
  let keep_mask len it =
    Array.init len (fun x ->
        match pending.(x) with
        | next :: rest when next = it ->
            pending.(x) <- rest;
            true
        | _ -> false)
  in
  for it = 0 to j - 1 do
    if Obs_trace.enabled () then
      Obs_trace.emit (Obs_trace.Phase { name = "congest_ft.iteration"; index = it });
    let sub =
      match mode with
      | Fault.VFT -> Subgraph.induced_mask g (keep_mask n it)
      | Fault.EFT -> Subgraph.of_edge_subset g (keep_mask m it)
    in
    if Graph.n sub.Subgraph.graph > 1 then begin
      let inst =
        Congest_bs.build (Rng.split rng) ~word_bits:word ~record_history:true
          ?chaos ~k sub.Subgraph.graph
      in
      Array.iteri
        (fun sid chosen ->
          if chosen then union.(sub.Subgraph.to_parent_edge.(sid)) <- true)
        inst.Congest_bs.selection.Selection.selected;
      let hist = inst.Congest_bs.history in
      let steps = Array.length hist in
      if steps > Array.length !rows then begin
        let grown = Array.make steps [||] in
        Array.blit !rows 0 grown 0 (Array.length !rows);
        rows := grown
      end;
      Array.iteri
        (fun step entries ->
          match entries with
          | [] -> ()
          | _ ->
              let row =
                match !rows.(step) with
                | [||] ->
                    let row = Array.make slots 0 in
                    !rows.(step) <- row;
                    row
                | row -> row
              in
              List.iter
                (fun (sub_edge, dir, bits) ->
                  let s = (2 * sub.Subgraph.to_parent_edge.(sub_edge)) + dir in
                  row.(s) <- row.(s) + (bits * stride) + 1)
                entries)
        hist
    end
  done;
  (* Schedule: physical rounds for BS step r = ceil(max edge load / word). *)
  let base_rounds = Array.length !rows in
  let per_step = Array.make (max 1 base_rounds) 1 in
  let max_overlap = ref 0 in
  Array.iteri
    (fun step row ->
      Array.iter
        (fun load ->
          if load > 0 then begin
            let bits = load / stride and instances = load mod stride in
            let need = max 1 ((bits + word - 1) / word) in
            if need > per_step.(step) then per_step.(step) <- need;
            if instances > !max_overlap then max_overlap := instances
          end)
        row)
    !rows;
  let phase2_rounds = Array.fold_left ( + ) 0 per_step in
  {
    selection = Selection.of_mask g union;
    iterations = j;
    phase1_rounds;
    phase2_base_rounds = base_rounds;
    phase2_rounds;
    total_rounds = phase1_rounds + phase2_rounds;
    max_overlap = !max_overlap;
    word_bits = word;
  }
