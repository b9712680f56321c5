type msg =
  | Sampled_bit of { center : int; sampled : bool }
  | Announce of { center : int; sampled : bool }
  | Kill

type result = {
  selection : Selection.t;
  rounds : int;
  stats : Net.stats;
  history : (int * int * int) list array;
}

let word_bits_for n =
  let rec bits x acc = if x = 0 then acc else bits (x lsr 1) (acc + 1) in
  bits (max 1 n) 0 + 1

let build rng ?word_bits ?(record_history = false) ?chaos ~k g =
  if k < 1 then invalid_arg "Congest_bs.build: k must be >= 1";
  let n = Graph.n g in
  let w = match word_bits with Some b -> b | None -> 4 * word_bits_for n in
  let announce_bits = 2 * word_bits_for n in
  let bits = function Sampled_bit _ | Announce _ -> announce_bits | Kill -> 1 in
  let net = Reliable.create ~record_history ?chaos ~model:(Net.Congest w) ~bits g in
  let m = Graph.m g in
  let selected = Array.make m false in
  let alive = Array.make m true in
  let center = Array.init n (fun v -> v) in
  let parent = Array.make n (-1) in
  let p = if n <= 1 then 1.0 else float_of_int n ** (-1. /. float_of_int k) in

  (* Per-vertex grouping scratch, stamped by vertex id sweep. *)
  let best_w = Array.make n infinity in
  let best_e = Array.make n (-1) in
  let stamp_of = Array.make n (-1) in
  let stamp = ref 0 in

  (* One announce round: every clustered vertex tells its neighbors its
     cluster and the cluster's sampling status; retired vertices stay
     silent.  Returns per-vertex views (neighbor -> (center, sampled)). *)
  let announce_round sampled_known =
    for v = 0 to n - 1 do
      if center.(v) >= 0 then
        Reliable.broadcast net ~src:v
          (Announce { center = center.(v); sampled = sampled_known.(v) })
    done;
    Reliable.next_round net;
    let view_center = Array.make n (-1) and view_sampled = Array.make n false in
    (* views are indexed by the *sender*: center/sampledness as last
       announced.  Every vertex receives the same announcement from a
       given sender, so a single global array per field is faithful. *)
    for v = 0 to n - 1 do
      List.iter
        (fun (sender, msg) ->
          match msg with
          | Announce { center = c; sampled } ->
              view_center.(sender) <- c;
              view_sampled.(sender) <- sampled
          | Sampled_bit _ | Kill -> ())
        (Reliable.inbox net v)
    done;
    (view_center, view_sampled)
  in

  (* Kill round: notify the other endpoint of each locally killed edge. *)
  let kill_round to_kill =
    List.iter
      (fun (v, y, id) ->
        if alive.(id) then begin
          alive.(id) <- false;
          Reliable.send net ~src:v ~dst:y Kill
        end)
      to_kill;
    Reliable.next_round net
  in

  for phase = 1 to k - 1 do
    (* Centers draw sampling bits and flood them down their trees. *)
    let sampled_center = Array.make n false in
    for c = 0 to n - 1 do
      if center.(c) = c then sampled_center.(c) <- Rng.bernoulli rng ~p
    done;
    let knows = Array.make n false in
    let sampled_known = Array.make n false in
    for v = 0 to n - 1 do
      if center.(v) = v then begin
        knows.(v) <- true;
        sampled_known.(v) <- sampled_center.(v)
      end
    done;
    for _r = 1 to phase do
      for v = 0 to n - 1 do
        if knows.(v) && center.(v) >= 0 then
          Reliable.broadcast net ~src:v
            (Sampled_bit { center = center.(v); sampled = sampled_known.(v) })
      done;
      Reliable.next_round net;
      for v = 0 to n - 1 do
        if (not knows.(v)) && center.(v) >= 0 then
          List.iter
            (fun (sender, msg) ->
              match msg with
              | Sampled_bit { center = c; sampled }
                when sender = parent.(v) && c = center.(v) ->
                  knows.(v) <- true;
                  sampled_known.(v) <- sampled
              | Sampled_bit _ | Announce _ | Kill -> ())
            (Reliable.inbox net v)
      done
    done;

    let view_center, view_sampled = announce_round sampled_known in

    (* Simultaneous local decisions against the announced snapshot. *)
    let old_center = Array.copy center in
    let to_kill = ref [] in
    for v = 0 to n - 1 do
      if old_center.(v) >= 0 && not sampled_known.(v) then begin
        incr stamp;
        let adjacent = ref [] in
        Graph.iter_neighbors g v (fun y id ->
            if alive.(id) then begin
              let oc = view_center.(y) in
              if oc < 0 then ()
              else if oc = old_center.(v) then to_kill := (v, y, id) :: !to_kill
              else begin
                if stamp_of.(oc) <> !stamp then begin
                  stamp_of.(oc) <- !stamp;
                  best_w.(oc) <- infinity;
                  best_e.(oc) <- -1;
                  adjacent := (oc, y) :: !adjacent
                end;
                let wt = Graph.weight g id in
                if wt < best_w.(oc) then begin
                  best_w.(oc) <- wt;
                  best_e.(oc) <- id
                end
              end
            end);
        let sampled_best = ref infinity and sampled_c = ref (-1) in
        List.iter
          (fun (c, y) ->
            if view_sampled.(y) && best_w.(c) < !sampled_best then begin
              sampled_best := best_w.(c);
              sampled_c := c
            end)
          !adjacent;
        let kill_cluster c =
          Graph.iter_neighbors g v (fun y id ->
              if alive.(id) && view_center.(y) = c then to_kill := (v, y, id) :: !to_kill)
        in
        if !sampled_c < 0 then begin
          List.iter
            (fun (c, _) ->
              selected.(best_e.(c)) <- true;
              kill_cluster c)
            !adjacent;
          center.(v) <- -1;
          parent.(v) <- -1
        end
        else begin
          let hook = best_e.(!sampled_c) in
          selected.(hook) <- true;
          List.iter
            (fun (c, _) ->
              if c <> !sampled_c && best_w.(c) < !sampled_best then begin
                selected.(best_e.(c)) <- true;
                kill_cluster c
              end)
            !adjacent;
          kill_cluster !sampled_c;
          center.(v) <- !sampled_c;
          parent.(v) <- Graph.other_endpoint g hook v
        end
      end
    done;
    kill_round !to_kill
  done;

  (* Final phase: lightest edge to every remaining adjacent cluster. *)
  let dummy_sampled = Array.make n false in
  let view_center, _ = announce_round dummy_sampled in
  let to_kill = ref [] in
  for v = 0 to n - 1 do
    incr stamp;
    let adjacent = ref [] in
    Graph.iter_neighbors g v (fun y id ->
        if alive.(id) then begin
          let oc = view_center.(y) in
          if oc < 0 then ()
          else if oc = center.(v) && center.(v) >= 0 then
            to_kill := (v, y, id) :: !to_kill
          else begin
            if stamp_of.(oc) <> !stamp then begin
              stamp_of.(oc) <- !stamp;
              best_w.(oc) <- infinity;
              best_e.(oc) <- -1;
              adjacent := (oc, y) :: !adjacent
            end;
            let wt = Graph.weight g id in
            if wt < best_w.(oc) then begin
              best_w.(oc) <- wt;
              best_e.(oc) <- id
            end
          end
        end);
    List.iter
      (fun (c, _) ->
        selected.(best_e.(c)) <- true;
        Graph.iter_neighbors g v (fun y id ->
            if alive.(id) && view_center.(y) = c then to_kill := (v, y, id) :: !to_kill))
      !adjacent
  done;
  kill_round !to_kill;

  let stats = Reliable.stats net in
  {
    selection = Selection.of_mask g selected;
    rounds = stats.Net.rounds;
    stats;
    history = Reliable.history net;
  }
