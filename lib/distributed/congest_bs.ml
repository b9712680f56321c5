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

  (* Per-vertex grouping by neighbor cluster: the sequential algorithm's
     scan, run against the announced views. *)
  let sc = Baswana_sen.scratch n in

  (* One announce round: every clustered vertex tells its neighbors its
     cluster and the cluster's sampling status; retired vertices stay
     silent.  The views are indexed by the *sender*: center/sampledness as
     last announced.  Every vertex receives the same announcement from a
     given sender, so a single global array per field is faithful. *)
  let view_center = Array.make n (-1) and view_sampled = Array.make n false in
  let announce_round sampled_known =
    for v = 0 to n - 1 do
      if center.(v) >= 0 then
        Reliable.broadcast net ~src:v
          (Announce { center = center.(v); sampled = sampled_known.(v) })
    done;
    Reliable.next_round net;
    Array.fill view_center 0 n (-1);
    Array.fill view_sampled 0 n false;
    for v = 0 to n - 1 do
      List.iter
        (fun (sender, msg) ->
          match msg with
          | Announce { center = c; sampled } ->
              view_center.(sender) <- c;
              view_sampled.(sender) <- sampled
          | Sampled_bit _ | Kill -> ())
        (Reliable.inbox net v)
    done
  in

  (* Kills are deferred: a vertex lists the edges it drops (own-cluster
     ones as the scan meets them, then those to each cluster it connects
     to) and the kill round notifies their other endpoints. *)
  let to_kill = ref [] in
  let scan ~own v =
    Baswana_sen.scan sc g ~alive ~cluster_of:view_center ~own
      ~on_own:(fun y id -> to_kill := (v, y, id) :: !to_kill)
      v
  in
  let kill_cluster v c =
    Graph.iter_neighbors g v (fun y id ->
        if alive.(id) && view_center.(y) = c then to_kill := (v, y, id) :: !to_kill)
  in
  let keep v c =
    selected.(Baswana_sen.lightest_edge sc c) <- true;
    kill_cluster v c
  in
  let kill_round () =
    List.iter
      (fun (v, y, id) ->
        if alive.(id) then begin
          alive.(id) <- false;
          Reliable.send net ~src:v ~dst:y Kill
        end)
      !to_kill;
    to_kill := [];
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

    announce_round sampled_known;

    (* Simultaneous local decisions against the announced snapshot. *)
    let old_center = Array.copy center in
    let sampled c = view_sampled.(Baswana_sen.first_neighbor sc c) in
    for v = 0 to n - 1 do
      if old_center.(v) >= 0 && not sampled_known.(v) then begin
        let adjacent = scan ~own:old_center.(v) v in
        let hook = Baswana_sen.join sc adjacent ~sampled ~keep:(keep v) in
        center.(v) <- hook;
        parent.(v) <- -1;
        if hook >= 0 then begin
          keep v hook;
          parent.(v) <- Graph.other_endpoint g (Baswana_sen.lightest_edge sc hook) v
        end
      end
    done;
    kill_round ()
  done;

  (* Final phase: lightest edge to every remaining adjacent cluster. *)
  announce_round (Array.make n false);
  for v = 0 to n - 1 do
    List.iter (keep v) (scan ~own:center.(v) v)
  done;
  kill_round ();

  let stats = Reliable.stats net in
  {
    selection = Selection.of_mask g selected;
    rounds = stats.Net.rounds;
    stats;
    history = Reliable.history net;
  }
