type t = {
  g : Graph.t;
  who : string;
  chaos : Chaos.state option;
  spanner : Obs.Counter.t;
  other : Obs.Counter.t;
  mutable skeleton : bool array option;  (* per edge id: in the spanner? *)
}

let create ~who ?chaos ~spanner ~other g =
  { g; who; chaos; spanner; other; skeleton = None }

let chaos w = w.chaos
let slots g = max 1 (2 * Graph.m g)

let slot ~who g ~src ~dst =
  match Graph.find_edge g src dst with
  | Some id -> (2 * id) + if src < dst then 0 else 1
  | None ->
      invalid_arg
        (Printf.sprintf "%s.send: %d and %d are not adjacent" who src dst)

let edge_dir s = (s / 2, s mod 2)

let set_skeleton w mask =
  if Array.length mask <> Graph.m w.g then
    invalid_arg
      (Printf.sprintf "%s.set_skeleton: mask has %d slots for %d edges" w.who
         (Array.length mask) (Graph.m w.g));
  w.skeleton <- Some mask

(* One physical copy crossed slot [s]: the simulator's load accounting,
   then the skeleton attribution — so a duplicated copy counts twice and
   a crashed sender's message not at all. *)
let copy w ~charge s bits =
  charge s;
  match w.skeleton with
  | None -> ()
  | Some mask ->
      Obs.Counter.add (if mask.(s / 2) then w.spanner else w.other) bits

let transmit w ?cid ~src ~dst ~at ~bits ~charge arrive =
  let s = slot ~who:w.who w.g ~src ~dst in
  let tracing = Obs_trace.enabled () in
  let cid =
    match cid with
    | Some c -> c
    | None -> if tracing then Obs_trace.mint_cid () else -1
  in
  if tracing then
    Obs_trace.emit (Obs_trace.Msg_send { cid; src; dst; at; bits });
  (match w.chaos with
  | None ->
      copy w ~charge s bits;
      arrive ~cid None
  | Some ch ->
      if Chaos.crashed ch ~node:src ~time:at then
        (* never made it onto the wire: offered load only *)
        Chaos.count_crash_drop ~cid ch ~src ~dst
      else begin
        let one () =
          copy w ~charge s bits;
          if not (Chaos.draw_drop ~cid ch ~src ~dst) then arrive ~cid w.chaos
        in
        one ();
        if Chaos.draw_dup ~cid ch ~src ~dst then one ()
      end);
  cid
