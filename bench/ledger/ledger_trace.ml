(* Bench-side spans for the traced run.

   Every call the benchmark makes into a library layer can be wrapped in
   a span recorded here, from outside the library: name, start, end,
   parent, and the words allocated while it was open.  A [scope] is one
   span per call, for coarse calls (a build, a fault set); a [hot] span
   aggregates every call of one name under the same parent into a single
   record (count and summed time), for calls made thousands of times (one
   LBC decision, one query), so the span list stays small.  Spans live in
   memory until [spans] exports them at the end of the run.

   Allocation is read with [Gc.quick_stat] around scopes (summed over
   every domain, so pooled calls count their helpers' words) and with
   [Gc.counters] around hot calls (the calling domain only; hot calls are
   sequential).  The words the measurement itself allocates are
   calibrated once and subtracted. *)

type span = {
  id : int;
  name : string;
  parent : span option;
  start : float;
  mutable stop : float;
  mutable dur : float;  (** summed over calls for a hot span *)
  mutable calls : int;
  mutable minor : float;  (** words allocated while open, children included *)
  mutable major : float;
  mutable child_dur : float;
  mutable child_minor : float;
  mutable child_major : float;
}

let on = ref false
let t_origin = ref 0.
let next_id = ref 0
let recorded : span list ref = ref []
let stack : span list ref = ref []
let hot_spans : (int * string, span) Hashtbl.t = Hashtbl.create 16
let scope_overhead = ref (0., 0.)
let hot_overhead = ref (0., 0.)

let scope_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let hot_words () =
  let mi, _, ma = Gc.counters () in
  (mi, ma)

let make name parent =
  incr next_id;
  let s =
    {
      id = !next_id;
      name;
      parent;
      start = Obs.now_s ();
      stop = 0.;
      dur = 0.;
      calls = 0;
      minor = 0.;
      major = 0.;
      child_dur = 0.;
      child_minor = 0.;
      child_major = 0.;
    }
  in
  recorded := s :: !recorded;
  s

let close s ~dt ~minor ~major =
  s.stop <- Obs.now_s ();
  s.dur <- s.dur +. dt;
  s.calls <- s.calls + 1;
  s.minor <- s.minor +. minor;
  s.major <- s.major +. major;
  match s.parent with
  | Some p ->
      p.child_dur <- p.child_dur +. dt;
      p.child_minor <- p.child_minor +. minor;
      p.child_major <- p.child_major +. major
  | None -> ()

let scope name f =
  if not !on then f ()
  else begin
    let s = make name (match !stack with p :: _ -> Some p | [] -> None) in
    stack := s :: !stack;
    let mi0, ma0 = scope_words () in
    let t0 = Obs.now_s () in
    Fun.protect f ~finally:(fun () ->
        let dt = Obs.now_s () -. t0 in
        let mi1, ma1 = scope_words () in
        stack := List.tl !stack;
        let omi, oma = !scope_overhead in
        close s ~dt ~minor:(mi1 -. mi0 -. omi) ~major:(ma1 -. ma0 -. oma))
  end

let hot name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    let key = ((match parent with Some p -> p.id | None -> 0), name) in
    let s =
      match Hashtbl.find_opt hot_spans key with
      | Some s -> s
      | None ->
          let s = make name parent in
          Hashtbl.replace hot_spans key s;
          s
    in
    let mi0, ma0 = hot_words () in
    let t0 = Obs.now_s () in
    let r = f () in
    let dt = Obs.now_s () -. t0 in
    let mi1, ma1 = hot_words () in
    let omi, oma = !hot_overhead in
    close s ~dt ~minor:(mi1 -. mi0 -. omi) ~major:(ma1 -. ma0 -. oma);
    r
  end

let clear () =
  recorded := [];
  stack := [];
  Hashtbl.reset hot_spans

(* Words one empty measurement allocates, averaged over many. *)
let calibrate measure =
  let reps = 1000 in
  let before = !recorded in
  let mi = ref 0. and ma = ref 0. in
  for _ = 1 to reps do
    measure ();
    match !recorded with
    | s :: _ ->
        mi := !mi +. s.minor;
        ma := !ma +. s.major;
        clear ()
    | [] -> ()
  done;
  recorded := before;
  (!mi /. float_of_int reps, !ma /. float_of_int reps)

let start () =
  on := true;
  clear ();
  scope_overhead := (0., 0.);
  hot_overhead := (0., 0.);
  scope_overhead := calibrate (fun () -> scope "calibrate" ignore);
  hot_overhead := calibrate (fun () -> hot "calibrate" ignore);
  clear ();
  t_origin := Obs.now_s ()

let self_time s = s.dur -. s.child_dur

type layer = {
  self_s : float;
  total_s : float;
  calls : int;
  minor_words : float;
  major_words : float;
}

(* Per span name: summed self time, total time, calls and self words. *)
let layers () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:
            { self_s = 0.; total_s = 0.; calls = 0; minor_words = 0.; major_words = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          self_s = l.self_s +. self_time s;
          total_s = l.total_s +. s.dur;
          calls = l.calls + s.calls;
          minor_words = l.minor_words +. (s.minor -. s.child_minor);
          major_words = l.major_words +. (s.major -. s.child_major);
        })
    !recorded;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let layer name = List.assoc_opt name (layers ())

(* Share of the root spans' time no child span accounts for. *)
let unattributed () =
  let roots = List.filter (fun s -> s.parent = None) !recorded in
  let total = List.fold_left (fun a s -> a +. s.dur) 0. roots in
  if total = 0. then 0.
  else List.fold_left (fun a s -> a +. self_time s) 0. roots /. total

let spans () =
  List.rev_map
    (fun s ->
      Obs_json.Obj
        [
          ("id", Obs_json.Int s.id);
          ("name", Obs_json.String s.name);
          ("parent", Obs_json.Int (match s.parent with Some p -> p.id | None -> 0));
          ("start_s", Obs_json.Float (s.start -. !t_origin));
          ("end_s", Obs_json.Float (s.stop -. !t_origin));
          ("calls", Obs_json.Int s.calls);
          ("dur_s", Obs_json.Float s.dur);
        ])
    !recorded
