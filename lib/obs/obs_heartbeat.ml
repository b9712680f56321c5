(* Periodic JSON-lines snapshots of the live registry: the streaming
   complement to the one-shot end-of-run report of Obs_sink.  One line
   per beat, ftspan.heartbeat.v1, appended to a file as the run goes —
   cheap enough (one atomic load per pulse when armed, one branch when
   not) to leave the pulse calls in the round/decide loops permanently. *)

type spec = { file : string; interval_s : float option; every_ops : int option }

let default_interval = 1.0

let parse_spec s =
  let is_opt tok =
    String.starts_with ~prefix:"ops=" tok || float_of_string_opt tok <> None
  in
  let apply acc tok =
    match acc with
    | Error _ as e -> e
    | Ok spec ->
        if String.starts_with ~prefix:"ops=" tok then
          let v = String.sub tok 4 (String.length tok - 4) in
          match int_of_string_opt v with
          | Some k when k >= 1 -> Ok { spec with every_ops = Some k }
          | _ ->
              Error
                (Printf.sprintf "bad heartbeat ops count %S (want ops=K, K >= 1)"
                   v)
        else
          match float_of_string_opt tok with
          | Some dt when dt > 0. -> Ok { spec with interval_s = Some dt }
          | _ ->
              Error
                (Printf.sprintf
                   "bad heartbeat interval %S (want seconds > 0 or ops=K)" tok)
  in
  let rec split opts = function
    | tok :: rest when is_opt tok -> split (tok :: opts) rest
    | rest -> (opts, rest)
  in
  let opts, file_rev = split [] (List.rev (String.split_on_char ',' s)) in
  let file = String.concat "," (List.rev file_rev) in
  if file = "" then Error "metrics stream spec needs a file name"
  else
    List.fold_left apply
      (Ok { file; interval_s = None; every_ops = None })
      opts

let pp_spec ppf spec =
  Format.fprintf ppf "%s" spec.file;
  Option.iter (fun dt -> Format.fprintf ppf ",%g" dt) spec.interval_s;
  Option.iter (fun k -> Format.fprintf ppf ",ops=%d" k) spec.every_ops

(* ------------------------------- state ------------------------------ *)

type state = {
  spec : spec;
  oc : out_channel;
  writer : Mutex.t;
  start_s : float;
  mutable last_beat_s : float;
  mutable beats : int;
  skipped : int Atomic.t;
  mutable prev_counters : (string * int) list;
}

let active : state option Atomic.t = Atomic.make None
let ops = Atomic.make 0

(* Survives [stop] so the CLI can print a summary after closing.  Written
   by whichever domain wins a beat, so atomic. *)
let last_beats = Atomic.make 0
let last_skipped = Atomic.make 0

let json_of_beat st =
  let now = Obs.now_s () in
  let snap = Obs.snapshot () in
  (* Counter deltas since the previous beat; a counter that went
     backwards was reset (bench jobs reset the registry), so report its
     absolute value instead of a negative delta. *)
  let deltas =
    List.filter_map
      (fun (name, v) ->
        let prev =
          Option.value ~default:0 (List.assoc_opt name st.prev_counters)
        in
        let d = if v >= prev then v - prev else v in
        if d <> 0 then Some (name, Obs_json.Int d) else None)
      snap.Obs.counters
  in
  let quantiles =
    List.filter_map
      (fun (name, h) ->
        if h.Obs.h_count = 0 then None
        else
          Some
            ( name,
              Obs_json.Obj
                (("count", Obs_json.Int h.Obs.h_count)
                :: List.map
                     (fun (label, v) -> (label, Obs_json.Float v))
                     h.Obs.h_quantiles) ))
      snap.Obs.histograms
  in
  let gc = Gc.quick_stat () in
  let doc =
    Obs_json.Obj
      [
        ("schema", Obs_json.String "ftspan.heartbeat.v1");
        ("beat", Obs_json.Int st.beats);
        ("skipped", Obs_json.Int (Atomic.get st.skipped));
        ("t_s", Obs_json.Float (now -. st.start_s));
        ("counters", Obs_json.Obj deltas);
        ( "gauges",
          (* levels, not rates: absolute values, no delta *)
          Obs_json.Obj
            (List.map (fun (n, v) -> (n, Obs_json.Int v)) snap.Obs.gauges) );
        ("quantiles", Obs_json.Obj quantiles);
        ( "gc",
          Obs_json.Obj
            [
              ("minor_words", Obs_json.Float gc.Gc.minor_words);
              ("promoted_words", Obs_json.Float gc.Gc.promoted_words);
              ("major_words", Obs_json.Float gc.Gc.major_words);
              ("minor_collections", Obs_json.Int gc.Gc.minor_collections);
              ("major_collections", Obs_json.Int gc.Gc.major_collections);
              ("heap_words", Obs_json.Int gc.Gc.heap_words);
            ] );
      ]
  in
  (doc, snap.Obs.counters, now)

(* Caller holds [st.writer]. *)
let beat st =
  let doc, counters, now = json_of_beat st in
  output_string st.oc (Obs_json.to_string ~indent:false doc);
  output_char st.oc '\n';
  flush st.oc;
  st.prev_counters <- counters;
  st.last_beat_s <- now;
  st.beats <- st.beats + 1;
  Atomic.set last_beats st.beats;
  Atomic.set last_skipped (Atomic.get st.skipped)

(* Best-effort from any domain: a pulse that loses the race skips its
   beat (the next one catches up) — but the loss is counted, both in the
   state (every later beat reports the running total in its "skipped"
   field) and in the registry ("heartbeat.skipped"), so a starved
   reporter is visible instead of silent. *)
let skipped_counter = lazy (Obs.counter "heartbeat.skipped")

let try_beat st =
  if Mutex.try_lock st.writer then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock st.writer)
      (fun () ->
        match Atomic.get active with
        | Some st' when st' == st -> beat st
        | _ -> ())
  else begin
    Atomic.incr st.skipped;
    Obs.Counter.incr (Lazy.force skipped_counter)
  end

let pulse () =
  match Atomic.get active with
  | None -> ()
  | Some st ->
      let due_ops =
        match st.spec.every_ops with
        | Some k -> (Atomic.fetch_and_add ops 1 + 1) mod k = 0
        | None -> false
      in
      let due =
        due_ops
        ||
        match st.spec.interval_s with
        | Some dt -> Obs.now_s () -. st.last_beat_s >= dt
        | None ->
            (* neither mode given: default to a 1 Hz interval *)
            st.spec.every_ops = None
            && Obs.now_s () -. st.last_beat_s >= default_interval
      in
      if due then try_beat st

let stop () =
  match Atomic.exchange active None with
  | None -> ()
  | Some st ->
      (* Wait out any in-flight beat, then write the closing snapshot so
         even a run shorter than one interval leaves a line. *)
      Mutex.lock st.writer;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock st.writer)
        (fun () -> beat st);
      close_out st.oc

let start spec =
  stop ();
  let oc = open_out spec.file in
  let now = Obs.now_s () in
  Atomic.set ops 0;
  Atomic.set last_beats 0;
  Atomic.set last_skipped 0;
  Atomic.set active
    (Some
       {
         spec;
         oc;
         writer = Mutex.create ();
         start_s = now;
         last_beat_s = now;
         beats = 0;
         skipped = Atomic.make 0;
         prev_counters = [];
       })

let beats () = Atomic.get last_beats
let skipped () = Atomic.get last_skipped
