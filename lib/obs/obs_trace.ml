type payload =
  | Span_begin of string
  | Span_end of string
  | Lbc_begin of { edge : int; u : int; v : int; t : int; alpha : int }
  | Lbc_end of { edge : int; yes : bool; bfs_rounds : int; cut_size : int }
  | Greedy_edge of { edge : int; kept : bool; weight : float }
  | Congest_round of { round : int; messages : int; bits : int }
  | Chaos_event of { kind : string; cid : int; src : int; dst : int }
  | Msg_send of { cid : int; src : int; dst : int; at : float; bits : int }
  | Msg_deliver of { cid : int; src : int; dst : int; at : float }
  | Sync_pulse of { node : int; pulse : int; at : float }
  | Cluster_stats of { partition : int; clusters : int; max_depth : int }
  | Phase of { name : string; index : int }
  | Counter_sample of { name : string; value : int }
  | Mark of string

type event = { seq : int; ts_s : float; payload : payload }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let default_capacity = 1 lsl 16

(* Causal ids are minted in emission order from one process-global
   stream, so a seeded replay (same sends in the same order) assigns the
   same ids — the property the analyzer's cross-run determinism and the
   cid-keyed sampler both rely on.  {!start} rewinds the stream. *)
let cid_counter = Atomic.make 0
let mint_cid () = Atomic.fetch_and_add cid_counter 1

(* ----------------------------- sampling ----------------------------- *)

type sample = Rate of float | One_in of int

let default_sample_seed = 1

(* Head sampling (the Dapper family's cheap variant): each candidate
   event draws once from a private seeded stream, so a sampled run
   replays bit-for-bit for a fixed seed — the same discipline as the
   chaos fault streams.  Structural events (spans, phases, marks) and
   rare fault-recovery events always pass; LBC begin/end draw once per
   pair so exported traces keep their B/E balance. *)
type sampler = {
  smp_keep : unit -> bool;  (* one draw from the private stream *)
  smp_lbc : (int, bool) Hashtbl.t;  (* pending Lbc_begin verdicts by edge *)
  smp_cid : (int, bool) Hashtbl.t;  (* message-lifecycle verdicts by cid *)
}

let keep_always = function
  | Span_begin _ | Span_end _ | Phase _ | Mark _ | Sync_pulse _ -> true
  | Chaos_event { kind = "crash" | "recover" | "giveup"; _ } -> true
  | _ -> false

(* Called under [lock].  Message events are pair-sampled by causal id:
   the first event of a lifecycle draws the verdict and every later
   event with the same cid (deliveries, chaos fates, retransmits,
   acks) reuses it — a kept message keeps its whole life, a dropped one
   vanishes entirely.  Verdicts are retained for the run: a lifecycle
   has no single closing event. *)
let admit smp payload =
  let by_cid cid =
    if cid < 0 then smp.smp_keep ()
    else
      match Hashtbl.find_opt smp.smp_cid cid with
      | Some keep -> keep
      | None ->
          let keep = smp.smp_keep () in
          Hashtbl.add smp.smp_cid cid keep;
          keep
  in
  keep_always payload
  ||
  match payload with
  | Lbc_begin { edge; _ } ->
      let keep = smp.smp_keep () in
      Hashtbl.add smp.smp_lbc edge keep;
      keep
  | Lbc_end { edge; _ } -> (
      match Hashtbl.find_opt smp.smp_lbc edge with
      | Some keep ->
          Hashtbl.remove smp.smp_lbc edge;
          keep
      | None -> smp.smp_keep ())
  | Msg_send { cid; _ } | Msg_deliver { cid; _ } | Chaos_event { cid; _ } ->
      by_cid cid
  | _ -> smp.smp_keep ()

(* Ring state, guarded by [lock] (multi-domain producers: the parallel
   batched greedy emits from worker domains).  [seen_count] numbers every
   emission; [stored_count] counts the ones the sampler admitted, and
   indexes the ring, so sampled-out events leave no holes. *)
let lock = Mutex.create ()
let placeholder = { seq = -1; ts_s = 0.; payload = Mark "" }
let buf = ref (Array.make 0 placeholder)
let seen_count = ref 0
let stored_count = ref 0
let origin = ref 0.
let sampler : sampler option ref = ref None

let emit payload =
  if Atomic.get enabled_flag then begin
    Mutex.lock lock;
    let seq = !seen_count in
    seen_count := seq + 1;
    let keep =
      match !sampler with None -> true | Some smp -> admit smp payload
    in
    if keep then begin
      let ev = { seq; ts_s = Obs.now_s () -. !origin; payload } in
      let cap = Array.length !buf in
      if cap > 0 then !buf.(!stored_count mod cap) <- ev;
      stored_count := !stored_count + 1
    end;
    Mutex.unlock lock
  end

let span_hook phase name =
  emit (match phase with `Begin -> Span_begin name | `End -> Span_end name)

let start ?(capacity = default_capacity) ?sample
    ?(sample_seed = default_sample_seed) () =
  if capacity < 1 then invalid_arg "Obs_trace.start: capacity must be >= 1";
  (match sample with
  | Some (Rate r) when not (r > 0. && r <= 1.) ->
      invalid_arg "Obs_trace.start: sample rate must be in (0, 1]"
  | Some (One_in n) when n < 1 ->
      invalid_arg "Obs_trace.start: sample 1/N needs N >= 1"
  | _ -> ());
  Mutex.lock lock;
  buf := Array.make capacity placeholder;
  seen_count := 0;
  stored_count := 0;
  origin := Obs.now_s ();
  Atomic.set cid_counter 0;
  sampler :=
    (match sample with
    | None | Some (One_in 1) -> None
    | Some (Rate r) when r >= 1. -> None
    | Some s ->
        let st = Random.State.make [| 0x5bd1e995; sample_seed |] in
        let keep =
          match s with
          | Rate r -> fun () -> Random.State.float st 1. < r
          | One_in n -> fun () -> Random.State.int st n = 0
        in
        Some
          {
            smp_keep = keep;
            smp_lbc = Hashtbl.create 64;
            smp_cid = Hashtbl.create 256;
          });
  Mutex.unlock lock;
  Obs.set_span_hook (Some span_hook);
  Atomic.set enabled_flag true

let stop () =
  Atomic.set enabled_flag false;
  Obs.set_span_hook None

(* Read under [lock]: worker domains may be emitting. *)
let seen () = Mutex.protect lock (fun () -> !seen_count)
let sampled () = Mutex.protect lock (fun () -> !stored_count)
let dropped () =
  Mutex.protect lock (fun () ->
      !seen_count - min !stored_count (Array.length !buf))

let events () =
  Mutex.lock lock;
  let cap = Array.length !buf in
  let kept = min !stored_count cap in
  let first = !stored_count - kept in
  let out = List.init kept (fun i -> !buf.((first + i) mod cap)) in
  Mutex.unlock lock;
  out

(* ------------------------------ export ------------------------------ *)

type format = Native | Chrome

type spec = {
  file : string;
  format : format;
  sample : sample option;
  sample_seed : int;
}

let parse_sample s =
  match String.index_opt s '/' with
  | Some i -> (
      let num = String.sub s 0 i in
      let den = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt num, int_of_string_opt den) with
      | Some 1, Some n when n >= 1 -> Ok (One_in n)
      | _ ->
          Error
            (Printf.sprintf "bad trace sample %S (want a rate in (0,1] or 1/N)"
               s))
  | None -> (
      match float_of_string_opt s with
      | Some r when r > 0. && r <= 1. -> Ok (Rate r)
      | _ ->
          Error
            (Printf.sprintf "bad trace sample %S (want a rate in (0,1] or 1/N)"
               s))

(* Option tokens are recognized from the right end of the spec, so a
   comma in the file name still parses: everything left of the last
   run of recognized tokens is the file. *)
let parse_spec s =
  let is_opt tok =
    tok = "chrome" || tok = "native"
    || String.starts_with ~prefix:"sample=" tok
    || String.starts_with ~prefix:"seed=" tok
  in
  let apply acc tok =
    match acc with
    | Error _ as e -> e
    | Ok spec ->
        if tok = "chrome" then Ok { spec with format = Chrome }
        else if tok = "native" then Ok { spec with format = Native }
        else if String.starts_with ~prefix:"sample=" tok then
          let v = String.sub tok 7 (String.length tok - 7) in
          Result.map (fun smp -> { spec with sample = Some smp }) (parse_sample v)
        else
          let v = String.sub tok 5 (String.length tok - 5) in
          match int_of_string_opt v with
          | Some n -> Ok { spec with sample_seed = n }
          | None -> Error (Printf.sprintf "bad trace sample seed %S" v)
  in
  let rec split opts = function
    | tok :: rest when is_opt tok -> split (tok :: opts) rest
    | rest -> (opts, rest)
  in
  let opts, file_rev = split [] (List.rev (String.split_on_char ',' s)) in
  let file = String.concat "," (List.rev file_rev) in
  if file = "" then Error "trace spec needs a file name"
  else
    List.fold_left apply
      (Ok
         {
           file;
           format = Native;
           sample = None;
           sample_seed = default_sample_seed;
         })
      opts

let pp_sample ppf = function
  | Rate r -> Format.fprintf ppf "sample=%g" r
  | One_in n -> Format.fprintf ppf "sample=1/%d" n

let pp_spec ppf spec =
  Format.fprintf ppf "%s%s" spec.file
    (match spec.format with Native -> "" | Chrome -> ",chrome");
  (match spec.sample with
  | None -> ()
  | Some smp -> Format.fprintf ppf ",%a" pp_sample smp);
  if spec.sample_seed <> default_sample_seed then
    Format.fprintf ppf ",seed=%d" spec.sample_seed

let json_of_payload p =
  let open Obs_json in
  match p with
  | Span_begin name -> [ ("type", String "span_begin"); ("name", String name) ]
  | Span_end name -> [ ("type", String "span_end"); ("name", String name) ]
  | Lbc_begin { edge; u; v; t; alpha } ->
      [
        ("type", String "lbc_begin"); ("edge", Int edge); ("u", Int u);
        ("v", Int v); ("t", Int t); ("alpha", Int alpha);
      ]
  | Lbc_end { edge; yes; bfs_rounds; cut_size } ->
      [
        ("type", String "lbc_end"); ("edge", Int edge);
        ("verdict", String (if yes then "yes" else "no"));
        ("bfs_rounds", Int bfs_rounds); ("cut_size", Int cut_size);
      ]
  | Greedy_edge { edge; kept; weight } ->
      [
        ("type", String "greedy_edge"); ("edge", Int edge);
        ("kept", Bool kept); ("weight", Float weight);
      ]
  | Congest_round { round; messages; bits } ->
      [
        ("type", String "congest_round"); ("round", Int round);
        ("messages", Int messages); ("bits", Int bits);
      ]
  | Chaos_event { kind; cid; src; dst } ->
      [
        ("type", String "chaos"); ("kind", String kind); ("cid", Int cid);
        ("src", Int src); ("dst", Int dst);
      ]
  | Msg_send { cid; src; dst; at; bits } ->
      [
        ("type", String "msg_send"); ("cid", Int cid); ("src", Int src);
        ("dst", Int dst); ("at", Float at); ("bits", Int bits);
      ]
  | Msg_deliver { cid; src; dst; at } ->
      [
        ("type", String "msg_deliver"); ("cid", Int cid); ("src", Int src);
        ("dst", Int dst); ("at", Float at);
      ]
  | Sync_pulse { node; pulse; at } ->
      [
        ("type", String "sync_pulse"); ("node", Int node);
        ("pulse", Int pulse); ("at", Float at);
      ]
  | Cluster_stats { partition; clusters; max_depth } ->
      [
        ("type", String "cluster_stats"); ("partition", Int partition);
        ("clusters", Int clusters); ("max_depth", Int max_depth);
      ]
  | Phase { name; index } ->
      [ ("type", String "phase"); ("name", String name); ("index", Int index) ]
  | Counter_sample { name; value } ->
      [ ("type", String "counter"); ("name", String name); ("value", Int value) ]
  | Mark name -> [ ("type", String "mark"); ("name", String name) ]

let to_json () =
  let open Obs_json in
  Obj
    [
      ("schema", String "ftspan.trace.v1");
      ("created_unix", Float (Unix.time ()));
      ("seen", Int (seen ()));
      ("sampled", Int (sampled ()));
      ("dropped", Int (dropped ()));
      ( "events",
        List
          (List.map
             (fun ev ->
               Obj
                 (("seq", Int ev.seq)
                 :: ("ts_s", Float ev.ts_s)
                 :: json_of_payload ev.payload))
             (events ())) );
    ]

(* Chrome trace-event format: every record carries name/ph/ts/pid/tid
   (the invariant chrome://tracing and Perfetto importers rely on); ts is
   in microseconds.  One synthetic process, one thread. *)
let chrome_event ?(args = []) ~name ~ph ~ts_s extra =
  let open Obs_json in
  Obj
    (("name", String name)
    :: ("ph", String ph)
    :: ("ts", Float (ts_s *. 1e6))
    :: ("pid", Int 1)
    :: ("tid", Int 1)
    :: (extra @ (if args = [] then [] else [ ("args", Obj args) ])))

let to_chrome () =
  let open Obs_json in
  let instant ?args ~name ts_s =
    chrome_event ?args ~name ~ph:"i" ~ts_s [ ("s", String "t") ]
  in
  let counter ~name ts_s args = chrome_event ~args ~name ~ph:"C" ~ts_s [] in
  (* [depth] balances B/E across the retained window: an End whose Begin
     was overwritten by the ring would otherwise unbalance the stack the
     importer reconstructs. *)
  let depth = ref 0 in
  let convert ev =
    let ts_s = ev.ts_s in
    match ev.payload with
    | Span_begin name ->
        incr depth;
        Some (chrome_event ~name ~ph:"B" ~ts_s [])
    | Span_end name ->
        if !depth = 0 then None
        else begin
          decr depth;
          Some (chrome_event ~name ~ph:"E" ~ts_s [])
        end
    | Lbc_begin { edge; u; v; t; alpha } ->
        incr depth;
        Some
          (chrome_event ~name:"lbc.decide" ~ph:"B" ~ts_s
             ~args:
               [
                 ("edge", Int edge); ("u", Int u); ("v", Int v);
                 ("t", Int t); ("alpha", Int alpha);
               ]
             [])
    | Lbc_end { edge; yes; bfs_rounds; cut_size } ->
        if !depth = 0 then None
        else begin
          decr depth;
          Some
            (chrome_event ~name:"lbc.decide" ~ph:"E" ~ts_s
               ~args:
                 [
                   ("edge", Int edge);
                   ("verdict", String (if yes then "yes" else "no"));
                   ("bfs_rounds", Int bfs_rounds); ("cut_size", Int cut_size);
                 ]
               [])
        end
    | Greedy_edge { edge; kept; weight } ->
        Some
          (instant
             ~name:(if kept then "greedy.keep" else "greedy.reject")
             ~args:[ ("edge", Int edge); ("weight", Float weight) ]
             ts_s)
    | Congest_round { round; messages; bits } ->
        Some
          (counter ~name:"net.traffic" ts_s
             [ ("round", Int round); ("messages", Int messages); ("bits", Int bits) ])
    | Chaos_event { kind; cid; src; dst } ->
        Some
          (instant ~name:("chaos." ^ kind)
             ~args:[ ("cid", Int cid); ("src", Int src); ("dst", Int dst) ]
             ts_s)
    | Msg_send { cid; src; dst; at; bits } ->
        Some
          (instant ~name:"msg.send"
             ~args:
               [
                 ("cid", Int cid); ("src", Int src); ("dst", Int dst);
                 ("at", Float at); ("bits", Int bits);
               ]
             ts_s)
    | Msg_deliver { cid; src; dst; at } ->
        Some
          (instant ~name:"msg.deliver"
             ~args:
               [
                 ("cid", Int cid); ("src", Int src); ("dst", Int dst);
                 ("at", Float at);
               ]
             ts_s)
    | Sync_pulse { node; pulse; at } ->
        Some
          (instant ~name:"sync.pulse"
             ~args:[ ("node", Int node); ("pulse", Int pulse); ("at", Float at) ]
             ts_s)
    | Cluster_stats { partition; clusters; max_depth } ->
        Some
          (instant ~name:"decomposition.partition"
             ~args:
               [
                 ("partition", Int partition); ("clusters", Int clusters);
                 ("max_depth", Int max_depth);
               ]
             ts_s)
    | Phase { name; index } ->
        Some (instant ~name ~args:[ ("index", Int index) ] ts_s)
    | Counter_sample { name; value } ->
        Some (counter ~name ts_s [ ("value", Int value) ])
    | Mark name -> Some (instant ~name ts_s)
  in
  let meta =
    chrome_event ~name:"process_name" ~ph:"M" ~ts_s:0.
      ~args:[ ("name", String "ftspan") ]
      []
  in
  List (meta :: List.filter_map convert (events ()))

let write ~file fmt =
  let doc = match fmt with Native -> to_json () | Chrome -> to_chrome () in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Obs_json.to_channel oc doc)
