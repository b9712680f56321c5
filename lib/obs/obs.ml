let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Monotonic clamp over the wall clock: the OS clock may step backwards
   (NTP); measurements must not.  The last reading is shared across
   domains, so it advances with a CAS loop — a plain ref would let two
   concurrent readers publish out-of-order values and one of them observe
   a backwards step. *)
let last_now = Atomic.make 0.

let rec clamp_now t =
  let last = Atomic.get last_now in
  if t <= last then last
  else if Atomic.compare_and_set last_now last t then t
  else clamp_now t

let now_s () = clamp_now (Unix.gettimeofday ())

(* --------------------------- domain shards --------------------------- *)

(* One lazily-registered slot per domain id, so the owning domain writes
   its shard with plain stores (no contention, no tearing of neighbours)
   and readers merge over all slots.  The slot array only grows; every
   structural write happens under one global registration mutex, and the
   array itself is republished through an Atomic so lock-free readers
   always see a well-formed (possibly slightly stale) version.

   Memory-model contract: a domain's shard contents are exact to any
   reader that synchronized with that domain after its last write — the
   Exec pool's region hand-off and Domain.join both qualify — and
   best-effort while the writer is still running. *)
module Shards = struct
  type 'a t = { slots : 'a option array Atomic.t; make : unit -> 'a }

  let registration = Mutex.create ()
  let create make = { slots = Atomic.make [||]; make }

  let register t id =
    Mutex.lock registration;
    let arr = Atomic.get t.slots in
    let arr =
      if id < Array.length arr then arr
      else begin
        let grown =
          Array.make (max (id + 1) ((2 * Array.length arr) + 4)) None
        in
        Array.blit arr 0 grown 0 (Array.length arr);
        Atomic.set t.slots grown;
        grown
      end
    in
    let s =
      match arr.(id) with
      | Some s -> s
      | None ->
          let s = t.make () in
          arr.(id) <- Some s;
          s
    in
    Mutex.unlock registration;
    s

  let get t =
    let id = (Domain.self () :> int) in
    let arr = Atomic.get t.slots in
    if id < Array.length arr then
      match Array.unsafe_get arr id with
      | Some s -> s
      | None -> register t id
    else register t id

  let iter f t =
    Array.iter (function Some s -> f s | None -> ()) (Atomic.get t.slots)

  let fold f acc t =
    Array.fold_left
      (fun acc -> function Some s -> f acc s | None -> acc)
      acc (Atomic.get t.slots)
end

module Counter = struct
  type t = { name : string; value : int Atomic.t }

  let name c = c.name
  let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.value n)
  let incr c = add c 1
  let value c = Atomic.get c.value
  let reset c = Atomic.set c.value 0
end

module Timer = struct
  type shard = { mutable total : float; mutable count : int }
  type t = { name : string; shards : shard Shards.t }

  let name t = t.name
  let make name = { name; shards = Shards.create (fun () -> { total = 0.; count = 0 }) }

  let record t dt =
    if Atomic.get enabled_flag then begin
      let s = Shards.get t.shards in
      s.total <- s.total +. dt;
      s.count <- s.count + 1
    end

  let time t f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let t0 = now_s () in
      Fun.protect ~finally:(fun () -> record t (now_s () -. t0)) f
    end

  let total_s t = Shards.fold (fun acc s -> acc +. s.total) 0. t.shards
  let count t = Shards.fold (fun acc s -> acc + s.count) 0 t.shards

  let reset t =
    Shards.iter
      (fun s ->
        s.total <- 0.;
        s.count <- 0)
      t.shards
end

module Histogram = struct
  type scheme = Pow2 | Log_linear

  (* Pow2: upper bounds 2^0 .. 2^30, plus one overflow bucket — the
     right shape for the integer work counts (rounds, cut sizes, message
     bits) the repo histograms.  Values <= 1 land in bucket 0. *)
  let pow2_bounds = Array.init 31 (fun i -> Float.of_int (1 lsl i))

  (* Log_linear: 9 linear sub-buckets per decade over 1e-7 .. 9e3 (HDR
     style) plus one overflow bucket, so latency quantiles resolve to
     ~11% anywhere from 100ns to hours while using 100 buckets. *)
  let log_linear_bounds =
    Array.init (11 * 9) (fun i ->
        let decade = (i / 9) - 7 and unit = (i mod 9) + 1 in
        Float.of_int unit *. (10. ** Float.of_int decade))

  let bounds_of = function
    | Pow2 -> pow2_bounds
    | Log_linear -> log_linear_bounds

  let nbuckets_of scheme = Array.length (bounds_of scheme) + 1

  (* The float aggregates live in their own all-float record, which
     OCaml stores flat: updating them in [observe] writes raw doubles
     instead of allocating a box per field. *)
  type moments = { mutable sum : float; mutable min : float; mutable max : float }

  type shard = { mutable count : int; moments : moments; buckets : int array }

  type t = { name : string; scheme : scheme; shards : shard Shards.t }

  let name h = h.name

  let make name scheme =
    {
      name;
      scheme;
      shards =
        Shards.create (fun () ->
            {
              count = 0;
              moments = { sum = 0.; min = 0.; max = 0. };
              buckets = Array.make (nbuckets_of scheme) 0;
            });
    }

  (* First bucket whose inclusive upper bound covers [v]; the last
     bucket is the overflow (+inf).  Binary search: both bound arrays
     are sorted and small.  The annotation keeps the comparisons on
     unboxed floats; left polymorphic, every [<=] is a call to the
     generic compare.  [nan] fails every [<=] and every [>], so it lands
     in the last bounded bucket. *)
  let bucket_of (bounds : float array) (v : float) =
    let n = Array.length bounds in
    if v <= bounds.(0) then 0
    else if v > bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      (* invariant: bounds.(lo) < v <= bounds.(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let observe h v =
    if Atomic.get enabled_flag then begin
      let s = Shards.get h.shards in
      let m = s.moments in
      if s.count = 0 || v < m.min then m.min <- v;
      if s.count = 0 || v > m.max then m.max <- v;
      s.count <- s.count + 1;
      m.sum <- m.sum +. v;
      let b = bucket_of (bounds_of h.scheme) v in
      s.buckets.(b) <- s.buckets.(b) + 1
    end

  let observe_int h v = observe h (Float.of_int v)

  (* A merged copy across shards — the single source of truth for every
     aggregate read. *)
  let merged h =
    let acc =
      {
        count = 0;
        moments = { sum = 0.; min = 0.; max = 0. };
        buckets = Array.make (nbuckets_of h.scheme) 0;
      }
    in
    Shards.iter
      (fun s ->
        if s.count > 0 then begin
          let a = acc.moments and m = s.moments in
          if acc.count = 0 || m.min < a.min then a.min <- m.min;
          if acc.count = 0 || m.max > a.max then a.max <- m.max;
          acc.count <- acc.count + s.count;
          a.sum <- a.sum +. m.sum;
          Array.iteri
            (fun i c -> acc.buckets.(i) <- acc.buckets.(i) + c)
            s.buckets
        end)
      h.shards;
    acc

  let count h = Shards.fold (fun acc s -> acc + s.count) 0 h.shards
  let sum h = Shards.fold (fun acc s -> acc +. s.moments.sum) 0. h.shards

  (* Quantile estimate over a merged view: find the bucket holding the
     rank-th observation and report its upper bound, clamped into the
     observed [min, max] envelope (which makes the one-sample and
     overflow-bucket answers exact). *)
  let quantile_of_merged bounds s q =
    if s.count = 0 then 0.
    else begin
      let m = s.moments in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int s.count)) in
        if r < 1 then 1 else if r > s.count then s.count else r
      in
      let nb = Array.length s.buckets in
      let est = ref m.max in
      let cum = ref 0 in
      (try
         for i = 0 to nb - 1 do
           cum := !cum + s.buckets.(i);
           if !cum >= rank then begin
             est := (if i < Array.length bounds then bounds.(i) else m.max);
             raise Exit
           end
         done
       with Exit -> ());
      Float.min m.max (Float.max m.min !est)
    end

  let quantile h q =
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Obs.Histogram.quantile: q must be in [0,1]";
    quantile_of_merged (bounds_of h.scheme) (merged h) q

  let reset h =
    Shards.iter
      (fun s ->
        let m = s.moments in
        s.count <- 0;
        m.sum <- 0.;
        m.min <- 0.;
        m.max <- 0.;
        Array.fill s.buckets 0 (Array.length s.buckets) 0)
      h.shards
end

module Gauge = struct
  (* A level, not a rate: each domain tracks its own contribution in a
     private shard ([set] overwrites it, [add] adjusts it) and the
     merged value is the sum of shards — the natural reading for
     queue-depth style gauges where each domain owns part of the
     level. *)
  type shard = { mutable v : int }
  type t = { name : string; shards : shard Shards.t }

  let name g = g.name
  let make name = { name; shards = Shards.create (fun () -> { v = 0 }) }

  let set g n =
    if Atomic.get enabled_flag then (Shards.get g.shards).v <- n

  let add g n =
    if Atomic.get enabled_flag then begin
      let s = Shards.get g.shards in
      s.v <- s.v + n
    end

  let value g = Shards.fold (fun acc s -> acc + s.v) 0 g.shards
  let reset g = Shards.iter (fun s -> s.v <- 0) g.shards
end

(* ------------------------------ spans ------------------------------- *)

(* Spans are accumulated directly into a merged tree: one node per
   distinct (parent path, name), so memory is bounded by the number of
   distinct span paths rather than the number of events.  The tree and
   the stack belong to the main domain, but [registry_mutex] guards the
   structural updates so a snapshot taken from another domain (the
   heartbeat reporter) never races a Hashtbl resize. *)
type span_node = {
  sp_name : string;
  mutable sp_count : int;
  mutable sp_total : float;
  sp_children : (string, span_node) Hashtbl.t;
}

(* Guards the metric registry and the span tree; see [snapshot]. *)
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let make_span_node name =
  { sp_name = name; sp_count = 0; sp_total = 0.; sp_children = Hashtbl.create 4 }

let span_roots : (string, span_node) Hashtbl.t = Hashtbl.create 8
let span_stack : span_node list ref = ref []
let span_hook : ([ `Begin | `End ] -> string -> unit) option ref = ref None
let set_span_hook h = span_hook := h
let run_hook phase name =
  match !span_hook with Some h -> h phase name | None -> ()

let find_span_node table name =
  match Hashtbl.find_opt table name with
  | Some n -> n
  | None ->
      let n = make_span_node name in
      Hashtbl.add table name n;
      n

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let node =
      locked (fun () ->
          let table =
            match !span_stack with
            | [] -> span_roots
            | top :: _ -> top.sp_children
          in
          let node = find_span_node table name in
          span_stack := node :: !span_stack;
          node)
    in
    run_hook `Begin name;
    let t0 = now_s () in
    Fun.protect
      ~finally:(fun () ->
        let dt = now_s () -. t0 in
        locked (fun () ->
            node.sp_count <- node.sp_count + 1;
            node.sp_total <- node.sp_total +. dt;
            match !span_stack with
            | top :: rest when top == node -> span_stack := rest
            | _ -> (* a reset () ran inside the span; the stack is gone *) ());
        run_hook `End name)
      f
  end

(* ----------------------------- registry ----------------------------- *)

type metric =
  | M_counter of Counter.t
  | M_timer of Timer.t
  | M_histogram of Histogram.t
  | M_gauge of Gauge.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let register name make extract kind =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match extract m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs: %S is already registered as a different kind (wanted %s)"
                   name kind))
      | None ->
          let x, m = make () in
          Hashtbl.add registry name m;
          x)

let counter name =
  register name
    (fun () ->
      let c = { Counter.name; value = Atomic.make 0 } in
      (c, M_counter c))
    (function M_counter c -> Some c | _ -> None)
    "counter"

let timer name =
  register name
    (fun () ->
      let t = Timer.make name in
      (t, M_timer t))
    (function M_timer t -> Some t | _ -> None)
    "timer"

let gauge name =
  register name
    (fun () ->
      let g = Gauge.make name in
      (g, M_gauge g))
    (function M_gauge g -> Some g | _ -> None)
    "gauge"

let histogram_scheme scheme kind name =
  register name
    (fun () ->
      let h = Histogram.make name scheme in
      (h, M_histogram h))
    (function
      | M_histogram h when h.Histogram.scheme = scheme -> Some h
      | _ -> None)
    kind

let histogram name = histogram_scheme Histogram.Pow2 "pow2 histogram" name

let histogram_log name =
  histogram_scheme Histogram.Log_linear "log-linear histogram" name

(* ----------------------------- snapshot ----------------------------- *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float option * int) list;
  h_quantiles : (string * float) list;
}

type span_view = {
  s_name : string;
  s_count : int;
  s_total_s : float;
  s_children : span_view list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  timers : (string * (int * float)) list;
  histograms : (string * histogram_view) list;
  spans : span_view list;
}

let quantile_points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]

let view_histogram (h : Histogram.t) =
  let m = Histogram.merged h in
  let mo = m.Histogram.moments in
  let bounds = Histogram.bounds_of h.Histogram.scheme in
  let buckets = ref [] in
  for i = Array.length m.Histogram.buckets - 1 downto 0 do
    if m.Histogram.buckets.(i) > 0 then begin
      let bound =
        if i < Array.length bounds then Some bounds.(i) else None
      in
      buckets := (bound, m.Histogram.buckets.(i)) :: !buckets
    end
  done;
  {
    h_count = m.Histogram.count;
    h_sum = mo.Histogram.sum;
    h_min = (if m.Histogram.count = 0 then 0. else mo.Histogram.min);
    h_max = (if m.Histogram.count = 0 then 0. else mo.Histogram.max);
    h_buckets = !buckets;
    h_quantiles =
      (if m.Histogram.count = 0 then []
       else
         List.map
           (fun (label, q) -> (label, Histogram.quantile_of_merged bounds m q))
           quantile_points);
  }

let rec view_span (n : span_node) =
  {
    s_name = n.sp_name;
    s_count = n.sp_count;
    s_total_s = n.sp_total;
    s_children = view_span_table n.sp_children;
  }

and view_span_table table =
  Hashtbl.fold (fun _ n acc -> view_span n :: acc) table []
  |> List.filter (fun s -> s.s_count > 0 || s.s_children <> [])
  |> List.sort (fun a b -> compare a.s_name b.s_name)

let snapshot () =
  locked (fun () ->
      let counters = ref []
      and gauges = ref []
      and timers = ref []
      and histograms = ref [] in
      Hashtbl.iter
        (fun name -> function
          | M_counter c -> counters := (name, Counter.value c) :: !counters
          | M_gauge g -> gauges := (name, Gauge.value g) :: !gauges
          | M_timer t ->
              timers := (name, (Timer.count t, Timer.total_s t)) :: !timers
          | M_histogram h -> histograms := (name, view_histogram h) :: !histograms)
        registry;
      let by_name (a, _) (b, _) = compare (a : string) b in
      {
        counters = List.sort by_name !counters;
        gauges = List.sort by_name !gauges;
        timers = List.sort by_name !timers;
        histograms = List.sort by_name !histograms;
        spans = view_span_table span_roots;
      })

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | M_counter c -> Counter.reset c
          | M_gauge g -> Gauge.reset g
          | M_timer t -> Timer.reset t
          | M_histogram h -> Histogram.reset h)
        registry;
      Hashtbl.reset span_roots;
      span_stack := [])
