type op =
  | Insert of { u : int; v : int; w : float }
  | Delete_edge of { u : int; v : int }
  | Delete_vertex of int

type opts = {
  mode : Fault.mode;
  k : int;
  f : int;
  pool : Exec.Pool.t option;
}

let default_opts = { mode = Fault.VFT; k = 2; f = 1; pool = None }

let opts ?(mode = default_opts.mode) ?(k = default_opts.k)
    ?(f = default_opts.f) ?pool () =
  if k < 1 then invalid_arg "Dynamic.opts: k must be >= 1";
  if f < 0 then invalid_arg "Dynamic.opts: f must be >= 0";
  { mode; k; f; pool }

(* Live-edge store.  [Graph.t] is insert-only, so the handle owns the
   authoritative edge records and materializes graphs from them: the
   spanner graph eagerly (it is what LBC decides against) and the full
   live graph lazily per epoch (the query snapshot). *)
type estate = {
  eu : int;
  ev : int;
  ew : float;
  mutable alive : bool;
  mutable kept : bool;
}

type t = {
  o : opts;
  nv : int;
  mutable edges : estate array;  (* insertion order; grows, never shrinks *)
  mutable n_edges : int;
  by_pair : (int * int, int) Hashtbl.t;  (* live (u<v) pair -> edge index *)
  adj : int list array;  (* every edge index ever incident, newest first *)
  retired : bool array;  (* vertices removed by Delete_vertex *)
  mutable live : int;  (* live edge count *)
  mutable kept_n : int;  (* spanner edge count *)
  mutable spanner : Graph.t;  (* graph of the kept live edges *)
  mutable spanner_dirty : bool;  (* deletions invalidate [spanner] *)
  mutable cur_epoch : int;
  mutable snap : (int * Selection.t) option;  (* epoch-tagged cache *)
  mutable busy : bool;  (* re-entrancy guard *)
  mutable last_w : float;
  mutable monotone : bool;
  (* Repair-region BFS scratch, stamp-cleared: a repair costs the
     neighborhood it walks, not O(n). *)
  region_ws : Bfs.Workspace.t;
  ws : Lbc.Workspace.t;
}

let m_inserts = Obs.counter "dynamic.inserts"
let m_insert_kept = Obs.counter "dynamic.insert.kept"
let m_del_edges = Obs.counter "dynamic.deletes.edges"
let m_del_vertices = Obs.counter "dynamic.deletes.vertices"
let m_repairs = Obs.counter "dynamic.repair.calls"
let m_touched = Obs.counter "dynamic.repair.touched_vertices"
let m_rechecks = Obs.counter "dynamic.repair.rechecks"
let m_readded = Obs.counter "dynamic.repair.readded"
let m_shed_c = Obs.counter "dynamic.repair.shed"
let m_epochs = Obs.counter "dynamic.epochs"
let m_queries = Obs.counter "dynamic.queries"
let m_query_batches = Obs.counter "dynamic.query_batches"
let h_region = Obs.histogram "dynamic.repair.region_size"
let h_qlat = Obs.histogram_log "dynamic.query_latency"

let key u v = if u < v then (u, v) else (v, u)
let hops_bound t = (2 * t.o.k) - 1

let guard t what =
  if t.busy then
    invalid_arg (Printf.sprintf "Dynamic.%s: handle is mid-update" what)

let check_vertex t what x =
  if x < 0 || x >= t.nv then
    invalid_arg (Printf.sprintf "Dynamic.%s: vertex %d out of range" what x)

(* The one materializer: a graph of the live edges in store order, only
   the kept ones when [kept_only], plus the ids it gave the kept ones.
   O(live) — never a greedy re-run. *)
let materialize t ~kept_only =
  let g = Graph.create t.nv in
  let kept = ref [] in
  for i = 0 to t.n_edges - 1 do
    let e = t.edges.(i) in
    if e.alive && (e.kept || not kept_only) then begin
      let id = Graph.add_edge g e.eu e.ev ~w:e.ew in
      if e.kept then kept := id :: !kept
    end
  done;
  (g, !kept)

(* Deletions mark H stale; the next LBC decision re-materializes it, so a
   burst of deletions pays that once. *)
let refresh_spanner t =
  if t.spanner_dirty then begin
    t.spanner <- fst (materialize t ~kept_only:true);
    t.spanner_dirty <- false
  end

let no_edge = { eu = 0; ev = 0; ew = 0.; alive = false; kept = false }

let store_edge t u v w =
  if t.n_edges = Array.length t.edges then begin
    let bigger = Array.make (max 16 (2 * Array.length t.edges)) no_edge in
    Array.blit t.edges 0 bigger 0 t.n_edges;
    t.edges <- bigger
  end;
  let u, v = key u v in
  let idx = t.n_edges in
  t.edges.(idx) <- { eu = u; ev = v; ew = w; alive = true; kept = false };
  t.n_edges <- idx + 1;
  Hashtbl.replace t.by_pair (u, v) idx;
  t.adj.(u) <- idx :: t.adj.(u);
  t.adj.(v) <- idx :: t.adj.(v);
  t.live <- t.live + 1;
  idx

(* The Algorithm 3 keep step: decide edge [idx] against the current H,
   searching from [u] towards [v]; YES keeps it. *)
let admit t idx ~u ~v =
  refresh_spanner t;
  let e = t.edges.(idx) in
  match
    Lbc.decide ~ws:t.ws ~mode:t.o.mode t.spanner ~u ~v ~t:(hops_bound t)
      ~alpha:t.o.f
  with
  | Lbc.Yes _ ->
      e.kept <- true;
      t.kept_n <- t.kept_n + 1;
      ignore (Graph.add_edge t.spanner u v ~w:e.ew);
      true
  | Lbc.No _ -> false

type stats = {
  inserted : int;
  kept : int;
  deleted_edges : int;
  deleted_vertices : int;
  touched_vertices : int;
  rechecked : int;
  readded : int;
  shed : int;
  epoch : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<h>+%d (kept %d) -%d edges -%d vertices; repair: touched %d, \
     rechecked %d, readded %d, shed %d; epoch %d@]"
    s.inserted s.kept s.deleted_edges s.deleted_vertices s.touched_vertices
    s.rechecked s.readded s.shed s.epoch

let no_stats =
  {
    inserted = 0;
    kept = 0;
    deleted_edges = 0;
    deleted_vertices = 0;
    touched_vertices = 0;
    rechecked = 0;
    readded = 0;
    shed = 0;
    epoch = 0;
  }

(* [s] is the running accounting of one [apply]. *)
let insert_edge t s u v w =
  check_vertex t "apply" u;
  check_vertex t "apply" v;
  if u = v then invalid_arg "Dynamic.apply: self-loop insert";
  if t.retired.(u) || t.retired.(v) then
    invalid_arg "Dynamic.apply: insert on a retired vertex";
  if Hashtbl.mem t.by_pair (key u v) then
    invalid_arg (Printf.sprintf "Dynamic.apply: duplicate edge {%d,%d}" u v);
  if not (Graph.valid_weight w) then
    invalid_arg "Dynamic.apply: weight must be finite and > 0";
  if w < t.last_w then t.monotone <- false;
  t.last_w <- max t.last_w w;
  let idx = store_edge t u v w in
  s := { !s with inserted = !s.inserted + 1 };
  Obs.Counter.incr m_inserts;
  if admit t idx ~u ~v then begin
    s := { !s with kept = !s.kept + 1 };
    Obs.Counter.incr m_insert_kept
  end

(* Depth-bounded multi-source BFS over the OLD spanner graph (deleted
   edges still present — a sound over-approximation of the affected
   region: any rejected edge whose [<= 2k-1]-hop detour used a deleted
   spanner edge has an endpoint within [2k-1] old-spanner hops of that
   edge).  Cost is proportional to the region walked, not n.  Every walk
   is accounted: its size adds to [touched_vertices], the touched counter,
   the region histogram and, when tracing, a counter sample. *)
let affected_region t s ~seeds =
  let ws = t.region_ws in
  let touched = Bfs.seeded ws t.spanner seeds ~max_hops:(hops_bound t) in
  s := { !s with touched_vertices = !s.touched_vertices + touched };
  Obs.Counter.add m_touched touched;
  Obs.Histogram.observe_int h_region touched;
  if Obs_trace.enabled () then
    Obs_trace.emit
      (Obs_trace.Counter_sample
         { name = "dynamic.repair.touched_vertices"; value = touched });
  List.init touched (Bfs.Workspace.reached ws)

(* Live edges anchored in [region] whose kept flag is [kept], in
   ascending (weight, index) order — the greedy's order, so a given state
   always repairs the same way. *)
let anchored t region ~kept =
  let ids = ref [] in
  List.iter
    (fun x ->
      List.iter
        (fun idx ->
          let e = t.edges.(idx) in
          if e.alive && e.kept = kept then ids := idx :: !ids)
        t.adj.(x))
    region;
  List.sort_uniq compare !ids
  |> List.map (fun idx -> (t.edges.(idx).ew, idx))
  |> List.sort compare
  |> List.map snd

(* Add-only pass over [region] against a re-materialized H: re-admit the
   candidates the lost edges may have been covering. *)
let recheck_region t s region =
  t.spanner_dirty <- true;
  List.iter
    (fun idx ->
      let e = t.edges.(idx) in
      s := { !s with rechecked = !s.rechecked + 1 };
      Obs.Counter.incr m_rechecks;
      if admit t idx ~u:e.eu ~v:e.ev then begin
        s := { !s with readded = !s.readded + 1 };
        Obs.Counter.incr m_readded
      end)
    (anchored t region ~kept:false)

(* Targeted repair after a group of deletions whose kept edges touched
   [seeds].  Never a rebuild: the spanner graph is re-materialized once
   (O(|H|)), and greedy re-decisions run only over the affected
   neighborhood. *)
let repair t s ~seeds =
  Obs.Counter.incr m_repairs;
  (* Region on the OLD spanner, before the deletions take effect. *)
  let region = affected_region t s ~seeds in
  recheck_region t s region;
  refresh_spanner t;
  (* Shed probe, heaviest first: a NO on [H \ e] means the spanner
     keeps alpha+1 short detours without [e] — the edge is redundant
     (the repair may have restored coverage the deleted edges used to
     provide).  One pass, no cascade; [exclude] accumulates so later
     probes see earlier sheds without re-materializing.  Reversing the
     ascending listing gives descending (weight, index) order, since no
     two pairs are equal. *)
  let excluded = ref [] in
  let shed_seeds = ref [] in
  List.iter
    (fun idx ->
      let e = t.edges.(idx) in
      match Graph.find_edge t.spanner e.eu e.ev with
      | None -> ()
      | Some gid -> (
          match
            Lbc.decide ~ws:t.ws ~exclude:(gid :: !excluded) ~mode:t.o.mode
              t.spanner ~u:e.eu ~v:e.ev ~t:(hops_bound t) ~alpha:t.o.f
          with
          | Lbc.No _ ->
              e.kept <- false;
              t.kept_n <- t.kept_n - 1;
              excluded := gid :: !excluded;
              shed_seeds := e.eu :: e.ev :: !shed_seeds;
              s := { !s with shed = !s.shed + 1 };
              Obs.Counter.incr m_shed_c
          | Lbc.Yes _ -> ()))
    (List.rev (anchored t region ~kept:true));
  if !shed_seeds <> [] then
    (* Shedding can invalidate NO verdicts of edges whose detours used
       a shed edge; those live within [2k-1] old-spanner hops of it.
       One final add-only re-check restores the invariant (adds never
       invalidate other verdicts, so this terminates). *)
    recheck_region t s (affected_region t s ~seeds:!shed_seeds)

let apply t ops =
  guard t "apply";
  t.busy <- true;
  Fun.protect
    ~finally:(fun () -> t.busy <- false)
    (fun () ->
      if Obs_trace.enabled () then
        Obs_trace.emit
          (Obs_trace.Phase { name = "dynamic.apply"; index = t.cur_epoch });
      let s = ref no_stats in
      let changed = ref false in
      let pending_seeds = ref [] in
      let flush_repair () =
        if !pending_seeds <> [] then begin
          let seeds = List.rev !pending_seeds in
          pending_seeds := [];
          repair t s ~seeds
        end
      in
      let delete_edge_idx idx =
        let e = t.edges.(idx) in
        e.alive <- false;
        Hashtbl.remove t.by_pair (key e.eu e.ev);
        t.live <- t.live - 1;
        s := { !s with deleted_edges = !s.deleted_edges + 1 };
        Obs.Counter.incr m_del_edges;
        if e.kept then begin
          e.kept <- false;
          t.kept_n <- t.kept_n - 1;
          (* The spanner graph stays stale until [repair] has walked the
             old neighborhood; [flush_repair] runs before any decision
             that could observe it. *)
          pending_seeds := e.ev :: e.eu :: !pending_seeds
        end
      in
      List.iter
        (fun op ->
          match op with
          | Insert { u; v; w } ->
              flush_repair ();
              changed := true;
              insert_edge t s u v w
          | Delete_edge { u; v } -> (
              check_vertex t "apply" u;
              check_vertex t "apply" v;
              match Hashtbl.find_opt t.by_pair (key u v) with
              | None ->
                  invalid_arg
                    (Printf.sprintf "Dynamic.apply: no live edge {%d,%d}" u v)
              | Some idx ->
                  changed := true;
                  delete_edge_idx idx)
          | Delete_vertex x ->
              check_vertex t "apply" x;
              if t.retired.(x) then
                invalid_arg
                  (Printf.sprintf "Dynamic.apply: vertex %d already retired" x);
              changed := true;
              t.retired.(x) <- true;
              s := { !s with deleted_vertices = !s.deleted_vertices + 1 };
              Obs.Counter.incr m_del_vertices;
              List.iter
                (fun idx -> if t.edges.(idx).alive then delete_edge_idx idx)
                t.adj.(x))
        ops;
      flush_repair ();
      if !changed then begin
        t.cur_epoch <- t.cur_epoch + 1;
        Obs.Counter.incr m_epochs;
        t.snap <- None
      end;
      { !s with epoch = t.cur_epoch })

(* The seed is one sequential [Poly_greedy.build] — the decide->commit
   loop every construction shares — recorded in g's id order with its
   verdicts as the kept flags; H is then materialized once. *)
let create ?(opts = default_opts) g =
  let nv = Graph.n g in
  let t =
    {
      o = opts;
      nv;
      edges = Array.make (Graph.m g) no_edge;
      n_edges = 0;
      by_pair = Hashtbl.create 64;
      adj = Array.make (max 1 nv) [];
      retired = Array.make (max 1 nv) false;
      live = 0;
      kept_n = 0;
      spanner = g;  (* dirty: [refresh_spanner] below materializes H *)
      spanner_dirty = true;
      cur_epoch = 0;
      snap = None;
      busy = false;
      last_w = neg_infinity;
      monotone = true;
      region_ws = Bfs.Workspace.create ();
      ws = Lbc.Workspace.create ();
    }
  in
  let sel = Poly_greedy.build ~mode:opts.mode ~k:opts.k ~f:opts.f g in
  Graph.iter_edges g (fun e ->
      let idx = store_edge t e.Graph.u e.Graph.v e.Graph.w in
      t.edges.(idx).kept <- sel.Selection.selected.(e.Graph.id);
      t.last_w <- max t.last_w e.Graph.w);
  t.kept_n <- sel.Selection.size;
  refresh_spanner t;
  Obs.Counter.add m_inserts (Graph.m g);
  Obs.Counter.add m_insert_kept sel.Selection.size;
  t

type query_result = { qu : int; qv : int; distance : float; hops : int }

let pp_query_result ppf r =
  if r.hops < 0 then Format.fprintf ppf "@[<h>d(%d,%d) = inf@]" r.qu r.qv
  else
    Format.fprintf ppf "@[<h>d(%d,%d) = %g (%d hops)@]" r.qu r.qv r.distance
      r.hops

let snapshot t =
  guard t "snapshot";
  match t.snap with
  | Some (e, sel) when e = t.cur_epoch -> sel
  | _ ->
      let g, kept = materialize t ~kept_only:false in
      let sel = Selection.of_ids g kept in
      t.snap <- Some (t.cur_epoch, sel);
      sel

let query_batch t ~faults pairs =
  guard t "query_batch";
  let sel = snapshot t in
  let g = sel.Selection.source in
  Array.iter
    (fun (u, v) ->
      check_vertex t "query_batch" u;
      check_vertex t "query_batch" v)
    pairs;
  let nq = Array.length pairs in
  Obs.Counter.incr m_query_batches;
  Obs.Counter.add m_queries nq;
  if Obs_trace.enabled () then
    Obs_trace.emit
      (Obs_trace.Phase { name = "dynamic.query_batch"; index = t.cur_epoch });
  let bv, _ = Fault.masks g faults in
  let h_blocked =
    Selection.blocked_edges sel
      (match faults.Fault.mode with
      | Fault.EFT -> faults.Fault.members
      | Fault.VFT -> [])
  in
  let unit_graph = Graph.is_unit_weighted g in
  let max_hops = max 1 (Graph.n g) in
  let results =
    Array.make nq { qu = 0; qv = 0; distance = infinity; hops = -1 }
  in
  let epoch0 = t.cur_epoch in
  let answer i =
    let u, v = pairs.(i) in
    let t0 = Obs.now_s () in
    let r =
      if u = v then { qu = u; qv = v; distance = 0.; hops = 0 }
      else
        let path =
          if unit_graph then
            Bfs.hop_bounded_path ?blocked_vertices:bv ~blocked_edges:h_blocked
              g ~src:u ~dst:v ~max_hops
          else
            Dijkstra.shortest_path ?blocked_vertices:bv
              ~blocked_edges:h_blocked g ~src:u ~dst:v
        in
        match path with
        | None -> { qu = u; qv = v; distance = infinity; hops = -1 }
        | Some p ->
            {
              qu = u;
              qv = v;
              distance =
                (if unit_graph then float_of_int (Path.hops p)
                 else Path.weight g p);
              hops = Path.hops p;
            }
    in
    Obs.Histogram.observe h_qlat (Obs.now_s () -. t0);
    results.(i) <- r
  in
  Exec.parallel_for ?pool:t.o.pool ~lo:0 ~hi:nq (fun ~worker:_ lo hi ->
      for i = lo to hi - 1 do
        answer i
      done);
  (* Epoch guard: the snapshot was captured above; a concurrent mutation
     would be a caller bug (the handle is not a concurrent structure on
     the update side), so fail loudly rather than answer from a torn
     state. *)
  if epoch0 <> t.cur_epoch then
    invalid_arg "Dynamic.query_batch: epoch moved mid-batch";
  results

let n t = t.nv
let size t = t.kept_n
let live_edges t = t.live
let epoch t = t.cur_epoch
let weight_monotone t = t.monotone
