(* A growable int stack: [len] live entries at the bottom of [items]. *)
type stack = { mutable items : int array; mutable len : int }

let push s x =
  if s.len = Array.length s.items then begin
    let bigger = Array.make (max 16 (2 * s.len)) 0 in
    Array.blit s.items 0 bigger 0 s.len;
    s.items <- bigger
  end;
  s.items.(s.len) <- x;
  s.len <- s.len + 1

module Workspace = struct
  type t = {
    bfs : Bfs.Workspace.t;
    mutable blocked_v : bool array;
    mutable blocked_e : bool array;
    dirty : stack;  (* mask entries this call set, in blocking order *)
    excluded : stack;  (* edge ids this call blocked for [exclude] *)
  }

  let create () =
    {
      bfs = Bfs.Workspace.create ();
      blocked_v = [||];
      blocked_e = [||];
      dirty = { items = [||]; len = 0 };
      excluded = { items = [||]; len = 0 };
    }

  (* Growth must preserve contents: a workspace is shared across calls on
     graphs of varying size, and replacing a mask with a fresh array would
     silently drop any entries a caller pre-blocked before [decide] — the
     masks are only guaranteed clean for indices the previous call dirtied. *)
  let grow a len =
    let bigger = Array.make (max len (2 * Array.length a)) false in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let ensure ws ~n ~m =
    if Array.length ws.blocked_v < n then ws.blocked_v <- grow ws.blocked_v n;
    if Array.length ws.blocked_e < m then ws.blocked_e <- grow ws.blocked_e m
end

type verdict = Yes of { cut : int list } | No of { paths_seen : int }

let m_calls = Obs.counter "lbc.calls"
let m_yes = Obs.counter "lbc.yes"
let m_no = Obs.counter "lbc.no"
let m_bfs_rounds = Obs.counter "lbc.bfs_rounds"
let h_rounds = Obs.histogram "lbc.rounds_per_call"
let h_cut = Obs.histogram "lbc.cut_size"

(* Excluded edges are blocked outside the dirty stack: they never enter a
   YES certificate, and they stay blocked across every round of this
   call.  [excluded] remembers which entries this call actually set so
   nested masks (a caller pre-blocking the same id) survive. *)
let rec block_excluded (ws : Workspace.t) m = function
  | [] -> ()
  | id :: rest ->
      if id >= 0 && id < m && not ws.blocked_e.(id) then begin
        ws.blocked_e.(id) <- true;
        push ws.excluded id
      end;
      block_excluded ws m rest

(* Removes the path the last search found, straight from the BFS parent
   arrays: its interior vertices (VFT) or its edges (EFT).  The climb runs
   from [v] back to [u]; reversing the entries it pushed restores the
   path's u-to-v order, so the dirty stack (and the certificate read off
   it) is in exactly the order the path itself lists them. *)
let block_path (ws : Workspace.t) mode ~u ~v =
  let bfs = ws.bfs and dirty = ws.dirty in
  let first = dirty.len in
  (match mode with
  | Fault.VFT ->
      let x = ref (Bfs.Workspace.parent bfs v) in
      while !x <> u do
        if not ws.blocked_v.(!x) then begin
          ws.blocked_v.(!x) <- true;
          push dirty !x
        end;
        x := Bfs.Workspace.parent bfs !x
      done
  | Fault.EFT ->
      let x = ref v in
      while !x <> u do
        let id = Bfs.Workspace.parent_edge bfs !x in
        if not ws.blocked_e.(id) then begin
          ws.blocked_e.(id) <- true;
          push dirty id
        end;
        x := Bfs.Workspace.parent bfs !x
      done);
  let a = dirty.items in
  let i = ref first and j = ref (dirty.len - 1) in
  while !i < !j do
    let tmp = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- tmp;
    incr i;
    decr j
  done

(* Most recently blocked first, as the certificate has always listed it. *)
let cut_of (s : stack) =
  let cut = ref [] in
  for i = 0 to s.len - 1 do
    cut := s.items.(i) :: !cut
  done;
  !cut

let decide ?ws ?(edge = -1) ?(exclude = []) ~mode g ~u ~v ~t ~alpha =
  if u = v then invalid_arg "Lbc.decide: u = v";
  (* One LBC verdict is the centralized algorithms' logical operation:
     the heartbeat stream paces itself on it. *)
  Obs_heartbeat.pulse ();
  if t < 1 then invalid_arg "Lbc.decide: t must be >= 1";
  if alpha < 0 then invalid_arg "Lbc.decide: alpha must be >= 0";
  (* Sampled once: the begin/end pair must agree on whether it exists
     even if tracing is toggled mid-call. *)
  let tracing = Obs_trace.enabled () in
  if tracing then Obs_trace.emit (Obs_trace.Lbc_begin { edge; u; v; t; alpha });
  (* The fallback workspace is created per call: a shared module-level
     scratch would make concurrent workspace-less calls (parallel batch
     decisions, future multi-domain users) corrupt each other's masks. *)
  let ws = match ws with Some ws -> ws | None -> Workspace.create () in
  Workspace.ensure ws ~n:(Graph.n g) ~m:(Graph.m g);
  let dirty = ws.Workspace.dirty and excluded = ws.Workspace.excluded in
  (* The masks are false everywhere between calls; the two stacks record
     what this call sets so it can be undone on exit. *)
  dirty.len <- 0;
  excluded.len <- 0;
  block_excluded ws (Graph.m g) exclude;
  (* The edge mask only reaches a VFT search when something is excluded;
     the common path stays mask-free. *)
  let blocked_vertices =
    match mode with Fault.VFT -> ws.Workspace.blocked_v | Fault.EFT -> [||]
  in
  let blocked_edges =
    match mode with
    | Fault.VFT when exclude = [] -> [||]
    | Fault.VFT | Fault.EFT -> ws.Workspace.blocked_e
  in
  (* Each round either certifies YES (no short path remains) or removes
     one short path; after [alpha + 1] removals the answer is NO. *)
  let bfs_rounds = ref 0 and yes = ref false and stop = ref false in
  while not !stop do
    if !bfs_rounds > alpha then stop := true
    else begin
      incr bfs_rounds;
      if
        Bfs.search ws.Workspace.bfs ~blocked_vertices ~blocked_edges g ~src:u
          ~dst:v ~max_hops:t
      then block_path ws mode ~u ~v
      else begin
        yes := true;
        stop := true
      end
    end
  done;
  let cut_size = if !yes then dirty.len else 0 in
  let verdict =
    if !yes then Yes { cut = cut_of dirty } else No { paths_seen = alpha + 1 }
  in
  if tracing then
    Obs_trace.emit
      (Obs_trace.Lbc_end { edge; yes = !yes; bfs_rounds = !bfs_rounds; cut_size });
  if Obs.enabled () then begin
    Obs.Counter.incr m_calls;
    Obs.Counter.add m_bfs_rounds !bfs_rounds;
    Obs.Histogram.observe_int h_rounds !bfs_rounds;
    if !yes then begin
      Obs.Counter.incr m_yes;
      Obs.Histogram.observe_int h_cut cut_size
    end
    else Obs.Counter.incr m_no
  end;
  let mask =
    match mode with
    | Fault.VFT -> ws.Workspace.blocked_v
    | Fault.EFT -> ws.Workspace.blocked_e
  in
  for i = 0 to dirty.len - 1 do
    mask.(dirty.items.(i)) <- false
  done;
  for i = 0 to excluded.len - 1 do
    ws.Workspace.blocked_e.(excluded.items.(i)) <- false
  done;
  verdict
