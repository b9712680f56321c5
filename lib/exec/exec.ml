(* Persistent domain pool with dynamically chunked parallel-for.

   Scheduling model: one shared atomic cursor per region.  Claiming a
   chunk is a single fetch-and-add, so the "deque" degenerates to the
   cheapest possible sharded queue — every worker steals from the same
   tail.  For the workloads this repo fans out (per-edge LBC verdicts,
   per-fault stretch sweeps) chunk costs dwarf the claim cost by orders
   of magnitude, and the single cursor keeps the claim order irrelevant
   to results: callers write by index.

   Synchronization: helpers park on [work] waiting for the generation
   counter to move; the caller bumps it under the mutex, broadcasts, runs
   its own share, then parks on [donec] until every helper checked back
   in.  The mutex hand-offs double as the memory barriers that publish
   the region closure to helpers and their writes (verdict arrays, busy
   times) back to the caller. *)

let jobs_override = ref None

let set_default_jobs n =
  if n < 1 then invalid_arg "Exec.set_default_jobs: jobs must be >= 1";
  jobs_override := Some n

let default_jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "FTSPAN_JOBS" with
      | None -> 1
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | _ -> 1))

let m_regions = Obs.counter "pool.regions"
let m_tasks = Obs.counter "pool.tasks"
let m_steals = Obs.counter "pool.steals"
let h_utilization = Obs.histogram "pool.utilization"

module Pool = struct
  type t = {
    size : int;
    mutex : Mutex.t;
    work : Condition.t;  (* helpers park here between regions *)
    donec : Condition.t;  (* the caller parks here until helpers finish *)
    mutable job : (int -> unit) option;
    mutable generation : int;
    mutable active : int;  (* helpers still inside the current region *)
    mutable stopped : bool;
    mutable in_region : bool;  (* caller-side nesting guard *)
    mutable helpers : unit Domain.t array;
    busy_timers : Obs.Timer.t array;  (* pool.busy.N, N = worker index *)
  }

  let size t = t.size

  (* Helper [w] parks until the generation moves past the last region it
     ran, executes the published job, and checks back in.  The job
     closure catches its own exceptions (see [parallel_for]), so a raise
     can never unwind this loop and leak the domain. *)
  let rec helper_loop pool w gen =
    Mutex.lock pool.mutex;
    while (not pool.stopped) && pool.generation = gen do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stopped then Mutex.unlock pool.mutex
    else begin
      let gen' = pool.generation in
      let job = Option.get pool.job in
      Mutex.unlock pool.mutex;
      (try job w with _ -> ());
      Mutex.lock pool.mutex;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.donec;
      Mutex.unlock pool.mutex;
      helper_loop pool w gen'
    end

  let create ~domains () =
    if domains < 1 then invalid_arg "Exec.Pool.create: domains must be >= 1";
    let pool =
      {
        size = domains;
        mutex = Mutex.create ();
        work = Condition.create ();
        donec = Condition.create ();
        job = None;
        generation = 0;
        active = 0;
        stopped = false;
        in_region = false;
        helpers = [||];
        busy_timers =
          Array.init domains (fun w ->
              Obs.timer (Printf.sprintf "pool.busy.%d" w));
      }
    in
    pool.helpers <-
      Array.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> helper_loop pool (i + 1) 0));
    pool

  let shutdown pool =
    Mutex.lock pool.mutex;
    if pool.stopped then Mutex.unlock pool.mutex
    else begin
      pool.stopped <- true;
      Condition.broadcast pool.work;
      Mutex.unlock pool.mutex;
      Array.iter Domain.join pool.helpers
    end

  let with_pool ~domains f =
    let pool = create ~domains () in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

  (* Publish [job], run the caller's share, wait for the helpers. *)
  let run_region pool job =
    Mutex.lock pool.mutex;
    if pool.stopped then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Exec.parallel_for: pool is shut down"
    end;
    pool.job <- Some job;
    pool.generation <- pool.generation + 1;
    pool.active <- pool.size - 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    job 0;
    Mutex.lock pool.mutex;
    while pool.active > 0 do
      Condition.wait pool.donec pool.mutex
    done;
    pool.job <- None;
    Mutex.unlock pool.mutex
end

let region_seq = Atomic.make 0

(* Flush one region's scheduling telemetry.  Runs on the caller, after
   the region closed.  The per-worker [pool.busy.N] timers are NOT
   recorded here: each worker records its own share from its own domain
   (the timers are sharded per domain, so that is exact), and the
   region's closing mutex hand-off publishes those writes before any
   caller-side read merges them. *)
let record_region _pool ~tasks ~steals ~busy ~elapsed =
  Obs.Counter.incr m_regions;
  Obs.Counter.add m_tasks tasks;
  Obs.Counter.add m_steals steals;
  let total_busy = Array.fold_left ( +. ) 0. busy in
  if elapsed > 0. then
    Obs.Histogram.observe h_utilization
      (100. *. total_busy /. (elapsed *. float_of_int (Array.length busy)))

let parallel_for ?chunk pool ~lo ~hi body =
  if hi > lo then begin
    let span = hi - lo in
    let workers = Pool.size pool in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Exec.parallel_for: chunk must be >= 1"
      | None -> max 1 (min 64 (span / (workers * 8)))
    in
    if Obs_trace.enabled () then
      Obs_trace.emit
        (Obs_trace.Phase
           { name = "pool.parallel_for"; index = Atomic.fetch_and_add region_seq 1 });
    Obs.with_span "pool.parallel_for" @@ fun () ->
    if workers = 1 || span <= chunk || pool.Pool.in_region then begin
      (* Sequential fast path: a 1-domain pool, a range too small to
         split, or a nested submission from inside a region (helpers do
         not re-enter the scheduler; the work runs inline instead). *)
      let t0 = Unix.gettimeofday () in
      body ~worker:0 lo hi;
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 0. then Obs.Timer.record pool.Pool.busy_timers.(0) dt;
      let busy = Array.make workers 0. in
      busy.(0) <- dt;
      record_region pool ~tasks:1 ~steals:0 ~busy ~elapsed:dt;
      Obs_heartbeat.pulse ()
    end
    else begin
      let next = Atomic.make lo in
      let failure = Atomic.make None in
      let tasks = Atomic.make 0 and steals = Atomic.make 0 in
      let busy = Array.make workers 0. in
      let run w =
        let t0 = Unix.gettimeofday () in
        let continue = ref true in
        while !continue do
          let l = Atomic.fetch_and_add next chunk in
          if l >= hi then continue := false
          else begin
            Atomic.incr tasks;
            if w <> 0 then Atomic.incr steals;
            let h = min hi (l + chunk) in
            try body ~worker:w l h
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt)));
              (* Stop the cursor so no further chunk is claimed; chunks
                 already claimed finish on their own workers. *)
              Atomic.set next hi;
              continue := false
          end
        done;
        let dt = Unix.gettimeofday () -. t0 in
        (* Recorded on the worker's own domain: the sharded timer makes
           this exact, where a caller-side flush was best-effort. *)
        if dt > 0. then Obs.Timer.record pool.Pool.busy_timers.(w) dt;
        busy.(w) <- busy.(w) +. dt
      in
      let t0 = Unix.gettimeofday () in
      pool.Pool.in_region <- true;
      Fun.protect
        ~finally:(fun () -> pool.Pool.in_region <- false)
        (fun () -> Pool.run_region pool run);
      record_region pool ~tasks:(Atomic.get tasks) ~steals:(Atomic.get steals)
        ~busy
        ~elapsed:(Unix.gettimeofday () -. t0);
      Obs_heartbeat.pulse ();
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

module Worker_local = struct
  type 'a t = { init : int -> 'a; slots : 'a option array }

  let create pool init = { init; slots = Array.make (Pool.size pool) None }

  let get t ~worker =
    match t.slots.(worker) with
    | Some v -> v
    | None ->
        let v = t.init worker in
        t.slots.(worker) <- Some v;
        v
end
