(* Persistent worker pool: the driver that runs {!Sched}'s rules on
   domains (see pool.mli).  Every {!Sched} call runs under [ev_lock],
   the event mutex, so the rules see one state; the events and their
   effects (counters, flight records, emits) follow outside it, bar a
   crashed or abandoned worker's (see [supervise]).  Heartbeats and
   live counts fire on every kernel progress tick and stay lock-free
   atomics, passed into the {!Sched} call that needs them; they are
   the only copy.  The hooks read the slot's cancel and abandoned flags
   without the lock: a racy read of a flag is safe in OCaml 5 and at
   worst sees the change a step late. *)

exception Injected_crash
(* Raised by the fault hook when a job's test-only fault spec fires;
   escapes the worker loop on purpose to exercise the crash path. *)

type job = {
  spec : Jobspec.t;
  frozen : Mc.Parallel.frozen;
  client : int;
  trace_id : string;
  trace_path : string option;
  submitted_at : float;
  deadline_at : float option;
  checkpoint_path : string option;
  model_key : string;  (* the key of the workers' warm tables, see [thaw] *)
  mutable dispatched_at : float;
      (* written by the dispatching worker, read by the daemon after the
         terminal event — never concurrently *)
  ticket : Sched.ticket;  (* touched under the event lock *)
}

let job ~spec ~model_key ~frozen ~client ~trace_id ?trace_path ~deadline_at
    ~checkpoint_path () =
  {
    spec;
    frozen;
    client;
    trace_id;
    trace_path;
    submitted_at = Mc.Monotonic.now ();
    deadline_at;
    checkpoint_path;
    model_key;
    dispatched_at = 0.0;
    ticket = Sched.ticket ();
  }

type event =
  | Progress of job * Obs.Iterlog.row
  | Requeued of job * string
  | Finished of job * int * int * Mc.Report.t
  | Batch_finished of job * int * Mc.Batch.result * Mc.Report.t
  | Worker_died of int * string * string option
  | Worker_hung of int
  | Worker_replaced of int

type slot = {
  st : job Sched.slot;  (* the rules' view; under the event lock *)
  mutable domain : unit Domain.t option;
  hb : float Atomic.t;  (* monotonic time of last sign of life *)
  live : int Atomic.t;
      (* live BDD nodes of the slot's warm managers, and while busy of
         the running job's (reset by [worker_loop] after each job) *)
  fl_beat : float Atomic.t;
      (* last time a heartbeat was recorded into the flight ring --
         heartbeats fire per kernel progress step, far too often to
         record raw, so they are throttled to ~4/s per slot *)
  mutable warm : (string * Mc.Model.t) list;
      (* the warm table: models this worker has run, keyed by
         [Jobspec.model_key], most recently used first (see [thaw]).
         Worker-domain private -- the supervisor only sees its live
         count, and it dies with the slot. *)
}

type config = {
  workers : int;
  hang_timeout_s : float;
  max_total_live : int option;
  max_attempts : int;
  portfolio_domains : int;
  checkpoint_every : int;
  flight_dir : string option;
}

let default_config =
  {
    workers = 2;
    hang_timeout_s = 10.0;
    max_total_live = None;
    max_attempts = 2;
    portfolio_domains = 2;
    checkpoint_every = 1;
    flight_dir = None;
  }

type t = {
  cfg : config;
  queue : job Admission.t;
  sched : job Sched.t;
  mutable slots : slot array;  (* replaced under the event lock *)
  ev_lock : Mutex.t;
  events : (float * event) Queue.t;  (* emit time, event *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (* self-pipe, both ends nonblocking: one byte per emit *)
  mutable wake_open : bool;  (* daemon thread only *)
  mutable orphans : int;
      (* abandoned slots whose domains may still run; while any exist
         the pipe is never closed, so a late byte cannot land in a
         reused descriptor *)
  mutable last_pressure : int;  (* under the event lock *)
  flight : Flight.t;
  mutable flight_seq : int;  (* dump file numbering; daemon thread only *)
  jobs_done : Obs.Registry.counter;
  crashes : Obs.Registry.counter;
  hangs : Obs.Registry.counter;
  requeues : Obs.Registry.counter;
  manager_reuses : Obs.Registry.counter;
  depth_gauge : Obs.Registry.gauge;
  (* Latency split: time queued, time rebuilding the model, time in the
     solver proper, and admission-to-verdict -- all in milliseconds so
     the log2 buckets resolve the interesting 1ms..100s range. *)
  queue_ms : Obs.Registry.histogram;
  thaw_ms : Obs.Registry.histogram;
  solve_ms : Obs.Registry.histogram;
  e2e_ms : Obs.Registry.histogram;
}

let ms f = int_of_float (f *. 1e3)
let locked t f = Mutex.protect t.ev_lock f

(* The workers' live nodes.  Under the event lock, which guards
   [t.slots]. *)
let live_sum t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.live) 0 t.slots

let doorbell = Bytes.make 1 '!'

let rec wake t =
  match Unix.single_write t.wake_w doorbell 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wake t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Events reach the daemon through a queue plus a self-pipe: [emit]
   pushes the event, then writes one byte to the pipe, whose read end
   sits in the daemon's select set, so a finished job wakes the loop at
   once.  The byte is only a doorbell -- the queue holds the events, so
   a full pipe (EAGAIN) loses nothing.  A crashing worker rings the same
   bell after recording its cause. *)
let push t e = Queue.push (Mc.Monotonic.now (), e) t.events
let emit t e = locked t (fun () -> push t e); wake t

let drain_buf = Bytes.create 256

let rec drain_wake t =
  match Unix.read t.wake_r drain_buf 0 (Bytes.length drain_buf) with
  | 0 -> ()
  | n -> if n = Bytes.length drain_buf then drain_wake t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_wake t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Drain the doorbell first: an event pushed after this point rings
   again, so the daemon can never sleep on a non-empty queue. *)
let poll t =
  if t.wake_open then drain_wake t;
  locked t (fun () ->
      let out = List.of_seq (Queue.to_seq t.events) in
      Queue.clear t.events;
      out)

let wake_fd t = t.wake_r

(* --- flight recorder -------------------------------------------------- *)

let fl t ~kind detail = Flight.record t.flight ~kind detail

let job_detail (job : job) =
  [
    ("job", Obs.Json.String job.spec.Jobspec.id);
    ("trace_id", Obs.Json.String job.trace_id);
    ("attempt", Obs.Json.Int job.ticket.Sched.attempt);
  ]

let slot_detail s =
  ("worker", Obs.Json.Int s.st.Sched.sid)
  :: (match s.st.Sched.current with Some (job, _) -> job_detail job | None -> [])

(* Recording first keeps the trigger (crash, hang, sigterm) the last
   event in the file, which is what a post-mortem greps for.  Daemon
   thread only: the file-sequence counter is unsynchronised. *)
let dump_flight t ~trigger:(kind, detail) =
  fl t ~kind detail;
  match t.cfg.flight_dir with
  | None -> None
  | Some dir ->
    t.flight_seq <- t.flight_seq + 1;
    let path =
      Filename.concat dir (Printf.sprintf "flight-%d.jsonl" t.flight_seq)
    in
    (try
       if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
       Flight.dump t.flight path;
       Some path
     with Sys_error _ | Unix.Unix_error _ -> None)

(* --- memory pressure ------------------------------------------------- *)

let total_live t = locked t (fun () -> live_sum t)
let pressure t = locked t (fun () -> Sched.pressure t.sched ~live:(live_sum t))

(* The current level, logged when it rose and recorded when it moved. *)
let note_pressure t =
  let was, p, live =
    locked t (fun () ->
        let live = live_sum t and was = t.last_pressure in
        t.last_pressure <- Sched.pressure t.sched ~live;
        (was, t.last_pressure, live))
  in
  if p > was then
    Mc.Log.degraded ~what:"pool"
      ~detail:
        (Printf.sprintf "memory pressure %d -> %d (%d live nodes)" was p live);
  if p <> was then
    fl t ~kind:"pressure"
      [ ("from", Obs.Json.Int was); ("to", Obs.Json.Int p); ("live", Obs.Json.Int live) ];
  p

(* --- synthesized failure reports ------------------------------------ *)

(* Only for a job that never got a verdict from a solve: its deadline
   expired in the queue, or it ran out of attempts.  Nothing was
   consumed, so the counts are zero and the time is the job's age.  A
   solve that blows its budget reports through [Mc.Job.attempt]. *)
let failed_report (job : job) reason =
  {
    Mc.Report.model = Jobspec.canonical job.spec.Jobspec.model;
    method_name = Jobspec.meth_name job.spec.Jobspec.meth;
    status = Mc.Report.Exceeded reason;
    iterations = 0;
    peak_set_nodes = 0;
    peak_conjuncts = [];
    nodes_created = 0;
    peak_live_nodes = 0;
    time_s = Mc.Monotonic.now () -. job.submitted_at;
  }

(* --- acting on a resolution ----------------------------------------- *)

(* Count, record and emit what {!Sched} decided; [verdict] emits a
   resolved job's own result.  Outside the event lock. *)
let resolve t (job : job) ?(verdict = ignore) = function
  | Sched.Stale -> ()
  | Sched.Resolved ->
    Obs.Registry.incr t.jobs_done;
    Obs.Registry.observe t.e2e_ms (ms (Mc.Monotonic.now () -. job.submitted_at));
    verdict ()
  | Sched.Retry reason ->
    Obs.Registry.incr t.requeues;
    fl t ~kind:"requeue"
      (job_detail job @ [ ("reason", Obs.Json.String reason) ]);
    wake t
  | Sched.Failed reason ->
    Obs.Registry.incr t.jobs_done;
    fl t ~kind:"fail" (job_detail job @ [ ("reason", Obs.Json.String reason) ]);
    emit t (Finished (job, -1, 0, failed_report job reason))

let finished t slot (job : job) ~resumed_at ?batch report outcome =
  resolve t job outcome ~verdict:(fun () ->
      fl t ~kind:"finish"
        (job_detail job
        @ [ ("status", Obs.Json.String (Mc.Report.status_string report)) ]);
      let sid = slot.st.Sched.sid in
      emit t
        (match batch with
        | Some res -> Batch_finished (job, sid, res, report)
        | None -> Finished (job, sid, resumed_at, report)))

(* --- running one job in a worker domain ----------------------------- *)

let beat t slot =
  let now = Mc.Monotonic.now () in
  Atomic.set slot.hb now;
  (* Heartbeats fire per kernel progress step -- throttle the flight
     record to ~4/s per slot (CAS so racing hooks record once). *)
  let last = Atomic.get slot.fl_beat in
  if now -. last >= 0.25 && Atomic.compare_and_set slot.fl_beat last now then
    fl t ~kind:"beat"
      [
        ("worker", Obs.Json.Int slot.st.Sched.sid);
        ("live", Obs.Json.Int (Atomic.get slot.live));
      ]

(* A sign of life from the running job; an abandoned slot goes silent,
   so a zombie's late progress is suppressed. *)
let progress t slot live =
  if not slot.st.Sched.abandoned then begin
    beat t slot;
    Atomic.set slot.live live
  end

(* Per-job tracing context.  The ambient attributes carry the trace id
   into every span emitted while the job runs -- including spans from
   portfolio/batch child domains, which re-install them -- and a
   ["trace": true] job additionally gets a JSONL sink on its own trace
   file.  The file is opened in append mode and the tracer's epoch is
   pinned to the job's admission time, so a checkpoint-backed retry
   appends spans to the same file on the same timeline. *)
let with_job_trace (job : job) ~attempt ~worker f =
  let attrs =
    [
      ("trace_id", Obs.Json.String job.trace_id);
      ("job", Obs.Json.String job.spec.Jobspec.id);
      ("attempt", Obs.Json.Int attempt);
      ("worker", Obs.Json.Int worker);
    ]
  in
  Obs.Tracer.with_attrs attrs (fun () ->
      match job.trace_path with
      | None -> f (Obs.Tracer.global ())
      | Some path -> (
        match open_out_gen [ Open_append; Open_creat ] 0o644 path with
        | exception Sys_error _ -> f (Obs.Tracer.global ())
        | oc ->
          let epoch_ns = Int64.of_float (job.submitted_at *. 1e9) in
          let tracer = Obs.Tracer.create ~epoch_ns () in
          Obs.Tracer.add_sink tracer (Obs.Tracer.jsonl_sink tracer oc);
          Fun.protect
            ~finally:(fun () ->
              Obs.Tracer.flush tracer;
              close_out_noerr oc)
            (fun () -> Obs.Tracer.with_global tracer (fun () -> f tracer))))

let limits_for t (job : job) ~remaining ~pressure man =
  Mc.Limits.start
    ?max_live_nodes:
      (Sched.live_budget t.sched ~pressure job.spec.Jobspec.max_live_nodes)
    ?max_seconds:remaining ~max_iterations:200 man

(* A warm table holds at most this many bytes of node store, unique
   and computed tables, bar its most recent manager, which it always
   keeps: a daemon whose models are big keeps one warm. *)
let warm_budget = 64 lsl 20

let kernel_bytes m =
  let man = Mc.Model.man m in
  List.fold_left
    (fun n stats -> n + List.assoc "bytes" (stats man))
    0
    [ Bdd.node_store_stats; Bdd.unique_table_stats; Bdd.computed_table_stats ]

let live_of m = Bdd.live_nodes (Mc.Model.man m)

(* The thaw phase.  The worker's warm table holds every model it has
   run, with its unique and computed tables warm: a job on one of them
   skips the thaw.  Only at pressure 0 -- under pressure the table is
   emptied, and the job thaws cold and is not kept, so warm managers
   cannot hold node capacity hostage.  A table never leaves its
   worker's domain.  Per-job state cannot leak through a reused manager
   or model: the fault hook is reinstalled by [install_hooks] with this
   job's closure, the iteration sink is per-job (cleared after the
   solve), the progress hook is reinstalled here for every job, and
   [Mc.Job.attempt] starts the model's image race afresh
   ([Fsm.Trans.reset_race]).  The progress hook goes onto a fresh
   manager before the model is rebuilt, so the thaw of a large model
   beats too.  Returns the model and the job's progress report, which
   counts the table's other managers with the running one. *)
let thaw t slot (job : job) ~pressure tracer =
  if pressure > 0 then slot.warm <- [];
  let key = job.model_key in
  let others = List.filter (fun (k, _) -> k <> key) slot.warm in
  let held = List.fold_left (fun n (_, m) -> n + live_of m) 0 others in
  let report live = progress t slot (held + live) in
  let hook = Some (fun m -> report (Bdd.live_nodes m)) in
  let t_thaw = Mc.Monotonic.now () in
  let model =
    Obs.Tracer.with_span tracer ~cat:"srv"
      ~args:(fun () -> [ ("model_key", Obs.Json.String key) ])
      "job.thaw"
      (fun () ->
        match List.assoc_opt key slot.warm with
        | Some m ->
          Obs.Registry.incr t.manager_reuses;
          Bdd.set_progress_hook (Mc.Model.man m) hook;
          beat t slot;
          m
        | None ->
          Mc.Parallel.thaw
            ?cache_budget:(Sched.thaw_cache_budget ~pressure)
            ~on_manager:(fun m -> Bdd.set_progress_hook m hook)
            job.frozen)
  in
  if pressure = 0 then slot.warm <- (key, model) :: others;
  Obs.Registry.observe t.thaw_ms (ms (Mc.Monotonic.now () -. t_thaw));
  (model, report)

(* This job's hooks on its manager: the fault hook turns the
   supervisor's cancel into [Limits.Exceeded] and fires the test-only
   fault spec (first attempt only, so the retry can demonstrate
   recovery; installed after the thaw because injection offsets are
   relative to the run proper); the iteration sink beats, arms an
   iteration-triggered fault and streams progress, unless the slot was
   abandoned (see [progress]).  Returns the sink. *)
let install_hooks t slot (job : job) ~attempt man =
  let spec = job.spec in
  let inject =
    match spec.Jobspec.fault with
    | Some f when attempt = 1 -> Some f
    | _ -> None
  in
  let iter_armed = ref false in
  let base_steps = Bdd.steps man in
  Bdd.set_fault_hook man
    (Some
       (fun m ->
         if slot.st.Sched.cancel then
           raise (Mc.Limits.Exceeded "cancelled: hung worker");
         match inject with
         | None -> ()
         | Some f ->
           let fire =
             !iter_armed
             ||
             match f.Jobspec.after_steps with
             | Some n -> Bdd.steps m - base_steps >= n
             | None -> false
           in
           if fire then (
             match f.Jobspec.action with
             | Jobspec.Crash -> raise Injected_crash
             | Jobspec.Exceed -> raise (Mc.Limits.Exceeded "injected exceed"))));
  let sink row =
    if not slot.st.Sched.abandoned then begin
      beat t slot;
      (match inject with
      | Some { Jobspec.after_iterations = Some n; _ }
        when row.Obs.Iterlog.iteration >= n ->
        iter_armed := true
      | _ -> ());
      if spec.Jobspec.progress then emit t (Progress (job, row))
    end
  in
  Obs.Iterlog.clear ();
  Obs.Iterlog.set_sink (Some sink);
  sink

(* The solve phase: one [Mc.Job.attempt].  A batch job verifies one
   property per conjunct of the model's good on this worker's manager
   (single domain: the worker already is one, and staying on its manager
   is what lets the fault hook cancel it); a retry re-runs the whole
   batch, since the invariant pool is per-run.  An XICI retry resumes
   from the job's checkpoint.  A portfolio runs on child domains with
   private managers, so the hooks above never fire there; heartbeat,
   cancel and progress (through [sink]) are re-threaded through the
   portfolio's own callbacks (else every portfolio job longer than the hang timeout
   would be declared hung and its domains leaked). *)
let solve t slot (job : job) ~attempt ~remaining ~pressure ~report ~sink tracer
    model =
  let spec = job.spec in
  let strategy =
    match spec.Jobspec.meth with
    | Jobspec.Method meth when spec.Jobspec.batch ->
      Mc.Job.Batch { meth; props = Mc.Batch.of_goods model; domains = 1 }
    | Jobspec.Method meth -> Mc.Job.Method meth
    | Jobspec.Portfolio ->
      Mc.Job.Portfolio { domains = Sched.portfolio_width t.sched ~pressure }
  in
  let xici_cfg =
    Option.map
      (fun g -> { Ici.Policy.default with Ici.Policy.grow_threshold = g })
      spec.Jobspec.grow_threshold
  in
  let resumed_at = ref 0 in
  let t_solve = Mc.Monotonic.now () in
  let r =
    Obs.Tracer.with_span tracer ~cat:"srv"
      ~args:(fun () ->
        [
          ("method", Obs.Json.String (Jobspec.meth_name spec.Jobspec.meth));
          ("resumed_at", Obs.Json.Int !resumed_at);
        ])
      "job.solve"
    @@ fun () ->
    let r =
      Mc.Job.attempt
        ~limits:(limits_for t job ~remaining ~pressure)
        ?xici_cfg ?checkpoint:job.checkpoint_path
        ~checkpoint_every:t.cfg.checkpoint_every
        ?resume:(if attempt > 1 then job.checkpoint_path else None)
        ~should_cancel:(fun () -> slot.st.Sched.cancel)
        ~on_progress:(fun ~live -> report live)
        ~iter_sink:sink strategy model
    in
    resumed_at := Option.value ~default:0 r.Mc.Job.resumed_at;
    r
  in
  Obs.Registry.observe t.solve_ms (ms (Mc.Monotonic.now () -. t_solve));
  r

(* The epilogue: resolve the job from the attempt's result.  A zombie's
   late return is stale by its attempt stamp. *)
let epilogue t slot (job : job) ~attempt tracer (r : Mc.Job.result) =
  Obs.Tracer.with_span tracer ~cat:"srv" "job.epilogue" @@ fun () ->
  let decided = Mc.Report.decided r.Mc.Job.report in
  locked t (fun () -> Sched.settle t.sched slot.st job ~attempt ~decided)
  |> finished t slot job
       ~resumed_at:(Option.value ~default:0 r.Mc.Job.resumed_at)
       ?batch:r.Mc.Job.batch r.Mc.Job.report

let run_job t slot (job : job) ~attempt =
  let now = Mc.Monotonic.now () in
  let remaining = Option.map (fun d -> d -. now) job.deadline_at in
  match remaining with
  | Some r when r <= 0.0 ->
    locked t (fun () -> Sched.finish t.sched job ~attempt)
    |> finished t slot job ~resumed_at:0 (failed_report job "deadline expired")
  | _ ->
    with_job_trace job ~attempt ~worker:(slot.st.Sched.sid) @@ fun tracer ->
    (* The queue wait was timed externally (admission to dispatch);
       report it as a span at its true place on the timeline so the
       trace tree starts at admission.  First attempt only: a retry's
       wait starts at its requeue, which the urgent lane makes ~0. *)
    if attempt = 1 then
      Obs.Tracer.span_at tracer ~cat:"srv" "job.queue_wait"
        ~ts_ns:(Int64.of_float (job.submitted_at *. 1e9))
        ~dur_ns:
          (Int64.of_float
             (Float.max 0.0 (job.dispatched_at -. job.submitted_at) *. 1e9));
    let pressure = note_pressure t in
    let model, report = thaw t slot job ~pressure tracer in
    let sink = install_hooks t slot job ~attempt (Mc.Model.man model) in
    let r =
      Fun.protect
        ~finally:(fun () -> Obs.Iterlog.set_sink None)
        (fun () ->
          solve t slot job ~attempt ~remaining ~pressure ~report ~sink tracer
            model)
    in
    epilogue t slot job ~attempt tracer r

(* --- worker lifecycle ------------------------------------------------ *)

(* After a job the worker trims its warm table: to the byte budget,
   then to what {!Sched.idle} lets it keep; it publishes the count of
   what is left in place of the job's last one. *)
let retain t slot =
  let rec within bytes = function
    | [] -> []
    | ((_, m) as e) :: rest ->
      let bytes = bytes + kernel_bytes m in
      if bytes <= warm_budget then e :: within bytes rest else []
  in
  let warm =
    match slot.warm with
    | [] -> []
    | ((_, m) as e) :: rest -> e :: within (kernel_bytes m) rest
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let lives = List.map (fun (_, m) -> live_of m) warm in
  let keep =
    locked t (fun () ->
        Atomic.set slot.live 0;
        let n = Sched.idle t.sched slot.st ~live:(live_sum t) lives in
        Atomic.set slot.live (List.fold_left ( + ) 0 (take n lives));
        n)
  in
  slot.warm <- take keep warm

let worker_loop t slot =
  let rec loop () =
    if slot.st.Sched.abandoned then ()
    else
      match Admission.pop t.queue with
      | None -> ()
      | Some job ->
        beat t slot;
        let attempt = locked t (fun () -> Sched.dispatch t.sched slot.st job) in
        job.dispatched_at <- Mc.Monotonic.now ();
        (* Queue time = admission to first dispatch; retries ride the
           urgent lane and would only record ~0 samples. *)
        if attempt = 1 then
          Obs.Registry.observe t.queue_ms
            (ms (job.dispatched_at -. job.submitted_at));
        fl t ~kind:"dispatch"
          (job_detail job @ [ ("worker", Obs.Json.Int slot.st.Sched.sid) ]);
        run_job t slot job ~attempt;
        (* Reached only on normal completion: a crash must leave the slot
           busy on its job so the supervisor can requeue.  A zombie gets
           here only after its abandonment and leaves at the loop's
           check. *)
        retain t slot;
        loop ()
  in
  loop ()

let make_slot t st =
  let slot =
    {
      st;
      domain = None;
      hb = Atomic.make (Mc.Monotonic.now ());
      live = Atomic.make 0;
      fl_beat = Atomic.make 0.0;
      warm = [];
    }
  in
  let d =
    Domain.spawn (fun () ->
        try worker_loop t slot
        with e ->
          (* Crash path: record the cause, wake the daemon and let the
             domain end; the supervisor joins, requeues and respawns. *)
          locked t (fun () -> Sched.crashed slot.st (Printexc.to_string e));
          wake t)
  in
  slot.domain <- Some d;
  slot

let create ?(config = default_config) ~queue_capacity () =
  let reg = Obs.Registry.default in
  let workers = max 1 config.workers in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let queue = Admission.create ~capacity:queue_capacity () in
  let events = Queue.create () in
  (* Under the event lock, the Requeued event is queued before the job:
     no worker can run the retry and report it first. *)
  let requeue job reason =
    Queue.push (Mc.Monotonic.now (), Requeued (job, reason)) events;
    Admission.push_urgent queue job
  in
  let sched =
    Sched.create ~hang_timeout_s:config.hang_timeout_s
      ~max_attempts:config.max_attempts ~max_total_live:config.max_total_live
      ~portfolio_domains:config.portfolio_domains
      ~ticket:(fun (j : job) -> j.ticket)
      ~requeue
  in
  let t =
    {
      cfg = { config with workers };
      queue;
      sched;
      slots = [||];
      ev_lock = Mutex.create ();
      events;
      wake_r;
      wake_w;
      wake_open = true;
      orphans = 0;
      last_pressure = 0;
      jobs_done = Obs.Registry.counter reg "srv.jobs_done";
      crashes = Obs.Registry.counter reg "srv.worker_crashes";
      hangs = Obs.Registry.counter reg "srv.worker_hangs";
      requeues = Obs.Registry.counter reg "srv.requeues";
      manager_reuses = Obs.Registry.counter reg "srv.manager_reuses";
      depth_gauge = Obs.Registry.gauge reg "srv.queue_depth";
      flight = Flight.create ();
      flight_seq = 0;
      queue_ms = Obs.Registry.histogram reg "srv.queue_ms";
      thaw_ms = Obs.Registry.histogram reg "srv.thaw_ms";
      solve_ms = Obs.Registry.histogram reg "srv.solve_ms";
      e2e_ms = Obs.Registry.histogram reg "srv.e2e_ms";
    }
  in
  let slots = Array.init workers (fun _ -> Sched.slot sched) in
  locked t (fun () -> t.slots <- Array.map (make_slot t) slots);
  t

(* --- submission ------------------------------------------------------ *)

let submit t job =
  let r =
    locked t (fun () ->
        let r = Admission.try_push t.queue job in
        if Result.is_ok r then Sched.admit t.sched;
        r)
  in
  (match r with
  | Ok depth ->
    fl t ~kind:"admit" (job_detail job @ [ ("depth", Obs.Json.Int depth) ])
  | Error reason ->
    fl t ~kind:"reject"
      (job_detail job @ [ ("reason", Obs.Json.String reason) ]));
  Obs.Registry.set t.depth_gauge (float_of_int (Admission.depth t.queue));
  r

let queue_depth t = Admission.depth t.queue

let busy_workers t =
  locked t (fun () ->
      Array.fold_left
        (fun acc s -> if s.st.Sched.busy then acc + 1 else acc)
        0 t.slots)

let workers t = Array.length t.slots
let outstanding t = locked t (fun () -> Sched.outstanding t.sched)
let idle t = outstanding t = 0
let jobs_done t = Obs.Registry.count t.jobs_done

type slot_health = {
  sh_sid : int;
  sh_busy : bool;
  sh_live : int;
  sh_silent_s : float;  (* seconds since last heartbeat *)
  sh_job : string option;  (* id of the job being run, if busy *)
}

let slot_health t =
  let now = Mc.Monotonic.now () in
  locked t (fun () ->
      List.map
        (fun s ->
          {
            sh_sid = s.st.Sched.sid;
            sh_busy = s.st.Sched.busy;
            sh_live = Atomic.get s.live;
            sh_silent_s = now -. Atomic.get s.hb;
            sh_job =
              Option.map (fun ((j : job), _) -> j.spec.Jobspec.id) s.st.current;
          })
        (Array.to_list t.slots))

let latency_row h =
  ( Obs.Registry.histogram_name h,
    Obs.Registry.histogram_percentile h 0.5,
    Obs.Registry.histogram_percentile h 0.9,
    Obs.Registry.histogram_percentile h 0.99 )

let latency t = List.map latency_row [ t.queue_ms; t.thaw_ms; t.solve_ms; t.e2e_ms ]

(* --- supervision ----------------------------------------------------- *)

(* A crashed or abandoned worker: dump the black box with the trigger
   as its last entry, requeue the job with a reason that references the
   dump (so the failure report leads straight to the post-mortem file),
   and respawn the slot.  The requeue happens in the locked section
   that made the decision, so a zombie returning meanwhile finds its
   job requeued, hence stale; the dump before it is the one piece of
   I/O done under the lock, on this rare path. *)
let supervise t =
  let now = Mc.Monotonic.now () in
  Array.iteri
    (fun i slot ->
      let sid = slot.st.Sched.sid in
      let dump trigger detail =
        dump_flight t ~trigger:(trigger, slot_detail slot @ detail)
      in
      let requeue dump reason =
        Sched.requeue_current t.sched slot.st
          ~reason:
            (match dump with
            | Some path -> Printf.sprintf "%s [flight: %s]" reason path
            | None -> reason)
      in
      match
        locked t (fun () ->
            let beat = Atomic.get slot.hb in
            match Sched.supervise t.sched ~now ~beat slot.st with
            | Sched.Reap why as d ->
              let dump = dump "worker_crash" [ ("why", Obs.Json.String why) ] in
              push t (Worker_died (sid, why, dump));
              (d, requeue dump ("worker crashed: " ^ why))
            | Sched.Abandon as d ->
              let dump = dump "worker_abandoned" [] in
              let requeued = requeue dump "worker hung (abandoned)" in
              push t (Worker_replaced sid);
              (d, requeued)
            | d -> (d, None))
      with
      | Sched.Leave, _ -> ()
      | Sched.Cancel, _ ->
        Obs.Registry.incr t.hangs;
        ignore (dump "hang_cancel" []);
        emit t (Worker_hung sid)
      | d, requeued ->
        (match d with
        | Sched.Reap _ ->
          Option.iter (fun d -> try Domain.join d with _ -> ()) slot.domain;
          Obs.Registry.incr t.crashes
        | _ -> t.orphans <- t.orphans + 1 (* its domain is never joined *));
        wake t;
        Option.iter (fun (job, outcome) -> resolve t job outcome) requeued;
        let fresh = make_slot t (locked t (fun () -> Sched.slot t.sched)) in
        locked t (fun () -> t.slots.(i) <- fresh))
    t.slots;
  Obs.Registry.set t.depth_gauge (float_of_int (Admission.depth t.queue));
  ignore (note_pressure t)

let shutdown t =
  Admission.close t.queue;
  Array.iter
    (fun slot ->
      if not slot.st.Sched.abandoned then
        match slot.domain with
        | Some d -> ( try Domain.join d with _ -> ())
        | None -> ())
    t.slots;
  (* Every joined worker is past its last emit; events already queued
     stay pollable. *)
  if t.wake_open && t.orphans = 0 then begin
    t.wake_open <- false;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end
