(* Persistent worker pool with supervision.

   Each worker is an OCaml 5 domain running a pop/run loop over the
   admission queue.  Models travel as frozen strings and every worker
   thaws its own private copy, so the shared-nothing discipline of
   [Mc.Parallel] is preserved.  A dispatch runs in three phases: thaw,
   solve (one [Mc.Job.attempt], which also turns a blown budget into an
   Exceeded report) and epilogue (resolve or requeue the job).

   Events reach the daemon through a mutex-guarded queue plus a
   self-pipe: [emit] pushes the event, then writes one byte to the
   pipe, whose read end sits in the daemon's select set, so a finished
   job wakes the loop at once.  The byte is only a doorbell -- the
   queue holds the events, so a full pipe (EAGAIN) loses nothing -- and
   [poll] drains the pipe before it reads the queue, so an event pushed
   after the drain always leaves a byte behind.  A crashing worker
   rings the same bell after recording its cause.

   Supervision runs on the daemon thread via [supervise], called on
   every wake-up and at least once per supervision period.  Three
   failure modes are handled:

   - {b crash}: an exception escapes the worker loop.  The top-level
     wrapper records it in [slot.dead] and lets the domain end; the
     supervisor joins it, requeues the in-flight job (urgent lane) and
     spawns a replacement.
   - {b hang}: a busy worker's heartbeat (updated from the kernel
     progress hook and the iteration sink) goes silent for
     [hang_timeout_s].  Domains cannot be killed, so the supervisor
     sets the slot's cancel flag, which the worker's fault hook turns
     into [Limits.Exceeded] at the next kernel step.
   - {b zombie}: the cancel flag is ignored for another hang window
     (the worker is wedged outside kernel code).  The slot is marked
     [abandoned] -- suppressing any late events from it -- the job is
     requeued, and a fresh slot takes its place.  The orphan domain is
     deliberately never joined.

   Exactly-once resolution per execution: every dispatch is stamped
   with the attempt number it runs, and both resolution paths
   ([finish] and [requeue_or_fail]) require [job.inflight] AND
   [job.attempt = attempt-at-dispatch] under the event lock.  The
   inflight flag alone is not enough: a requeue resets it to true for
   the retry, so a zombie worker waking up after its job was requeued
   would otherwise resolve the retry's execution (double Finished with
   [max_attempts = 2], or a double-running job with more).  The
   attempt stamp makes a stale execution's finish/requeue a no-op. *)

exception Injected_crash
(* Raised by the fault hook when a job's test-only fault spec fires;
   escapes the worker loop on purpose to exercise the crash path. *)

type job = {
  spec : Jobspec.t;
  frozen : Mc.Parallel.frozen;
  client : int;
  trace_id : string;  (* stable across retries: assigned at admission *)
  trace_path : string option;  (* per-job JSONL span file, if traced *)
  submitted_at : float;
  deadline_at : float option;
  checkpoint_path : string option;
  model_key : string;
      (* [Jobspec.model_key] of the spec, computed once at admission:
         the worker's affinity test against its scratch manager *)
  mutable dispatched_at : float;
      (* when the latest attempt left the queue; 0.0 before dispatch.
         Written by the dispatching worker, read by the daemon after
         the terminal event — never concurrently. *)
  mutable attempt : int;  (* 1-based; touched under the event lock *)
  mutable inflight : bool;  (* likewise *)
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
    attempt = 1;
    inflight = true;
  }

type event =
  | Progress of job * Obs.Iterlog.row
  | Requeued of job * string  (* reason; [job.attempt] is the retry *)
  | Finished of job * int * int * Mc.Report.t
      (* worker id, resumed-at iteration (0 = cold start) *)
  | Batch_finished of job * int * Mc.Batch.result * Mc.Report.t
      (* worker id, per-property outcome, aggregate report (the job's
         single wire verdict) *)
  | Worker_died of int * string * string option
      (* worker id, cause, flight-recorder dump path if one was
         written *)
  | Worker_hung of int
  | Worker_replaced of int

type slot = {
  sid : int;
  mutable domain : unit Domain.t option;
  hb : float Atomic.t;  (* monotonic time of last sign of life *)
  live : int Atomic.t;
      (* live BDD nodes this worker holds: the running job's manager
         while busy (progress hook), the retained scratch manager's
         count published after each job while idle *)
  busy : bool Atomic.t;
  cancel : bool Atomic.t;
  dead : string option Atomic.t;
  current : (job * int) option Atomic.t;
      (* job plus the attempt number this dispatch is running, so the
         supervisor's requeue paths carry the same stamp the worker
         got *)
  abandoned : bool Atomic.t;
  fl_beat : float Atomic.t;
      (* last time a heartbeat was recorded into the flight ring --
         heartbeats fire per kernel progress step, far too often to
         record raw, so they are throttled to ~4/s per slot *)
  mutable scratch : (string * Mc.Model.t) option;
      (* last thawed model, keyed by [Jobspec.model_key]: consecutive
         jobs on the same declaration reuse the manager instead of
         re-thawing, and the worker prefers queued jobs with its key.
         Worker-domain private -- the supervisor only sees its live
         count through [live], and it dies with the slot. *)
}

type config = {
  workers : int;
  hang_timeout_s : float;
  max_total_live : int option;
  max_attempts : int;
  portfolio_domains : int;
  checkpoint_every : int;
  flight_dir : string option;
      (* where flight-recorder dumps land (normally next to the
         checkpoint dir); None disables dumping, the ring still
         records *)
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
  mutable slots : slot array;
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
  outstanding : int Atomic.t;
      (* admitted but not yet resolved; the drain-completion signal.
         Counted here rather than via queue+busy scans because a job
         is neither queued nor marked busy for an instant between pop
         and dispatch. *)
  mutable next_sid : int;
  mutable last_pressure : int;
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

let doorbell = Bytes.make 1 '!'

let rec wake t =
  match Unix.single_write t.wake_w doorbell 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wake t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let emit t e =
  Mutex.lock t.ev_lock;
  Queue.push (Mc.Monotonic.now (), e) t.events;
  Mutex.unlock t.ev_lock;
  wake t

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
  Mutex.lock t.ev_lock;
  let out = List.of_seq (Queue.to_seq t.events) in
  Queue.clear t.events;
  Mutex.unlock t.ev_lock;
  out

let wake_fd t = t.wake_r

(* --- flight recorder -------------------------------------------------- *)

let fl t ~kind detail = Flight.record t.flight ~kind detail

let job_detail (job : job) =
  [
    ("job", Obs.Json.String job.spec.Jobspec.id);
    ("trace_id", Obs.Json.String job.trace_id);
    ("attempt", Obs.Json.Int job.attempt);
  ]

(* Record the triggering event, then dump the ring next to the
   checkpoint dir — recording first keeps the trigger (crash, hang,
   sigterm) the last event in the file, which is what a post-mortem
   greps for.  Daemon thread only (the file-sequence counter is
   unsynchronised); returns the path so the abort report can reference
   its black box. *)
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

let flight t = t.flight

(* --- memory-pressure ladder ----------------------------------------- *)

(* Busy slots count their running manager, idle ones their retained
   scratch: both hold node capacity. *)
let total_live t =
  Array.fold_left
    (fun acc s ->
      if Atomic.get s.abandoned then acc else acc + Atomic.get s.live)
    0 t.slots

let pressure t =
  match t.cfg.max_total_live with
  | None -> 0
  | Some cap ->
    let l = total_live t in
    if l >= cap then 3
    else if l >= cap * 3 / 4 then 2
    else if l >= cap / 2 then 1
    else 0

(* Degradation before refusal: level 1 shrinks the thaw-time cache
   budget, level 2 additionally clamps portfolio width to one domain
   and halves per-job live budgets, level 3 makes the daemon refuse
   new admissions entirely. *)
let thaw_cache_budget ~pressure:p =
  if p >= 2 then Some 1024 else if p >= 1 then Some 4096 else None

let note_pressure t p =
  if p <> t.last_pressure then begin
    if p > t.last_pressure then
      Mc.Log.degraded ~what:"pool"
        ~detail:
          (Printf.sprintf "memory pressure %d -> %d (%d live nodes)"
             t.last_pressure p (total_live t));
    fl t ~kind:"pressure"
      [
        ("from", Obs.Json.Int t.last_pressure);
        ("to", Obs.Json.Int p);
        ("live", Obs.Json.Int (total_live t));
      ];
    t.last_pressure <- p
  end;
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

(* --- exactly-once job resolution ------------------------------------ *)

(* [attempt] is the attempt number stamped at dispatch: an execution
   may only resolve the job while the job is still on that attempt.
   After a requeue bumps [job.attempt], the abandoned execution's late
   finish/requeue no longer matches and is dropped. *)

let finish t slot (job : job) ~attempt ~resumed_at ?batch report =
  Mutex.lock t.ev_lock;
  let mine = job.inflight && job.attempt = attempt in
  if mine then job.inflight <- false;
  Mutex.unlock t.ev_lock;
  if mine then begin
    Obs.Registry.incr t.jobs_done;
    Atomic.decr t.outstanding;
    Obs.Registry.observe t.e2e_ms (ms (Mc.Monotonic.now () -. job.submitted_at));
    fl t ~kind:"finish"
      (job_detail job
      @ [ ("status", Obs.Json.String (Mc.Report.status_string report)) ]);
    match batch with
    | Some res -> emit t (Batch_finished (job, slot.sid, res, report))
    | None -> emit t (Finished (job, slot.sid, resumed_at, report))
  end

let requeue_or_fail t (job : job) ~attempt ~reason =
  Mutex.lock t.ev_lock;
  let mine = job.inflight && job.attempt = attempt in
  let retry = mine && job.attempt < t.cfg.max_attempts in
  if mine then begin
    job.inflight <- false;
    if retry then begin
      job.attempt <- job.attempt + 1;
      job.inflight <- true
    end
  end;
  Mutex.unlock t.ev_lock;
  if mine then
    if retry then begin
      Obs.Registry.incr t.requeues;
      fl t ~kind:"requeue"
        (job_detail job @ [ ("reason", Obs.Json.String reason) ]);
      emit t (Requeued (job, reason));
      Admission.push_urgent t.queue job
    end
    else begin
      Obs.Registry.incr t.jobs_done;
      Atomic.decr t.outstanding;
      fl t ~kind:"fail"
        (job_detail job @ [ ("reason", Obs.Json.String reason) ]);
      emit t
        (Finished
           ( job,
             -1,
             0,
             failed_report job
               (Printf.sprintf "%s (after %d attempts)" reason job.attempt) ))
    end

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
        ("worker", Obs.Json.Int slot.sid);
        ("live", Obs.Json.Int (Atomic.get slot.live));
      ]

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

let limits_for t (job : job) ~remaining ~pressure:p man =
  let max_live =
    match (job.spec.Jobspec.max_live_nodes, p >= 2) with
    | Some n, true -> Some (max 1 (n / 2))
    | Some n, false -> Some n
    | None, true -> t.cfg.max_total_live
    | None, false -> None
  in
  Mc.Limits.start ?max_live_nodes:max_live ?max_seconds:remaining
    ~max_iterations:200 man

(* The thaw phase.  Scratch-manager reuse: consecutive jobs on the same
   declaration skip the thaw and keep the previous job's unique/computed
   tables warm.  Only at pressure 0 -- under pressure the scratch is
   dropped so a retained manager cannot hold node capacity hostage.
   Per-job state cannot leak through the reused manager or model: the
   fault hook is reinstalled by [install_hooks] with this job's closure,
   the iteration sink is per-job (cleared after the solve), the progress
   hook installed here closes over this same slot, and [Mc.Job.attempt]
   starts the model's image race afresh ([Fsm.Trans.reset_race]).  The heartbeat hook
   goes onto the fresh manager before the model is rebuilt, so the thaw
   of a large model beats too. *)
let thaw t slot (job : job) ~pressure:p tracer =
  if p >= 1 then slot.scratch <- None;
  let key = job.model_key in
  let t_thaw = Mc.Monotonic.now () in
  let model =
    Obs.Tracer.with_span tracer ~cat:"srv"
      ~args:(fun () -> [ ("model_key", Obs.Json.String key) ])
      "job.thaw"
      (fun () ->
        match slot.scratch with
        | Some (k, m) when k = key ->
          Obs.Registry.incr t.manager_reuses;
          beat t slot;
          m
        | _ ->
          let m =
            Mc.Parallel.thaw
              ?cache_budget:(thaw_cache_budget ~pressure:p)
              ~on_manager:(fun m ->
                Bdd.set_progress_hook m
                  (Some
                     (fun m ->
                       if not (Atomic.get slot.abandoned) then begin
                         beat t slot;
                         Atomic.set slot.live (Bdd.live_nodes m)
                       end)))
              job.frozen
          in
          if p = 0 then slot.scratch <- Some (key, m);
          m)
  in
  Obs.Registry.observe t.thaw_ms (ms (Mc.Monotonic.now () -. t_thaw));
  model

(* This job's hooks on its manager: the fault hook turns the
   supervisor's cancel into [Limits.Exceeded] and fires the test-only
   fault spec (first attempt only, so the retry can demonstrate
   recovery; installed after the thaw because injection offsets are
   relative to the run proper); the iteration sink beats, arms an
   iteration-triggered fault and streams progress.  Abandoned slots go
   silent: the module comment promises late events from a zombie are
   suppressed, so every hook checks the flag before beating or
   emitting. *)
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
         if Atomic.get slot.cancel then
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
  Obs.Iterlog.clear ();
  Obs.Iterlog.set_sink
    (Some
       (fun row ->
         if not (Atomic.get slot.abandoned) then begin
           beat t slot;
           (match inject with
           | Some { Jobspec.after_iterations = Some n; _ }
             when row.Obs.Iterlog.iteration >= n ->
             iter_armed := true
           | _ -> ());
           if spec.Jobspec.progress then emit t (Progress (job, row))
         end))

(* The solve phase: one [Mc.Job.attempt].  A batch job verifies one
   property per conjunct of the model's good on this worker's manager
   (single domain: the worker already is one, and staying on its manager
   is what lets the fault hook cancel it); a retry re-runs the whole
   batch, since the invariant pool is per-run.  An XICI retry resumes
   from the job's checkpoint.  A portfolio runs on child domains with
   private managers, so the hooks above never fire there; heartbeat,
   cancel and progress are re-threaded through the portfolio's own
   callbacks (else every portfolio job longer than the hang timeout
   would be declared hung and its domains leaked). *)
let solve t slot (job : job) ~attempt ~remaining ~pressure:p tracer model =
  let spec = job.spec in
  let strategy =
    match spec.Jobspec.meth with
    | Jobspec.Method meth when spec.Jobspec.batch ->
      Mc.Job.Batch { meth; props = Mc.Batch.of_goods model; domains = 1 }
    | Jobspec.Method meth -> Mc.Job.Method meth
    | Jobspec.Portfolio ->
      Mc.Job.Portfolio
        { domains = (if p >= 2 then 1 else t.cfg.portfolio_domains) }
  in
  let xici_cfg =
    Option.map
      (fun g -> { Ici.Policy.default with Ici.Policy.grow_threshold = g })
      spec.Jobspec.grow_threshold
  in
  let alive () = not (Atomic.get slot.abandoned) in
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
        ~limits:(limits_for t job ~remaining ~pressure:p)
        ?xici_cfg ?checkpoint:job.checkpoint_path
        ~checkpoint_every:t.cfg.checkpoint_every
        ?resume:(if attempt > 1 then job.checkpoint_path else None)
        ~should_cancel:(fun () -> Atomic.get slot.cancel)
        ~on_progress:(fun ~live ->
          if alive () then begin
            beat t slot;
            Atomic.set slot.live live
          end)
        ~iter_sink:(fun row ->
          if alive () then begin
            beat t slot;
            if spec.Jobspec.progress then emit t (Progress (job, row))
          end)
        strategy model
    in
    resumed_at := Option.value ~default:0 r.Mc.Job.resumed_at;
    r
  in
  Obs.Registry.observe t.solve_ms (ms (Mc.Monotonic.now () -. t_solve));
  r

(* The epilogue: resolve the job from the attempt's result. *)
let epilogue t slot (job : job) ~attempt tracer (r : Mc.Job.result) =
  Obs.Tracer.with_span tracer ~cat:"srv" "job.epilogue" @@ fun () ->
  if Atomic.get slot.abandoned then
    (* Zombie waking up: the supervisor already requeued this
       execution's job and replaced the slot.  Anything we could say now
       is a late event; drop it (the attempt stamp would make it a no-op
       anyway). *)
    ()
  else if Atomic.get slot.cancel && not (Mc.Report.decided r.Mc.Job.report)
  then
    (* The supervisor declared us hung and the cancel landed: this
       execution was aborted short of a verdict; retry if allowed. *)
    requeue_or_fail t job ~attempt ~reason:"hung (cancelled mid-run)"
  else
    (* Either no cancel, or the cancel lost the race to a real
       Proved/Violated verdict -- a decided report is sound regardless
       of how slowly it arrived, so deliver it rather than burning an
       attempt. *)
    finish t slot job ~attempt
      ~resumed_at:(Option.value ~default:0 r.Mc.Job.resumed_at)
      ?batch:r.Mc.Job.batch r.Mc.Job.report

let run_job t slot (job : job) ~attempt =
  let now = Mc.Monotonic.now () in
  let remaining = Option.map (fun d -> d -. now) job.deadline_at in
  match remaining with
  | Some r when r <= 0.0 ->
    finish t slot job ~attempt ~resumed_at:0
      (failed_report job "deadline expired")
  | _ ->
    with_job_trace job ~attempt ~worker:slot.sid @@ fun tracer ->
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
    let p = note_pressure t (pressure t) in
    let model = thaw t slot job ~pressure:p tracer in
    install_hooks t slot job ~attempt (Mc.Model.man model);
    let r =
      Fun.protect
        ~finally:(fun () -> Obs.Iterlog.set_sink None)
        (fun () ->
          solve t slot job ~attempt ~remaining ~pressure:p tracer model)
    in
    epilogue t slot job ~attempt tracer r

(* --- worker lifecycle ------------------------------------------------ *)

(* Publish the retained scratch's live count, then apply the same rule
   [run_job] applies at dispatch: at pressure >= 1 the scratch is
   dropped.  Every idle retention thus passed a check that included all
   other published counts, so idle scratch alone stays under half the
   cap and cannot hold the pool at a refusing pressure level. *)
let retain_scratch t slot =
  match slot.scratch with
  | None -> Atomic.set slot.live 0
  | Some (_, m) ->
    Atomic.set slot.live (Bdd.live_nodes (Mc.Model.man m));
    if pressure t >= 1 then begin
      slot.scratch <- None;
      Atomic.set slot.live 0
    end

(* Affinity: a worker holding a warm scratch manager asks the queue for
   a job on the same declaration first; the admission queue bounds how
   often any job can be overtaken this way. *)
let worker_loop t slot =
  let rec loop () =
    if Atomic.get slot.abandoned then ()
    else
      let prefer =
        Option.map
          (fun (key, _) (j : job) -> String.equal j.model_key key)
          slot.scratch
      in
      match Admission.pop ?prefer t.queue with
      | None -> ()
      | Some job ->
        if Atomic.get slot.abandoned then
          (* Popped during abandonment: hand the job back untouched. *)
          Admission.push_urgent t.queue job
        else begin
          (* Stamp this dispatch with the attempt it runs ([attempt] is
             mutated under the event lock, so read it there too). *)
          Mutex.lock t.ev_lock;
          let attempt = job.attempt in
          Mutex.unlock t.ev_lock;
          Atomic.set slot.current (Some (job, attempt));
          Atomic.set slot.cancel false;
          Atomic.set slot.busy true;
          beat t slot;
          job.dispatched_at <- Mc.Monotonic.now ();
          (* Queue time = admission to first dispatch; retries ride the
             urgent lane and would only record ~0 samples. *)
          if attempt = 1 then
            Obs.Registry.observe t.queue_ms
              (ms (job.dispatched_at -. job.submitted_at));
          fl t ~kind:"dispatch"
            (job_detail job @ [ ("worker", Obs.Json.Int slot.sid) ]);
          run_job t slot job ~attempt;
          (* Reached only on normal completion: a crash must leave
             [busy]/[current] set so the supervisor can requeue. *)
          retain_scratch t slot;
          Atomic.set slot.busy false;
          Atomic.set slot.current None;
          loop ()
        end
  in
  loop ()

let make_slot t sid =
  let slot =
    {
      sid;
      domain = None;
      hb = Atomic.make (Mc.Monotonic.now ());
      live = Atomic.make 0;
      busy = Atomic.make false;
      cancel = Atomic.make false;
      dead = Atomic.make None;
      current = Atomic.make None;
      abandoned = Atomic.make false;
      fl_beat = Atomic.make 0.0;
      scratch = None;
    }
  in
  let d =
    Domain.spawn (fun () ->
        try worker_loop t slot
        with e ->
          (* Crash path: record the cause, wake the daemon and let the
             domain end; the supervisor joins, requeues and respawns. *)
          Atomic.set slot.dead (Some (Printexc.to_string e));
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
  let t =
    {
      cfg = { config with workers };
      queue =
        Admission.create ~max_passes:workers ~capacity:queue_capacity ();
      slots = [||];
      ev_lock = Mutex.create ();
      events = Queue.create ();
      wake_r;
      wake_w;
      wake_open = true;
      orphans = 0;
      outstanding = Atomic.make 0;
      next_sid = 0;
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
  t.slots <-
    Array.init t.cfg.workers (fun _ ->
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        make_slot t sid);
  t

(* --- submission ------------------------------------------------------ *)

let submit t job =
  let r = Admission.try_push t.queue job in
  (match r with
  | Ok depth ->
    Atomic.incr t.outstanding;
    fl t ~kind:"admit" (job_detail job @ [ ("depth", Obs.Json.Int depth) ])
  | Error reason ->
    fl t ~kind:"reject"
      (job_detail job @ [ ("reason", Obs.Json.String reason) ]));
  Obs.Registry.set t.depth_gauge (float_of_int (Admission.depth t.queue));
  r

let queue_depth t = Admission.depth t.queue

let busy_workers t =
  Array.fold_left
    (fun acc s ->
      if Atomic.get s.busy && not (Atomic.get s.abandoned) then acc + 1
      else acc)
    0 t.slots

let workers t = Array.length t.slots
let idle t = Atomic.get t.outstanding = 0
let jobs_done t = Obs.Registry.count t.jobs_done
let outstanding t = Atomic.get t.outstanding

type slot_health = {
  sh_sid : int;
  sh_busy : bool;
  sh_live : int;
  sh_silent_s : float;  (* seconds since last heartbeat *)
  sh_job : string option;  (* id of the job being run, if busy *)
}

let slot_health t =
  let now = Mc.Monotonic.now () in
  Array.to_list t.slots
  |> List.filter (fun s -> not (Atomic.get s.abandoned))
  |> List.map (fun s ->
         {
           sh_sid = s.sid;
           sh_busy = Atomic.get s.busy;
           sh_live = Atomic.get s.live;
           sh_silent_s = now -. Atomic.get s.hb;
           sh_job =
             Option.map
               (fun ((j : job), _) -> j.spec.Jobspec.id)
               (Atomic.get s.current);
         })

(* (name, p50, p90, p99) in milliseconds for each latency histogram. *)
let latency_row h =
  ( Obs.Registry.histogram_name h,
    Obs.Registry.histogram_percentile h 0.5,
    Obs.Registry.histogram_percentile h 0.9,
    Obs.Registry.histogram_percentile h 0.99 )

let latency t = List.map latency_row [ t.queue_ms; t.thaw_ms; t.solve_ms; t.e2e_ms ]

(* --- supervision ----------------------------------------------------- *)

let respawn t i =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  t.slots.(i) <- make_slot t sid

let supervise t =
  let now = Mc.Monotonic.now () in
  Array.iteri
    (fun i slot ->
      match Atomic.get slot.dead with
      | Some why ->
        (match slot.domain with
        | Some d -> ( try Domain.join d with _ -> ())
        | None -> ());
        Obs.Registry.incr t.crashes;
        (* Dump the black box with the crash as its last entry; the
           requeue/abort reason references the dump so the failure
           report leads straight to the post-mortem file. *)
        let dump =
          dump_flight t
            ~trigger:
              ( "worker_crash",
                [
                  ("worker", Obs.Json.Int slot.sid);
                  ("why", Obs.Json.String why);
                ]
                @
                match Atomic.get slot.current with
                | Some (job, _) -> job_detail job
                | None -> [] )
        in
        emit t (Worker_died (slot.sid, why, dump));
        (match Atomic.get slot.current with
        | Some (job, attempt) ->
          let reason =
            match dump with
            | Some path ->
              Printf.sprintf "worker crashed: %s [flight: %s]" why path
            | None -> Printf.sprintf "worker crashed: %s" why
          in
          requeue_or_fail t job ~attempt ~reason
        | None -> ());
        respawn t i
      | None ->
        if Atomic.get slot.busy && not (Atomic.get slot.abandoned) then begin
          let silent = now -. Atomic.get slot.hb in
          if silent > 2.0 *. t.cfg.hang_timeout_s && Atomic.get slot.cancel
          then begin
            (* Cancel ignored: the worker is wedged outside kernel
               code.  Abandon the slot (zombie) and move on; the
               orphan domain is never joined. *)
            Atomic.set slot.abandoned true;
            t.orphans <- t.orphans + 1;
            let dump =
              dump_flight t
                ~trigger:
                  ( "worker_abandoned",
                    [ ("worker", Obs.Json.Int slot.sid) ]
                    @
                    match Atomic.get slot.current with
                    | Some (job, _) -> job_detail job
                    | None -> [] )
            in
            (match Atomic.get slot.current with
            | Some (job, attempt) ->
              let reason =
                match dump with
                | Some path ->
                  Printf.sprintf "worker hung (abandoned) [flight: %s]" path
                | None -> "worker hung (abandoned)"
              in
              requeue_or_fail t job ~attempt ~reason
            | None -> ());
            emit t (Worker_replaced slot.sid);
            respawn t i
          end
          else if silent > t.cfg.hang_timeout_s && not (Atomic.get slot.cancel)
          then begin
            Atomic.set slot.cancel true;
            Obs.Registry.incr t.hangs;
            ignore
              (dump_flight t
                 ~trigger:
                   ( "hang_cancel",
                     [ ("worker", Obs.Json.Int slot.sid) ]
                     @
                     match Atomic.get slot.current with
                     | Some (job, _) -> job_detail job
                     | None -> [] ));
            emit t (Worker_hung slot.sid)
          end
        end)
    t.slots;
  Obs.Registry.set t.depth_gauge (float_of_int (Admission.depth t.queue));
  ignore (note_pressure t (pressure t))

let shutdown t =
  Admission.close t.queue;
  Array.iter
    (fun slot ->
      if not (Atomic.get slot.abandoned) then
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
