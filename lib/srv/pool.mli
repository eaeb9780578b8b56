(** Persistent worker pool: the driver that runs {!Sched}'s rules.

    Workers are OCaml 5 domains running a pop/run loop over the
    admission queue; models travel as {!Mc.Parallel.frozen} strings
    and each worker thaws a private copy, preserving the
    shared-nothing discipline.  Events travel back through a queue
    plus a self-pipe ({!wake_fd}): every event, and every worker
    crash, writes one byte, so the daemon's select wakes at once.  An
    abandoned zombie's progress is suppressed, its late return is stale
    (its job was requeued as it was abandoned) and its domain is never
    joined.

    A worker keeps a warm table of the models it has run, keyed by
    {!Jobspec.model_key}, and reruns a job on one of them on its warm
    manager (counted under ["srv.manager_reuses"]).  The table stays in
    the worker's domain and is bounded by a fixed byte budget and by
    the memory-pressure rule.  Each dispatch solves with one
    {!Mc.Job.attempt}; an XICI retry resumes from the job's checkpoint
    when one was written. *)

exception Injected_crash
(** Raised by a job's test-only fault spec; deliberately not caught by
    the worker, to exercise the crash path. *)

type job = {
  spec : Jobspec.t;
  frozen : Mc.Parallel.frozen;
  client : int;  (** daemon client id the verdict routes back to *)
  trace_id : string;
      (** assigned at admission, stable across retries: the correlation
          id every span and flight entry of this job carries *)
  trace_path : string option;  (** per-job JSONL span file, if traced *)
  submitted_at : float;
  deadline_at : float option;  (** absolute, on the monotonic clock *)
  checkpoint_path : string option;
  model_key : string;
      (** {!Jobspec.model_key} of [spec.model], computed once at
          admission *)
  mutable dispatched_at : float;
      (** when the latest attempt left the queue (0.0 before dispatch);
          read it only after the job's terminal event *)
  ticket : Sched.ticket;  (** the attempt it is on *)
}

val job :
  spec:Jobspec.t ->
  model_key:string ->
  frozen:Mc.Parallel.frozen ->
  client:int ->
  trace_id:string ->
  ?trace_path:string ->
  deadline_at:float option ->
  checkpoint_path:string option ->
  unit ->
  job

type event =
  | Progress of job * Obs.Iterlog.row
  | Requeued of job * string
      (** reason; the job's ticket already names the retry *)
  | Finished of job * int * int * Mc.Report.t
      (** worker id (-1 when synthesized by the supervisor), resumed-at
          iteration (0 = cold start), final report *)
  | Batch_finished of job * int * Mc.Batch.result * Mc.Report.t
      (** a batch job's terminal event: worker id, the per-property
          {!Mc.Batch.result}, and the aggregate report that stands for
          the whole batch on the wire (first violated item's, else
          first exceeded, else proved) *)
  | Worker_died of int * string * string option
      (** worker id, cause, flight-recorder dump path if one was
          written *)
  | Worker_hung of int
  | Worker_replaced of int

type config = {
  workers : int;
  hang_timeout_s : float;
  max_total_live : int option;
      (** memory-pressure cap over all workers' live BDD nodes *)
  max_attempts : int;  (** total attempts per job, first one included *)
  portfolio_domains : int;
  checkpoint_every : int;
  flight_dir : string option;
      (** where flight-recorder dumps land (the daemon points this next
          to the checkpoint dir); [None] disables dumping — the ring
          still records *)
}

val default_config : config
(** 2 workers, 10s hang timeout, 2 attempts, checkpoint every
    iteration, no memory cap, no flight dir. *)

type t

val create : ?config:config -> queue_capacity:int -> unit -> t
(** Spawns the worker domains immediately. *)

val submit : t -> job -> (int, string) result
(** [Ok queue_depth] or [Error reason] (queue full / closed) — the
    caller turns the error into an explicit protocol rejection. *)

val poll : t -> (float * event) list
(** Drain pending events with their emit times on the
    {!Mc.Monotonic} clock, oldest first (daemon thread only).  Empties
    {!wake_fd} before it reads the queue, so an event emitted after
    the call always leaves the fd readable. *)

val wake_fd : t -> Unix.file_descr
(** Read end of the pool's self-pipe: readable whenever an event is
    pending or a worker died.  For the daemon's select set only; read
    it through {!poll}.  Closed by {!shutdown}. *)

val supervise : t -> unit
(** One supervision tick: carry out {!Sched.supervise}'s decision for
    every worker (a hung one's cancel flag, which its kernel fault hook
    turns into [Limits.Exceeded] at the next step), refresh gauges.
    Daemon thread only. *)

val shutdown : t -> unit
(** Close the queue, let workers drain it and join them (abandoned
    zombie slots excepted), then close the self-pipe unless a zombie
    might still write to it.  Call when {!idle} after draining; events
    already emitted stay pollable. *)

(** {1 Introspection} *)

val queue_depth : t -> int
val busy_workers : t -> int
val workers : t -> int

val idle : t -> bool
(** No admitted job is unresolved — the drain-completion signal. *)

val jobs_done : t -> int

val outstanding : t -> int
(** Admitted jobs not yet resolved (queued + inflight). *)

val total_live : t -> int
(** Live BDD nodes over all workers: each one's warm table, and a busy
    one's running manager. *)

type slot_health = {
  sh_sid : int;
  sh_busy : bool;
  sh_live : int;
  sh_silent_s : float;  (** seconds since the worker's last heartbeat *)
  sh_job : string option;  (** id of the job being run, if busy *)
}

val slot_health : t -> slot_health list
(** Liveness of every non-abandoned worker slot, for the [health]
    protocol request. *)

val latency : t -> (string * float * float * float) list
(** [(histogram_name, p50, p90, p99)] in milliseconds for the
    queue/thaw/solve/end-to-end latency split. *)

val latency_row : Obs.Registry.histogram -> string * float * float * float
(** One {!latency} row for any histogram. *)

val dump_flight :
  t -> trigger:(string * (string * Obs.Json.t) list) -> string option
(** Record [trigger] as the ring's final entry, then dump the ring as
    JSONL under [flight_dir], returning the file path ([None] if no
    [flight_dir] or the write failed).  Daemon thread only.  Called
    internally on worker crash, hang-cancel and zombie abandonment; the
    daemon calls it on SIGTERM. *)

val pressure : t -> int
(** {!Sched.pressure} over all workers: 3 tells the daemon to refuse
    new work. *)
