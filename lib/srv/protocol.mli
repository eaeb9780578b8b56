(** Newline-delimited JSON wire protocol between icvd and its clients.

    One request object per line in; one event object per line out,
    each tagged with a ["type"] field.  The same encoding runs over
    the Unix socket and over stdin/stdout in the daemon's [--stdio]
    test mode. *)

type stats_format =
  | Json
  | Prom  (** Prometheus text exposition, via {!stats_prom} *)

type request =
  | Submit of Jobspec.t
  | Stats of stats_format
  | Health  (** queue depths, inflight, per-worker liveness, pressure *)
  | Watch of float
      (** stream a [metrics] delta event every [interval_s] seconds
          until [Unwatch] or disconnect; never below
          {!min_watch_interval_s} *)
  | Unwatch
  | Ping
  | Shutdown  (** begin draining, as if SIGTERM had arrived *)

val min_watch_interval_s : float
(** Floor applied to a requested watch interval: the daemon's loop
    wakes for every due frame, so a tiny interval must not turn it
    into a busy loop. *)

val request_of_line : string -> (request, string) result
(** Parse one request line.  [{"type":"submit", ...job fields...}]
    submits; a bare job object (no ["type"]) is an implicit submit so a
    file of jobs can be piped in unchanged.  [{"type":"stats",
    "format":"prom"}] selects Prometheus exposition;
    [{"type":"watch", "interval_s":0.5}] starts a metrics stream. *)

(** {1 Server-to-client events} *)

val accepted : id:string -> trace_id:string -> queue_depth:int -> Obs.Json.t
val rejected : id:string -> reason:string -> Obs.Json.t

val error : reason:string -> Obs.Json.t
(** Malformed request (no job id to blame). *)

val progress : id:string -> Obs.Iterlog.row -> Obs.Json.t
(** Streamed per-iteration row, when the job asked for [progress]. *)

val retry :
  id:string -> trace_id:string -> reason:string -> attempt:int -> Obs.Json.t
(** The job's worker crashed or hung; the job was requeued.  The trace
    id is the one assigned at admission — stable across attempts. *)

val result :
  id:string ->
  trace_id:string ->
  ?trace:string ->
  queue_s:float ->
  e2e_s:float ->
  worker:int ->
  resumed_at:int ->
  Mc.Report.t ->
  Obs.Json.t
(** Terminal verdict.  [resumed_at > 0] means this execution resumed
    from a checkpoint at that iteration.  [trace] is the server-side
    span-tree JSONL path when the job was submitted with
    ["trace": true]; [queue_s]/[e2e_s] are the daemon-measured
    admission-to-dispatch and admission-to-resolution latencies. *)

val batch_result :
  id:string ->
  trace_id:string ->
  ?trace:string ->
  queue_s:float ->
  e2e_s:float ->
  worker:int ->
  Mc.Batch.result ->
  Mc.Report.t ->
  Obs.Json.t
(** Terminal verdict for a batch job.  Same ["result"] event shape —
    ["verdict"]/["report"] are the aggregate that stands for the whole
    batch — plus a ["batch"] array of per-property name/verdict objects
    and the pool-sharing counter [invariants_shared] under
    ["batch_stats"]. *)

val pong : Obs.Json.t
val draining : Obs.Json.t

val stats :
  queue_depth:int ->
  busy_workers:int ->
  workers:int ->
  live_nodes:int ->
  pressure:int ->
  jobs_done:int ->
  jobs_per_s:float ->
  latency:(string * float * float * float) list ->
  Obs.Json.t
(** [latency] rows are [(histogram, p50, p90, p99)] in milliseconds,
    rendered as a ["latency"] object keyed by histogram name. *)

val stats_prom : text:string -> Obs.Json.t
(** The registry snapshot as Prometheus text exposition, carried as one
    JSON string field (["prom"]) so the single-line event framing
    holds; [icvd --client stats --format prom] unwraps it. *)

val health :
  uptime_s:float ->
  queue_depth:int ->
  outstanding:int ->
  busy_workers:int ->
  workers:int ->
  live_nodes:int ->
  max_total_live:int ->
  pressure:int ->
  draining:bool ->
  Pool.slot_health list ->
  Obs.Json.t
(** Liveness snapshot: queue depth, inflight count, memory pressure,
    uptime, and one ["slots"] entry per worker (busy flag, live nodes,
    seconds since last heartbeat, current job id). *)

val metrics :
  elapsed_s:float ->
  queue_depth:int ->
  busy_workers:int ->
  pressure:int ->
  delta:(string * float) list ->
  Obs.Json.t
(** One frame of a [watch] stream: counter/gauge movement since the
    previous frame (unchanged metrics omitted) plus the instantaneous
    queue/pressure snapshot. *)

val to_line : Obs.Json.t -> string
(** Serialized event plus the trailing newline. *)
