(** The icvd event loop: a single-threaded select() loop owning all
    I/O and supervision, with the pool's worker domains reached
    through the admission queue (in) and the event queue (out).  The
    pool's wake pipe ({!Pool.wake_fd}) is in the select read set, so
    results are routed as soon as a worker emits them; an idle loop
    still wakes for supervision at a fixed internal period (100 ms) and
    for due watch frames.  [srv.route_ms] times a result from the
    worker's emit to its line being buffered, [srv.flush_ms] from there
    to the line being fully written.

    Shutdown contract: SIGTERM/SIGINT, a ["shutdown"] request, or
    stdin EOF in stdio mode flips the draining flag.  A draining
    daemon stops accepting connections, answers every new submit with
    [rejected "draining"], finishes everything already admitted, joins
    the pool and returns.  Overload has the same shape: a full
    admission queue or memory-pressure level 3 answers [rejected ...]
    immediately — the daemon never buffers unboundedly and never drops
    a job silently. *)

type config = {
  socket_path : string option;  (** listen on this Unix-domain socket *)
  stdio : bool;  (** serve stdin/stdout as client 0 (test mode) *)
  workers : int;
  queue_capacity : int;
  checkpoint_dir : string option;
      (** enables checkpoint-backed resume for XICI jobs; one file per
          admission, deleted when the job resolves *)
  trace_dir : string option;
      (** where per-job span-tree JSONL files land for jobs submitted
          with ["trace": true]; falls back to [checkpoint_dir], then
          the system temp dir.  Flight-recorder dumps also land in
          [checkpoint_dir] (or here when no checkpoint dir is set). *)
  default_deadline_s : float option;
      (** applied to jobs that do not carry their own deadline *)
  hang_timeout_s : float;
  max_total_live : int option;
  max_attempts : int;
  portfolio_domains : int;
}

val default_config : config
(** stdio off, no socket (configure at least one), 2 workers, queue
    capacity 16, 10s hang timeout. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Run until drained.  [on_ready] fires once the socket is bound and
    listening (used by tests and the CI smoke script to avoid
    connect-before-bind races).  Signal handlers are restored on
    return. *)
