(* The icvd event loop.

   Single-threaded select() loop owning all I/O and supervision; the
   only other threads are the pool's worker domains, reached through
   the admission queue (in) and the event queue (out).  The pool's
   self-pipe sits in the select read set, so a worker's event (or
   crash) wakes the loop at once; without one the select sleeps until
   the next supervision period or watch frame is due.  Requests are
   newline-JSON (see {!Protocol}); transport is a Unix-domain socket,
   or stdin/stdout in [stdio] mode so tests and CI can drive the real
   loop through a pipe.

   Shutdown contract: SIGTERM/SIGINT (or stdin EOF in stdio mode, or a
   "shutdown" request) flips the draining flag.  A draining daemon
   stops accepting connections, answers every new submit with
   [rejected "draining"], finishes everything already admitted, then
   joins the pool and exits.  Overload is the same shape: a full
   admission queue or pressure level 3 answers [rejected ...]
   immediately -- the daemon never buffers unboundedly and never
   drops a job silently. *)

type config = {
  socket_path : string option;
  stdio : bool;
  workers : int;
  queue_capacity : int;
  checkpoint_dir : string option;
  trace_dir : string option;
      (* where per-job span files land for "trace": true jobs; falls
         back to checkpoint_dir, then the system temp dir *)
  default_deadline_s : float option;
  hang_timeout_s : float;
  max_total_live : int option;
  max_attempts : int;
  portfolio_domains : int;
}

let default_config =
  {
    socket_path = None;
    stdio = false;
    workers = 2;
    queue_capacity = 16;
    checkpoint_dir = None;
    trace_dir = None;
    default_deadline_s = None;
    hang_timeout_s = 10.0;
    max_total_live = None;
    max_attempts = 2;
    portfolio_domains = 2;
  }

(* The longest the loop sleeps without a pool event: bounds how late a
   hang is noticed past its timeout, and how late a drain flag set
   outside select (a signal between passes) is seen. *)
let supervise_period_s = 0.1

type client = {
  cid : int;
  fd : Unix.file_descr;
  out : Unix.file_descr;  (* = fd except for the stdio client *)
  buf : Buffer.t;
  outbuf : Buffer.t;
      (* pending outgoing lines, flushed through the select write set:
         a client that stops reading must never block the loop *)
  mutable queued : int;  (* bytes ever appended to [outbuf] *)
  mutable written : int;  (* bytes ever written from it *)
  results : (int * float) Queue.t;
      (* end offset (in [queued] terms) and routing time of each
         buffered result line, for srv.flush_ms *)
  mutable alive : bool;
  mutable in_open : bool;
      (* stdio only: EOF on stdin closes the request side while events
         keep flowing to stdout until the drain completes *)
  mutable watch_interval : float option;
      (* Some s: stream a metrics delta event every s seconds *)
  mutable watch_last : float;
  mutable watch_prev : (string * float) list;
      (* metric values at the last streamed frame, for the delta *)
}

type state = {
  cfg : config;
  pool : Pool.t;
  clients : (int, client) Hashtbl.t;
  frozen_cache : (string, Mc.Parallel.frozen) Hashtbl.t;
  draining : bool Atomic.t;
  started_at : float;  (* monotonic, for uptime_s in health *)
  mutable next_cid : int;
  mutable next_seq : int;  (* distinct checkpoint path per admission *)
  completions : float Queue.t;
      (* completion times, oldest first, trimmed to the jobs/sec
         window *)
  rbuf : Bytes.t;  (* one read buffer for every client *)
  jps_gauge : Obs.Registry.gauge;
  rejections : Obs.Registry.counter;
  route_ms : Obs.Registry.histogram;
      (* terminal event: worker emit to result line buffered *)
  flush_ms : Obs.Registry.histogram;
      (* result line buffered to result line fully written *)
}

let jps_window_s = 10.0

(* --- client I/O ------------------------------------------------------ *)

(* Output never blocks the loop: [send_line] only appends to the
   client's buffer, and the buffer drains through the select write set
   (socket fds are nonblocking).  A client that stops reading while
   events keep coming would grow its buffer without bound -- the one
   thing the daemon promised never to do -- so past [max_outbuf] the
   client is marked dead and reaped by the loop (its jobs run on; the
   verdicts are dropped like any vanished client's).  The stdio client
   is exempt: its reader is the test/CI harness and its buffer is
   bounded by the jobs it submitted. *)
let max_outbuf = 8 * 1024 * 1024

let send_line (c : client) json =
  if c.alive then begin
    let line = Protocol.to_line json in
    Buffer.add_string c.outbuf line;
    c.queued <- c.queued + String.length line;
    if c.cid <> 0 && Buffer.length c.outbuf > max_outbuf then begin
      c.alive <- false;
      Mc.Log.degraded ~what:"client"
        ~detail:
          (Printf.sprintf "client %d not reading (%d bytes queued); dropping"
             c.cid (Buffer.length c.outbuf))
    end
  end

let send_to st cid json =
  match Hashtbl.find_opt st.clients cid with
  | Some c -> send_line c json
  | None -> ()  (* client went away; its verdicts are dropped *)

(* A job's terminal line: buffered like any other, and marked with the
   time it was routed so the flush that completes it can time the
   write.  Returns the routing time. *)
let send_result st cid json =
  match Hashtbl.find_opt st.clients cid with
  | Some c ->
    send_line c json;
    let routed = Mc.Monotonic.now () in
    if c.alive then Queue.push (c.queued, routed) c.results;
    routed
  | None -> Mc.Monotonic.now ()

let drop_client st (c : client) =
  c.alive <- false;
  c.in_open <- false;
  Hashtbl.remove st.clients c.cid;
  if c.cid <> 0 then ( try Unix.close c.fd with _ -> ())

(* Write as much buffered output as the fd will take right now.  The
   stdio client's fds stay in blocking mode (they are shared with the
   parent process), so it flushes in <= 512-byte chunks: select just
   said the pipe is writable, and POSIX guarantees room for at least
   PIPE_BUF >= 512 bytes, so a chunk that small cannot block. *)
let flush_client st (c : client) =
  let len = Buffer.length c.outbuf in
  if len > 0 && c.alive then begin
    let data = Buffer.contents c.outbuf in
    let chunk = if c.cid = 0 then min len 512 else len in
    match Unix.write_substring c.out data 0 chunk with
    | n ->
      Buffer.clear c.outbuf;
      if n < len then Buffer.add_substring c.outbuf data n (len - n);
      c.written <- c.written + n;
      if not (Queue.is_empty c.results) then begin
        let now = Mc.Monotonic.now () in
        while
          (not (Queue.is_empty c.results))
          && fst (Queue.peek c.results) <= c.written
        do
          let _, routed = Queue.pop c.results in
          Obs.Registry.observe st.flush_ms
            (int_of_float ((now -. routed) *. 1e3))
        done
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) ->
      drop_client st c
  end

let reap_dead st =
  let dead =
    Hashtbl.fold
      (fun _ c acc -> if c.alive then acc else c :: acc)
      st.clients []
  in
  List.iter (drop_client st) dead

(* --- request handling ------------------------------------------------ *)

let jobs_per_s st =
  let now = Mc.Monotonic.now () in
  while
    (not (Queue.is_empty st.completions))
    && now -. Queue.peek st.completions > jps_window_s
  do
    ignore (Queue.pop st.completions)
  done;
  float_of_int (Queue.length st.completions) /. jps_window_s

let reject st c ~id ~reason =
  Obs.Registry.incr st.rejections;
  send_line c (Protocol.rejected ~id ~reason)

let handle_submit st (c : client) (spec : Jobspec.t) =
  let id = spec.Jobspec.id in
  if Atomic.get st.draining then reject st c ~id ~reason:"draining"
  else if Pool.pressure st.pool >= 3 then
    reject st c ~id ~reason:"memory pressure: refusing new work"
  else begin
    let key = Jobspec.model_key spec.Jobspec.model in
    let frozen =
      match Hashtbl.find_opt st.frozen_cache key with
      | Some f -> Ok f
      | None -> (
        match Jobspec.build spec.Jobspec.model with
        | model ->
          let f = Mc.Parallel.freeze model in
          Hashtbl.replace st.frozen_cache key f;
          Ok f
        | exception (Failure why | Invalid_argument why) -> Error why
        | exception e -> Error (Printexc.to_string e))
    in
    match frozen with
    | Error why -> reject st c ~id ~reason:(Printf.sprintf "bad model: %s" why)
    | Ok frozen ->
      let deadline_s =
        match spec.Jobspec.deadline_s with
        | Some _ as d -> d
        | None -> st.cfg.default_deadline_s
      in
      let deadline_at =
        Option.map (fun s -> Mc.Monotonic.now () +. s) deadline_s
      in
      let seq = st.next_seq in
      st.next_seq <- seq + 1;
      (* The correlation id: assigned once here at admission, threaded
         through every span, flight entry and protocol event of this
         job, stable across retry attempts. *)
      let trace_id = Printf.sprintf "icv-%d-%s" seq id in
      let checkpoint_path =
        Option.map
          (fun dir -> Filename.concat dir (Printf.sprintf "job-%d.ckpt" seq))
          st.cfg.checkpoint_dir
      in
      let trace_path =
        if not spec.Jobspec.trace then None
        else
          let dir =
            match (st.cfg.trace_dir, st.cfg.checkpoint_dir) with
            | Some d, _ -> d
            | None, Some d -> d
            | None, None -> Filename.get_temp_dir_name ()
          in
          Some (Filename.concat dir (Printf.sprintf "trace-%s.jsonl" trace_id))
      in
      let job =
        Pool.job ~spec ~model_key:key ~frozen ~client:c.cid ~trace_id
          ?trace_path ~deadline_at ~checkpoint_path ()
      in
      (match Pool.submit st.pool job with
      | Ok depth ->
        send_line c (Protocol.accepted ~id ~trace_id ~queue_depth:depth)
      | Error reason -> reject st c ~id ~reason)
  end

let send_stats st c =
  send_line c
    (Protocol.stats
       ~queue_depth:(Pool.queue_depth st.pool)
       ~busy_workers:(Pool.busy_workers st.pool)
       ~workers:(Pool.workers st.pool)
       ~live_nodes:(Pool.total_live st.pool)
       ~pressure:(Pool.pressure st.pool)
       ~jobs_done:(Pool.jobs_done st.pool)
       ~jobs_per_s:(jobs_per_s st)
       ~latency:
         (Pool.latency st.pool
         @ List.map Pool.latency_row [ st.route_ms; st.flush_ms ]))

let send_health st c =
  send_line c
    (Protocol.health
       ~uptime_s:(Mc.Monotonic.now () -. st.started_at)
       ~queue_depth:(Pool.queue_depth st.pool)
       ~outstanding:(Pool.outstanding st.pool)
       ~busy_workers:(Pool.busy_workers st.pool)
       ~workers:(Pool.workers st.pool)
       ~live_nodes:(Pool.total_live st.pool)
       ~max_total_live:(Option.value st.cfg.max_total_live ~default:0)
       ~pressure:(Pool.pressure st.pool)
       ~draining:(Atomic.get st.draining)
       (Pool.slot_health st.pool))

(* Flatten the registry snapshot into named float series for the watch
   stream: counters and histogram count/sum move monotonically (their
   deltas are rates), gauges are sampled levels. *)
let metric_series () =
  List.concat_map
    (function
      | Obs.Registry.Counter (n, v) -> [ (n, float_of_int v) ]
      | Obs.Registry.Gauge (n, v) -> [ (n, v) ]
      | Obs.Registry.Histogram (n, count, sum, _max, _buckets) ->
        [ (n ^ ".count", float_of_int count); (n ^ ".sum", float_of_int sum) ])
    (Obs.Registry.snapshot Obs.Registry.default)

let send_watch_frame st (c : client) ~now =
  let cur = metric_series () in
  let delta =
    List.filter_map
      (fun (k, v) ->
        let prev =
          Option.value (List.assoc_opt k c.watch_prev) ~default:0.0
        in
        if v <> prev then Some (k, v -. prev) else None)
      cur
  in
  let elapsed_s =
    if c.watch_last = 0.0 then 0.0 else now -. c.watch_last
  in
  c.watch_prev <- cur;
  c.watch_last <- now;
  send_line c
    (Protocol.metrics ~elapsed_s
       ~queue_depth:(Pool.queue_depth st.pool)
       ~busy_workers:(Pool.busy_workers st.pool)
       ~pressure:(Pool.pressure st.pool)
       ~delta)

let tick_watchers st =
  let now = Mc.Monotonic.now () in
  Hashtbl.iter
    (fun _ c ->
      match c.watch_interval with
      | Some ivl when c.alive && now -. c.watch_last >= ivl ->
        send_watch_frame st c ~now
      | _ -> ())
    st.clients

let handle_line st c line =
  let line = String.trim line in
  if line <> "" then
    match Protocol.request_of_line line with
    | Error why -> send_line c (Protocol.error ~reason:why)
    | Ok (Protocol.Submit spec) -> handle_submit st c spec
    | Ok (Protocol.Stats Protocol.Json) -> send_stats st c
    | Ok (Protocol.Stats Protocol.Prom) ->
      send_line c
        (Protocol.stats_prom
           ~text:(Obs.Summary.to_prometheus Obs.Registry.default))
    | Ok Protocol.Health -> send_health st c
    | Ok (Protocol.Watch interval_s) ->
      c.watch_interval <- Some interval_s;
      c.watch_prev <- [];
      c.watch_last <- 0.0;
      (* immediate first frame: establishes the baseline and tells the
         client the stream is live *)
      send_watch_frame st c ~now:(Mc.Monotonic.now ())
    | Ok Protocol.Unwatch -> c.watch_interval <- None
    | Ok Protocol.Ping -> send_line c Protocol.pong
    | Ok Protocol.Shutdown ->
      Atomic.set st.draining true;
      send_line c Protocol.draining

(* Split the client's buffer on newlines, keeping any trailing
   partial line. *)
let consume_buffer st c =
  let data = Buffer.contents c.buf in
  Buffer.clear c.buf;
  let n = String.length data in
  let start = ref 0 in
  (try
     while !start < n do
       match String.index_from data !start '\n' with
       | nl ->
         handle_line st c (String.sub data !start (nl - !start));
         start := nl + 1
       | exception Not_found ->
         Buffer.add_substring c.buf data !start (n - !start);
         start := n
     done
   with e ->
     (* keep unconsumed input even if a handler raised *)
     if !start < n then Buffer.add_substring c.buf data !start (n - !start);
     raise e)

let read_client st c =
  match Unix.read c.fd st.rbuf 0 (Bytes.length st.rbuf) with
  | 0 ->
    (* EOF.  In stdio mode the input stream *is* the job source, so
       EOF means "no more work": start draining, but keep the output
       side so pending verdicts still reach stdout. *)
    if st.cfg.stdio && c.cid = 0 then begin
      c.in_open <- false;
      Atomic.set st.draining true
    end
    else drop_client st c
  | n ->
    Buffer.add_subbytes c.buf st.rbuf 0 n;
    consume_buffer st c
  | exception
      Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
    drop_client st c
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
    ()

(* --- pool event routing ---------------------------------------------- *)

(* The daemon-side latency split reported on the terminal event:
   admission-to-dispatch (of the final attempt) and admission-to-now.
   Both ends are on this process's monotonic clock, so no cross-host
   clock games. *)
let job_timing (job : Pool.job) =
  let now = Mc.Monotonic.now () in
  let queue_s =
    if job.Pool.dispatched_at > 0.0 then
      Float.max 0.0 (job.Pool.dispatched_at -. job.Pool.submitted_at)
    else 0.0
  in
  (queue_s, Float.max 0.0 (now -. job.Pool.submitted_at))

(* A terminal event closes its job: record the completion for the
   jobs/sec window (the loop refreshes the gauge), delete the
   checkpoint, send the result line and time the hop from the worker's
   emit to here. *)
let complete st (job : Pool.job) ~emitted_at result =
  Queue.push (Mc.Monotonic.now ()) st.completions;
  (match job.Pool.checkpoint_path with
  | Some p when Sys.file_exists p -> ( try Sys.remove p with Sys_error _ -> ())
  | _ -> ());
  let queue_s, e2e_s = job_timing job in
  let routed = send_result st job.Pool.client (result ~queue_s ~e2e_s) in
  Obs.Registry.observe st.route_ms (int_of_float ((routed -. emitted_at) *. 1e3))

let route_event st (emitted_at, event) =
  match event with
  | Pool.Progress (job, row) ->
    send_to st job.Pool.client
      (Protocol.progress ~id:job.Pool.spec.Jobspec.id row)
  | Pool.Requeued (job, reason) ->
    send_to st job.Pool.client
      (Protocol.retry ~id:job.Pool.spec.Jobspec.id
         ~trace_id:job.Pool.trace_id ~reason ~attempt:job.Pool.ticket.Sched.attempt)
  | Pool.Finished (job, worker, resumed_at, report) ->
    complete st job ~emitted_at (fun ~queue_s ~e2e_s ->
        Protocol.result ~id:job.Pool.spec.Jobspec.id
          ~trace_id:job.Pool.trace_id ?trace:job.Pool.trace_path ~queue_s
          ~e2e_s ~worker ~resumed_at report)
  | Pool.Batch_finished (job, worker, res, report) ->
    complete st job ~emitted_at (fun ~queue_s ~e2e_s ->
        Protocol.batch_result ~id:job.Pool.spec.Jobspec.id
          ~trace_id:job.Pool.trace_id ?trace:job.Pool.trace_path ~queue_s
          ~e2e_s ~worker res report)
  | Pool.Worker_died (sid, why, dump) ->
    Mc.Log.degraded ~what:"worker"
      ~detail:
        (Printf.sprintf "worker %d died: %s; respawned%s" sid why
           (match dump with
           | Some path -> Printf.sprintf " (flight recorder: %s)" path
           | None -> ""))
  | Pool.Worker_hung sid ->
    Mc.Log.degraded ~what:"worker"
      ~detail:(Printf.sprintf "worker %d unresponsive; cancelling" sid)
  | Pool.Worker_replaced sid ->
    Mc.Log.degraded ~what:"worker"
      ~detail:(Printf.sprintf "worker %d ignored cancel; slot abandoned" sid)

(* --- main loop -------------------------------------------------------- *)

let new_client ~cid ~fd ~out =
  {
    cid;
    fd;
    out;
    buf = Buffer.create 256;
    outbuf = Buffer.create 256;
    queued = 0;
    written = 0;
    results = Queue.create ();
    alive = true;
    in_open = true;
    watch_interval = None;
    watch_last = 0.0;
    watch_prev = [];
  }

let accept_client st listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    let cid = st.next_cid in
    st.next_cid <- cid + 1;
    Hashtbl.replace st.clients cid (new_client ~cid ~fd ~out:fd)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Seconds until the next watch frame falls due, capped at the
   supervision period: the select timeout when no event arrives. *)
let sleep_budget st =
  let now = Mc.Monotonic.now () in
  Hashtbl.fold
    (fun _ c acc ->
      match c.watch_interval with
      | Some ivl when c.alive -> Float.min acc (c.watch_last +. ivl -. now)
      | _ -> acc)
    st.clients supervise_period_s
  |> Float.max 0.0

let run ?(on_ready = fun () -> ()) cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let draining = Atomic.make false in
  let flip _ = Atomic.set draining true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle flip) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle flip) in
  let pool_cfg =
    {
      Pool.workers = cfg.workers;
      hang_timeout_s = cfg.hang_timeout_s;
      max_total_live = cfg.max_total_live;
      max_attempts = cfg.max_attempts;
      portfolio_domains = cfg.portfolio_domains;
      checkpoint_every = 1;
      (* flight dumps land next to the checkpoints (or the traces) so a
         post-mortem finds the black box beside the artifacts it
         explains *)
      flight_dir =
        (match (cfg.checkpoint_dir, cfg.trace_dir) with
        | Some d, _ -> Some d
        | None, Some d -> Some d
        | None, None -> None);
    }
  in
  (match cfg.checkpoint_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  (match cfg.trace_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  let pool = Pool.create ~config:pool_cfg ~queue_capacity:cfg.queue_capacity () in
  let reg = Obs.Registry.default in
  let st =
    {
      cfg;
      pool;
      clients = Hashtbl.create 8;
      frozen_cache = Hashtbl.create 8;
      draining;
      started_at = Mc.Monotonic.now ();
      next_cid = 1;
      next_seq = 0;
      completions = Queue.create ();
      rbuf = Bytes.create 65536;
      jps_gauge = Obs.Registry.gauge reg "srv.jobs_per_s";
      rejections = Obs.Registry.counter reg "srv.rejections";
      route_ms = Obs.Registry.histogram reg "srv.route_ms";
      flush_ms = Obs.Registry.histogram reg "srv.flush_ms";
    }
  in
  let listen_fd =
    match cfg.socket_path with
    | None -> None
    | Some path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      Some fd
  in
  if cfg.stdio then
    Hashtbl.replace st.clients 0
      (new_client ~cid:0 ~fd:Unix.stdin ~out:Unix.stdout);
  on_ready ();
  let drained_notified = ref false in
  (* The loop is exiting: push remaining buffered event lines out with
     bounded patience instead of through further select ticks.  A
     client that stays unwritable forfeits its tail -- the alternative
     is a daemon that cannot shut down. *)
  let final_flush () =
    let deadline = Mc.Monotonic.now () +. 5.0 in
    let rec go () =
      let pending =
        Hashtbl.fold
          (fun _ c acc ->
            if c.alive && Buffer.length c.outbuf > 0 then c :: acc else acc)
          st.clients []
      in
      if pending <> [] && Mc.Monotonic.now () < deadline then begin
        (match Unix.select [] (List.map (fun c -> c.out) pending) [] 0.1 with
        | _, writable, _ ->
          List.iter
            (fun c -> if List.mem c.out writable then flush_client st c)
            pending
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    in
    go ()
  in
  (* First tick after the draining flag flips (SIGTERM, SIGINT, stdin
     EOF or a shutdown request): preserve the recent-event ring before
     the drain tears state down — "why was it killed" needs evidence —
     and tell every client.  Called both at the top of the loop and on
     the exit path, because an idle daemon exits within the very
     iteration whose select the signal interrupted. *)
  let note_draining () =
    if Atomic.get st.draining && not !drained_notified then begin
      drained_notified := true;
      (match Pool.dump_flight st.pool ~trigger:("shutdown", []) with
      | Some path ->
        Mc.Log.degraded ~what:"daemon"
          ~detail:(Printf.sprintf "draining; flight recorder: %s" path)
      | None -> ());
      Hashtbl.iter (fun _ c -> send_line c Protocol.draining) st.clients
    end
  in
  let wake_fd = Pool.wake_fd st.pool in
  let rec loop () =
    reap_dead st;
    let accepting = (not (Atomic.get st.draining)) && listen_fd <> None in
    note_draining ();
    let fds =
      (wake_fd :: (if accepting then Option.to_list listen_fd else []))
      @ Hashtbl.fold
          (fun _ c acc -> if c.in_open then c.fd :: acc else acc)
          st.clients []
    in
    let wfds =
      Hashtbl.fold
        (fun _ c acc ->
          if c.alive && Buffer.length c.outbuf > 0 then c.out :: acc else acc)
        st.clients []
    in
    let ready, writable, _ =
      match Unix.select fds wfds [] (sleep_budget st) with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = wake_fd then ()  (* drained by Pool.poll below *)
        else if listen_fd = Some fd then accept_client st fd
        else
          match
            Hashtbl.fold
              (fun _ c acc -> if c.fd = fd then Some c else acc)
              st.clients None
          with
          | Some c -> read_client st c
          | None -> ())
      ready;
    List.iter
      (fun fd ->
        match
          Hashtbl.fold
            (fun _ c acc -> if c.out = fd then Some c else acc)
            st.clients None
        with
        | Some c -> flush_client st c
        | None -> ())
      writable;
    (* Poll (which empties the wake pipe) before supervising: a worker
       that dies after the supervisor looked rings the pipe after the
       drain, so the next select returns at once. *)
    let events = Pool.poll st.pool in
    Pool.supervise st.pool;
    List.iter (route_event st) events;
    tick_watchers st;
    Obs.Registry.set st.jps_gauge (jobs_per_s st);
    if Atomic.get st.draining && Pool.idle st.pool then begin
      note_draining ();
      (* Drain complete: flush any last events and stop. *)
      List.iter (route_event st) (Pool.poll st.pool);
      Pool.shutdown st.pool;
      List.iter (route_event st) (Pool.poll st.pool);
      final_flush ()
    end
    else loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (match listen_fd with
      | Some fd -> (
        (try Unix.close fd with _ -> ());
        match cfg.socket_path with
        | Some path -> ( try Unix.unlink path with _ -> ())
        | None -> ())
      | None -> ());
      Hashtbl.iter
        (fun _ c -> if c.cid <> 0 then try Unix.close c.fd with _ -> ())
        st.clients;
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    loop
