(* Newline-delimited JSON wire protocol.

   One request per line from the client; one event object per line back.
   Every event carries a ["type"] tag so clients can dispatch without
   schema knowledge, and every job-scoped event carries the job ["id"].
   The same encoding is used over the Unix socket and over stdin/stdout
   (the daemon's --stdio test mode), so tests and CI exercise the real
   parser. *)

type stats_format = Json | Prom

type request =
  | Submit of Jobspec.t
  | Stats of stats_format
  | Health
  | Watch of float  (* delta-streaming interval, seconds *)
  | Unwatch
  | Ping
  | Shutdown

let min_watch_interval_s = 0.05

let request_of_line line =
  match Obs.Json.of_string line with
  | exception Obs.Json.Parse_error why ->
    Error (Printf.sprintf "bad JSON: %s" why)
  | json -> (
    match Option.bind (Obs.Json.member "type" json) Obs.Json.to_str with
    | Some "submit" -> (
      match Jobspec.of_json json with
      | Ok spec -> Ok (Submit spec)
      | Error why -> Error why)
    | Some "stats" -> (
      match Option.bind (Obs.Json.member "format" json) Obs.Json.to_str with
      | None | Some "json" -> Ok (Stats Json)
      | Some "prom" | Some "prometheus" -> Ok (Stats Prom)
      | Some other -> Error (Printf.sprintf "unknown stats format %S" other))
    | Some "health" -> Ok Health
    | Some "watch" -> (
      match Obs.Json.member "interval_s" json with
      | None -> Ok (Watch 2.0)
      | Some v -> (
        match Obs.Json.to_float v with
        | Some f when f > 0.0 -> Ok (Watch (Float.max min_watch_interval_s f))
        | Some _ -> Error "watch interval_s must be positive"
        | None -> Error "watch interval_s must be a number"))
    | Some "unwatch" -> Ok Unwatch
    | Some "ping" -> Ok Ping
    | Some "shutdown" -> Ok Shutdown
    | Some other -> Error (Printf.sprintf "unknown request type %S" other)
    | None -> (
      (* A bare job object is accepted as an implicit submit so that a
         file of jobs can be piped in unchanged. *)
      match Jobspec.of_json json with
      | Ok spec -> Ok (Submit spec)
      | Error why -> Error why))

(* --- server -> client events ---------------------------------------- *)

let ev kind fields = Obs.Json.Obj (("type", Obs.Json.String kind) :: fields)

let accepted ~id ~trace_id ~queue_depth =
  ev "accepted"
    [
      ("id", Obs.Json.String id);
      ("trace_id", Obs.Json.String trace_id);
      ("queue_depth", Obs.Json.Int queue_depth);
    ]

let rejected ~id ~reason =
  ev "rejected"
    [ ("id", Obs.Json.String id); ("reason", Obs.Json.String reason) ]

let error ~reason = ev "error" [ ("reason", Obs.Json.String reason) ]

let progress ~id (row : Obs.Iterlog.row) =
  ev "progress"
    [
      ("id", Obs.Json.String id);
      ("method", Obs.Json.String row.Obs.Iterlog.meth);
      ("iteration", Obs.Json.Int row.Obs.Iterlog.iteration);
      ("conjuncts", Obs.Json.Int row.Obs.Iterlog.conjuncts);
      ("nodes", Obs.Json.Int row.Obs.Iterlog.nodes);
      ("live_nodes", Obs.Json.Int row.Obs.Iterlog.live_nodes);
      ("elapsed_s", Obs.Json.Float row.Obs.Iterlog.elapsed_s);
    ]

let retry ~id ~trace_id ~reason ~attempt =
  ev "retry"
    [
      ("id", Obs.Json.String id);
      ("trace_id", Obs.Json.String trace_id);
      ("reason", Obs.Json.String reason);
      ("attempt", Obs.Json.Int attempt);
    ]

(* [trace] is the server-side path of the job's span-tree JSONL when the
   job was submitted with ["trace": true]; [queue_s]/[e2e_s] are the
   daemon-measured admission-to-dispatch and admission-to-resolution
   latencies, so clients (and bench --daemon) get them without clock
   games of their own. *)
let timing_fields ~trace_id ~trace ~queue_s ~e2e_s =
  [
    ("trace_id", Obs.Json.String trace_id);
    ("queue_s", Obs.Json.Float queue_s);
    ("e2e_s", Obs.Json.Float e2e_s);
  ]
  @ match trace with
    | None -> []
    | Some path -> [ ("trace", Obs.Json.String path) ]

let result ~id ~trace_id ?trace ~queue_s ~e2e_s ~worker ~resumed_at
    (report : Mc.Report.t) =
  ev "result"
    ([
       ("id", Obs.Json.String id);
       ("verdict", Obs.Json.String (Mc.Report.status_string report));
       ("report", Mc.Report.to_json report);
       ("worker", Obs.Json.Int worker);
       ("resumed", Obs.Json.Bool (resumed_at > 0));
       ("resumed_at", Obs.Json.Int resumed_at);
     ]
    @ timing_fields ~trace_id ~trace ~queue_s ~e2e_s)

(* A batch job's terminal event keeps the ["result"] shape (clients
   that only read ["verdict"] keep working) and adds the per-property
   verdict array plus the pool-sharing counter. *)
let batch_result ~id ~trace_id ?trace ~queue_s ~e2e_s ~worker
    (res : Mc.Batch.result) (report : Mc.Report.t) =
  let item (it : Mc.Batch.item) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String it.Mc.Batch.prop.Mc.Batch.pname);
        ( "verdict",
          Obs.Json.String (Mc.Report.status_string it.Mc.Batch.report) );
      ]
  in
  ev "result"
    ([
      ("id", Obs.Json.String id);
      ("verdict", Obs.Json.String (Mc.Report.status_string report));
      ("report", Mc.Report.to_json report);
      ("batch", Obs.Json.List (List.map item res.Mc.Batch.items));
      ( "batch_stats",
        Obs.Json.Obj
          [
            ( "invariants_shared",
              Obs.Json.Int res.Mc.Batch.stats.Mc.Batch.invariants_shared );
          ] );
      ("worker", Obs.Json.Int worker);
    ]
    @ timing_fields ~trace_id ~trace ~queue_s ~e2e_s)

let pong = ev "pong" []

let draining = ev "draining" []

(* [latency] rows are (histogram, p50, p90, p99) in the unit the
   histogram was registered with (milliseconds for the srv.* set). *)
let latency_json latency =
  Obs.Json.Obj
    (List.map
       (fun (name, p50, p90, p99) ->
         ( name,
           Obs.Json.Obj
             [
               ("p50", Obs.Json.Float p50);
               ("p90", Obs.Json.Float p90);
               ("p99", Obs.Json.Float p99);
             ] ))
       latency)

let stats ~queue_depth ~busy_workers ~workers ~live_nodes ~pressure ~jobs_done
    ~jobs_per_s ~latency =
  ev "stats"
    [
      ("queue_depth", Obs.Json.Int queue_depth);
      ("busy_workers", Obs.Json.Int busy_workers);
      ("workers", Obs.Json.Int workers);
      ("live_nodes", Obs.Json.Int live_nodes);
      ("pressure", Obs.Json.Int pressure);
      ("jobs_done", Obs.Json.Int jobs_done);
      ("jobs_per_s", Obs.Json.Float jobs_per_s);
      ("latency", latency_json latency);
    ]

(* Prometheus text exposition rides inside the newline-JSON framing as
   one string field (newlines are escaped by the JSON encoder), so the
   single-line event invariant holds; [icvd --client stats --format
   prom] unwraps it back to scrapeable text. *)
let stats_prom ~text =
  ev "stats"
    [ ("format", Obs.Json.String "prom"); ("prom", Obs.Json.String text) ]

let health ~uptime_s ~queue_depth ~outstanding ~busy_workers ~workers
    ~live_nodes ~max_total_live ~pressure ~draining
    (slots : Pool.slot_health list) =
  let slot (s : Pool.slot_health) =
    Obs.Json.Obj
      ([
         ("worker", Obs.Json.Int s.Pool.sh_sid);
         ("busy", Obs.Json.Bool s.Pool.sh_busy);
         ("live_nodes", Obs.Json.Int s.Pool.sh_live);
         ("silent_s", Obs.Json.Float s.Pool.sh_silent_s);
       ]
      @ match s.Pool.sh_job with
        | None -> []
        | Some id -> [ ("job", Obs.Json.String id) ])
  in
  ev "health"
    [
      ("uptime_s", Obs.Json.Float uptime_s);
      ("queue_depth", Obs.Json.Int queue_depth);
      ("inflight", Obs.Json.Int outstanding);
      ("busy_workers", Obs.Json.Int busy_workers);
      ("workers", Obs.Json.Int workers);
      ("live_nodes", Obs.Json.Int live_nodes);
      ("max_total_live", Obs.Json.Int max_total_live);
      ("pressure", Obs.Json.Int pressure);
      ("draining", Obs.Json.Bool draining);
      ("slots", Obs.Json.List (List.map slot slots));
    ]

(* One delta frame of a [watch] stream: counter/gauge changes since the
   previous frame (metrics that did not move are omitted), plus the
   instantaneous queue/pressure snapshot. *)
let metrics ~elapsed_s ~queue_depth ~busy_workers ~pressure ~delta =
  ev "metrics"
    [
      ("elapsed_s", Obs.Json.Float elapsed_s);
      ("queue_depth", Obs.Json.Int queue_depth);
      ("busy_workers", Obs.Json.Int busy_workers);
      ("pressure", Obs.Json.Int pressure);
      ( "delta",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) delta) );
    ]

let to_line json = Obs.Json.to_string json ^ "\n"
