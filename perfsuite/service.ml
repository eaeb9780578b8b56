(* The service workload: the built icvd as a child process, driven by
   one single-threaded select loop over two Unix-socket connections.

   Arrivals are open-loop (independent users submitting on a Poisson
   schedule, so a stall builds a queue) at fixed rates, then closed-loop
   (callers that each keep 16 jobs outstanding) to find throughput.  A
   job's latency runs from the time it was due, not the time the
   generator got round to sending it, so generator lateness is charged
   to the service and reported separately. *)

let now = Obs.Clock.now

(* Small XICI jobs: a few ms of solving each, so the service's own
   machinery (admission, thaw or manager reuse, checkpoint writes,
   protocol, the select loop) dominates a job's latency. *)
let mix =
  Jobs.
    [|
      ("fifo-5", fifo 5);
      ("fifo-10", fifo 10);
      ("network-4", network 4);
      ("filter-4", filter 4);
    |]

(* --- processes -------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type daemon = { pid : int; sock : string; mutable running : bool }

(* Relative paths: a Unix socket path must fit in 108 bytes wherever the
   checkout lives. *)
let spawn ~icvd ~dir =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "icvd.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process icvd
      [|
        icvd; "--socket"; sock; "--workers"; "2"; "--queue-capacity"; "4096";
        "--checkpoint-dir"; Filename.concat dir "ckpt"; "--trace-dir";
        Filename.concat dir "traces";
      |]
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  { pid; sock; running = true }

(* SIGTERM makes icvd drain and exit; a daemon that outlives 15 s is
   killed.  Either way it is reaped before this returns. *)
let stop d =
  if d.running then begin
    d.running <- false;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 15.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

(* --- connections ------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

let connect d =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> { fd; inbuf = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        d.running <- false;
        failwith "icvd exited before it was ready");
      if now () > deadline then failwith "icvd did not become ready";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let send c line =
  let n = String.length line in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd line off (n - off))
  in
  go 0

(* The complete lines that one read makes available. *)
let read_lines c =
  let b = Bytes.create 65536 in
  match Unix.read c.fd b 0 (Bytes.length b) with
  | 0 -> failwith "icvd closed the connection"
  | n ->
    Buffer.add_subbytes c.inbuf b 0 n;
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let parts = String.split_on_char '\n' data in
    let rec split = function
      | [] -> []
      | [ partial ] ->
        Buffer.add_string c.inbuf partial;
        []
      | l :: rest -> l :: split rest
    in
    split parts

let field k json = Option.bind (Obs.Json.member k json) Obs.Json.to_str

(* Send a request on a control connection and return the first reply of
   the given type. *)
let request c ~reply line =
  send c line;
  let rec wait () =
    match
      List.find_opt
        (fun l ->
          match Obs.Json.of_string l with
          | json -> field "type" json = Some reply
          | exception Obs.Json.Parse_error _ -> false)
        (read_lines c)
    with
    | Some l -> Obs.Json.of_string l
    | None -> wait ()
  in
  wait ()

(* The daemon's registry in Prometheus text, as (name, value) pairs. *)
let prom ctl =
  let json = request ctl ~reply:"stats" "{\"type\":\"stats\",\"format\":\"prom\"}\n" in
  let text = Option.value (field "prom" json) ~default:"" in
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ name; v ] when l <> "" && l.[0] <> '#' ->
        Option.map (fun v -> (name, v)) (float_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' text)

(* A registry counter's prom name ("policy.merges" -> "icv_policy_merges"). *)
let prom_delta before after name =
  let pn = "icv_" ^ String.map (fun c -> if c = '.' then '_' else c) name in
  let v l = Option.value (List.assoc_opt pn l) ~default:0.0 in
  int_of_float (v after -. v before)

(* --- the generator ---------------------------------------------------- *)

type sample = {
  family : int;
  latency_s : float;  (* due time to result event *)
  queue_s : float;  (* daemon-measured admission to dispatch *)
  solve_s : float;  (* the report's own solve time *)
  peak_live : int;
  created : int;
  iterations : int;
  trace : string option;
}

type client = {
  conns : conn array;  (* two job connections *)
  pending : (string, float * int * int) Hashtbl.t;  (* id -> due, family, conn *)
  mutable samples : sample list;  (* of the phase in progress *)
  mutable failures : string list;
  mutable attempted : int;
  mutable late_max_s : float;
  mutable retries : int;
}

let handle_line s ~on_done line =
  match Obs.Json.of_string line with
  | exception Obs.Json.Parse_error _ ->
    s.failures <- ("unparsable event: " ^ line) :: s.failures
  | json -> (
    let num k j = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
    let resolve id f =
      match Hashtbl.find_opt s.pending id with
      | None -> ()
      | Some (due, family, c) ->
        Hashtbl.remove s.pending id;
        f (now () -. due) family;
        on_done c
    in
    match (field "type" json, field "id" json) with
    | Some "result", Some id ->
      resolve id (fun latency_s family ->
          let verdict = Option.value (field "verdict" json) ~default:"?" in
          if verdict <> "proved" then
            s.failures <-
              Printf.sprintf "%s (%s): expected proved, got %s" id
                (fst mix.(family)) verdict
              :: s.failures;
          let report = Option.value (Obs.Json.member "report" json) ~default:Obs.Json.Null in
          let int k = Option.value (Option.bind (Obs.Json.member k report) Obs.Json.to_int) ~default:0 in
          s.samples <-
            {
              family;
              latency_s;
              queue_s = Option.value (num "queue_s" json) ~default:0.0;
              solve_s = Option.value (num "wall_seconds" report) ~default:0.0;
              peak_live = int "peak_live_nodes";
              created = int "nodes_created";
              iterations = int "iterations";
              trace = field "trace" json;
            }
            :: s.samples)
    | Some "rejected", Some id ->
      resolve id (fun _ _ ->
          s.failures <-
            Printf.sprintf "%s rejected: %s" id
              (Option.value (field "reason" json) ~default:"?")
            :: s.failures)
    | Some "retry", _ -> s.retries <- s.retries + 1
    | Some "error", _ ->
      s.failures <- ("protocol error: " ^ line) :: s.failures
    | _ -> ())

let pump s ~timeout ~on_done =
  let fds = Array.to_list (Array.map (fun c -> c.fd) s.conns) in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    Array.iter
      (fun c ->
        if List.mem c.fd ready then List.iter (handle_line s ~on_done) (read_lines c))
      s.conns

(* A phase's submit lines, generated before the phase starts so the
   loop only sends.  The mix is balanced and its order drawn from the
   seed, so every seed offers the same work in a different order.
   Every [trace_every]-th job asks icvd for a span file. *)
let lines ~rng ~prefix ~n ~trace_every =
  let k = Array.length mix in
  Array.init n (fun i ->
      let family = i mod k in
      let id = Printf.sprintf "%s-%d" prefix i in
      let trace = trace_every > 0 && i mod trace_every = trace_every - 1 in
      (id, family, Jobs.submit_line ~trace ~id (snd mix.(family))))
  |> Array.to_list |> Oneshot.shuffle rng |> Array.of_list

let drain_deadline = 60.0

let submit s (id, family, line) ~due ~conn =
  Hashtbl.replace s.pending id (due, family, conn);
  s.attempted <- s.attempted + 1;
  send s.conns.(conn) line

(* Poisson arrivals at [rate]; returns the phase's samples in arrival
   order of their results. *)
let open_loop s ~rng ~rate ~jobs =
  let n = Array.length jobs in
  let due = Array.make n 0.0 in
  let t = ref (now ()) in
  for i = 0 to n - 1 do
    t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
    due.(i) <- !t
  done;
  s.samples <- [];
  let k = ref 0 in
  let deadline = !t +. drain_deadline in
  while !k < n || Hashtbl.length s.pending > 0 do
    while !k < n && due.(!k) <= now () do
      submit s jobs.(!k) ~due:due.(!k) ~conn:(!k mod 2);
      s.late_max_s <- Float.max s.late_max_s (now () -. due.(!k));
      incr k
    done;
    if now () > deadline then failwith "open-loop phase did not drain";
    let timeout = if !k < n then Float.max 0.0 (due.(!k) -. now ()) else 0.05 in
    pump s ~timeout ~on_done:ignore
  done;
  List.rev s.samples

(* Each connection keeps [outstanding] jobs in flight; returns the wall
   time from the first submission to the last verdict. *)
let closed_loop s ~outstanding ~jobs =
  let n = Array.length jobs in
  let next = ref 0 in
  let refill conn =
    if !next < n then begin
      submit s jobs.(!next) ~due:(now ()) ~conn;
      incr next
    end
  in
  s.samples <- [];
  let t0 = now () in
  for conn = 0 to 1 do
    for _ = 1 to outstanding do
      refill conn
    done
  done;
  while Hashtbl.length s.pending > 0 do
    if now () -. t0 > drain_deadline then failwith "closed-loop pass did not drain";
    pump s ~timeout:0.05 ~on_done:refill
  done;
  (now () -. t0, List.rev s.samples)

(* --- one run ------------------------------------------------------------ *)

type rate_row = { rate : float; p50_ms : float; p99_ms : float; backlog : bool }

let ms samples = List.map (fun x -> x.latency_s *. 1000.0) samples

(* A backlog grows when the last quarter of a phase's arrivals waits
   clearly longer than the first quarter. *)
let rate_row rate samples =
  let lat = Array.of_list (ms samples) in
  let n = Array.length lat in
  let q = max 1 (n / 4) in
  let first = Stats.median (Array.to_list (Array.sub lat 0 (min q n)))
  and last = Stats.median (Array.to_list (Array.sub lat (max 0 (n - q)) (min q n))) in
  {
    rate;
    p50_ms = Stats.percentile (ms samples) 0.50;
    p99_ms = Stats.percentile (ms samples) 0.99;
    backlog = last > (2.0 *. first) +. 10.0;
  }

(* The p99 limit a rate must meet to count as sustained. *)
let p99_limit_ms = 250.0

(* A daemon with its control connection and the generator's client. *)
type live = { daemon : daemon; ctl : conn; client : client }

(* Exec to ready, then one verdict per mix model, which makes the daemon
   build and freeze each model once: the service's set-up. *)
let start ~icvd ~dir ~log i =
  let t0 = now () in
  let daemon = spawn ~icvd ~dir:(Filename.concat dir (Printf.sprintf "d%d" i)) in
  let ctl = connect daemon in
  ignore (request ctl ~reply:"pong" "{\"type\":\"ping\"}\n");
  let client =
    {
      conns = [| connect daemon; connect daemon |];
      pending = Hashtbl.create 256;
      samples = [];
      failures = [];
      attempted = 0;
      late_max_s = 0.0;
      retries = 0;
    }
  in
  let prime =
    Array.mapi
      (fun f (_, spec) ->
        let id = Printf.sprintf "setup%d-%d" i f in
        (id, f, Jobs.submit_line ~id spec))
      mix
  in
  ignore (closed_loop client ~outstanding:(Array.length mix) ~jobs:prime);
  let setup_s = now () -. t0 in
  log (Printf.sprintf "set-up %d: %.3fs" (i + 1) setup_s);
  ({ daemon; ctl; client }, setup_s)

let finish l =
  Array.iter (fun c -> Unix.close c.fd) l.client.conns;
  Unix.close l.ctl.fd;
  stop l.daemon

type phase = {
  jobs : (string * int * string) array;
  samples : sample list;
  row : rate_row;
}

let open_phase l ~rng ~seconds ~smoke ~log ?(trace_every = 0) prefix rate share =
  let rate = if smoke then 50.0 else rate in
  let n = if smoke then 20 else int_of_float (rate *. share *. seconds) in
  let jobs = lines ~rng ~prefix ~n ~trace_every in
  let samples = open_loop l.client ~rng ~rate ~jobs in
  let row = rate_row rate samples in
  log
    (Printf.sprintf "%s at %.0f/s: p50 %.2fms p99 %.2fms%s" prefix rate
       row.p50_ms row.p99_ms (if row.backlog then " (backlog grows)" else ""));
  { jobs; samples; row }

(* End-to-end: latency at 120/s (gated) and up a ladder towards
   saturation, then closed-loop passes of 240 jobs whose median time to
   the last verdict is the workload's time to verdict. *)
let untraced l ~rng ~seconds ~smoke ~log ~setup_s =
  let phase = open_phase l ~rng ~seconds ~smoke ~log in
  let r120 = phase "r120" 120.0 0.55 in
  let ladder =
    if smoke then []
    else List.map (fun rate -> phase (Printf.sprintf "r%.0f" rate) rate 0.1) [ 160.0; 200.0 ]
  in
  let budget = 0.25 *. seconds and t0 = now () in
  let rec passes i acc =
    if i >= 2 && (smoke || now () -. t0 > budget) then List.rev acc
    else
      let jobs =
        lines ~rng ~prefix:(Printf.sprintf "sat%d" i)
          ~n:(if smoke then 20 else 240) ~trace_every:0
      in
      let wall, samples = closed_loop l.client ~outstanding:16 ~jobs in
      log (Printf.sprintf "saturation pass %d: %d jobs in %.3fs" (i + 1) (Array.length jobs) wall);
      passes (i + 1) ((wall, samples) :: acc)
  in
  let sat = passes 0 [] in
  let verdict_s = Stats.median (List.map fst sat) in
  log
    (Printf.sprintf "saturation: %.1f jobs/s"
       (float_of_int (List.length (snd (List.hd sat))) /. verdict_s));
  let measured =
    List.concat_map (fun p -> p.samples) (r120 :: ladder) @ List.concat_map snd sat
  in
  let e2e =
    [
      ("verdict_s", verdict_s);
      ("setup_s", setup_s);
      ( "peak_live_nodes",
        float_of_int (List.fold_left (fun a x -> max a x.peak_live) 0 measured) );
      ("peak_rss_mb", Jobs.vm_hwm_mb (string_of_int l.daemon.pid));
      ("latency_p50_ms", r120.row.p50_ms);
      ("latency_p99_ms", r120.row.p99_ms);
    ]
  in
  (e2e, List.map (fun p -> p.row) (r120 :: ladder))

(* Per-layer: an untraced and a traced phase at 120/s.  In the traced
   one every 10th job asks icvd for a span file; the files give the
   layer split inside job.solve and the thaw/epilogue times, the
   daemon's registry (prom stats, before and after) gives the ICI and
   srv counters, and result events give queue and solve times. *)
let traced l ~rng ~seconds ~smoke ~log ~(inproc : Jobs.outcome list) =
  let phase = open_phase l ~rng ~seconds ~smoke ~log in
  let untraced = phase "r120" 120.0 0.45 in
  let before = prom l.ctl in
  let tr = phase ~trace_every:10 "r120t" 120.0 0.45 in
  let after = prom l.ctl in
  let files = List.map Spans.read_jsonl (List.filter_map (fun x -> x.trace) tr.samples) in
  (* Each file has its own epoch (its job's admission), so files are
     split separately. *)
  let split =
    List.fold_left (fun acc (_, s) -> Spans.add acc (Spans.split s)) Spans.empty files
  in
  let spans = List.concat_map snd files in
  let span_p50 name =
    Stats.percentile (List.map (fun x -> x *. 1000.0) (Spans.durations name spans)) 0.5
  in
  let untraced_solve family =
    Stats.median
      (List.filter_map
         (fun x -> if x.family = family then Some x.solve_s else None)
         untraced.samples)
  in
  let overhead =
    Stats.median
      (List.filter_map
         (fun x ->
           let base = untraced_solve x.family in
           if x.trace <> None && base > 0.0 then Some ((x.solve_s /. base) -. 1.0)
           else None)
         tr.samples)
  in
  let count = prom_delta before after in
  let decode_s =
    Array.to_list
      (Array.map
         (fun (_, _, line) ->
           let t = now () in
           ignore (Srv.Protocol.request_of_line line);
           now () -. t)
         tr.jobs)
  in
  let freeze_thaw = Array.to_list (Array.map (fun (_, spec) -> Jobs.freeze_thaw spec) mix) in
  let mean xs = if xs = [] then 0.0 else Stats.sum xs /. float_of_int (List.length xs) in
  let isum f = List.fold_left (fun a x -> a + f x) 0 tr.samples in
  let ms_q f p = 1000.0 *. Stats.percentile (List.map f tr.samples) p in
  let reps = max 1 (List.length inproc / Array.length mix) in
  let inproc_ms = Stats.percentile (List.map (fun (o : Jobs.outcome) -> o.solve_s *. 1000.0) inproc) 0.5 in
  (* icvd does not export its managers' kernel counters, so the bdd.*
     metrics other than nodes created (which reports carry) read 0. *)
  List.map
    (fun n -> (n, 0.0))
    [
      "bdd.steps"; "bdd.steps_per_s"; "bdd.cache_hit_ratio"; "bdd.cache.ite.hit_ratio";
      "bdd.cache.and_exists.hit_ratio"; "bdd.cache.vcompose.hit_ratio";
      "bdd.cache.restrict.hit_ratio"; "bdd.computed.evictions"; "bdd.unique.resizes";
      "bdd.gc_events"; "bdd.alloc_mb"; "mc.batch.invariants_shared";
      "mc.batch.per_property_s";
    ]
  @ [
      ("bdd.nodes_created", float_of_int (isum (fun x -> x.created)));
      ("fsm.image_s", split.Spans.fsm_s);
      ("fsm.image_calls", float_of_int split.Spans.image_calls);
      ("ici.simplify_s", split.Spans.simplify_s);
      ("ici.evaluate_s", split.Spans.evaluate_s);
      ("ici.taut_s", split.Spans.taut_s);
    ]
  @ Jobs.ici_metrics count
  @ [
      ("mc.solve_s", split.Spans.solve_s);
      ("mc.self_s", split.Spans.mc_self_s);
      ("mc.iterations", float_of_int (isum (fun x -> x.iterations)));
      ("mc.checkpoint_ms", split.Spans.checkpoint_s *. 1000.0);
      ("mc.freeze_ms", 1000.0 *. Stats.sum (List.map fst freeze_thaw));
      ("mc.thaw_ms", 1000.0 *. Stats.sum (List.map snd freeze_thaw));
      ( "models.build_s",
        Stats.sum (List.map (fun (o : Jobs.outcome) -> o.build_s) inproc) /. float_of_int reps );
      ("srv.queue_ms.p50", ms_q (fun x -> x.queue_s) 0.5);
      ("srv.queue_ms.p99", ms_q (fun x -> x.queue_s) 0.99);
      ("srv.thaw_ms.p50", span_p50 "job.thaw");
      ("srv.solve_ms.p50", ms_q (fun x -> x.solve_s) 0.5);
      ("srv.solve_ms.p99", ms_q (fun x -> x.solve_s) 0.99);
      ("srv.epilogue_ms.p50", span_p50 "job.epilogue");
      ("srv.overhead_ms.p50", untraced.row.p50_ms -. inproc_ms);
      ("srv.protocol.decode_us", mean decode_s *. 1e6);
      ( "srv.protocol.encode_us",
        mean (List.map (fun (o : Jobs.outcome) -> o.encode_s) inproc) *. 1e6 );
      ("srv.manager_reuses", float_of_int (count "srv.manager_reuses"));
      ("srv.requeues", float_of_int (count "srv.requeues"));
      ("srv.rejections", float_of_int (count "srv.rejections"));
      ("obs.trace_overhead_pct", 100.0 *. overhead);
      ("gen.late_ms.max", 1000.0 *. l.client.late_max_s);
    ],
  List.concat_map fst files

type result = {
  metrics : (string * float) list;
  rates : rate_row list;
  failures : string list;
  attempted : int;
  trace_lines : string list;
}

let run ~icvd ~seed ~seconds ~trace ~smoke ~log =
  let rng = Random.State.make [| seed; 4 |] in
  let root = ".perfsuite_run" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let started = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun l -> stop l.daemon) !started;
      rm_rf dir;
      try Sys.rmdir root with Sys_error _ -> ())
  @@ fun () ->
  (* Set-up is repeated and its median reported; the last daemon
     serves the run. *)
  let setups =
    List.init (if smoke then 1 else 3) (fun i ->
        let l, t = start ~icvd ~dir ~log i in
        started := l :: !started;
        (l, t))
  in
  let setup_s = Stats.median (List.map snd setups) in
  let l = fst (List.nth setups (List.length setups - 1)) in
  List.iter (fun (o, _) -> if o != l then finish o) setups;
  (* The same mix solved in-process: what a job costs without the
     service around it. *)
  let inproc =
    List.concat
      (List.init (if smoke then 1 else 3) (fun _ ->
           Array.to_list
             (Array.map
                (fun (name, spec) -> Jobs.run (Jobs.job name spec (Jobs.Solve Mc.Runner.Xici)))
                mix)))
  in
  if not smoke then ignore (open_phase l ~rng ~seconds ~smoke ~log "warmup" 120.0 0.075);
  let metrics, rates, trace_lines =
    if trace then
      let m, lines = traced l ~rng ~seconds ~smoke ~log ~inproc in
      (m, [], lines)
    else
      let m, rates = untraced l ~rng ~seconds ~smoke ~log ~setup_s in
      (m, rates, [])
  in
  finish l;
  let clients = List.map (fun (o, _) -> o.client) setups in
  if List.exists (fun (s : client) -> s.retries > 0) clients then log "icvd retried jobs";
  {
    metrics;
    rates;
    failures =
      List.concat_map (fun (s : client) -> List.rev s.failures) clients
      @ List.filter_map
          (fun (o : Jobs.outcome) -> Option.map (fun why -> o.job.name ^ ": " ^ why) o.failure)
          inproc;
    attempted =
      List.fold_left (fun a (s : client) -> a + s.attempted) 0 clients + List.length inproc;
    trace_lines;
  }
