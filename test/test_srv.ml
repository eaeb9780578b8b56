(* Daemon-layer tests: jobspec parsing and model-cache keys, the
   newline-JSON protocol, the bounded two-lane admission queue, and
   end-to-end icvd runs over a real Unix socket — verdict parity with
   one-shot runs, explicit overload rejection, and crash + checkpoint
   resume under the supervisor. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let parse_job line =
  match Srv.Protocol.request_of_line line with
  | Ok (Srv.Protocol.Submit j) -> j
  | Ok _ -> Alcotest.fail (Printf.sprintf "not a submit: %s" line)
  | Error why -> Alcotest.fail (Printf.sprintf "parse failed (%s): %s" why line)

(* --- jobspec --------------------------------------------------------- *)

let test_jobspec_defaults () =
  let j = parse_job {|{"id":"a","model":{"family":"fifo"}}|} in
  Alcotest.(check string) "id" "a" j.Srv.Jobspec.id;
  Alcotest.(check string) "family" "fifo" j.Srv.Jobspec.model.Srv.Jobspec.family;
  Alcotest.(check int) "default depth" Srv.Jobspec.default_model.Srv.Jobspec.depth
    j.Srv.Jobspec.model.Srv.Jobspec.depth;
  Alcotest.(check string) "default method is xici" "xici"
    (String.lowercase_ascii (Srv.Jobspec.meth_name j.Srv.Jobspec.meth));
  Alcotest.(check bool) "no fault by default" true
    (j.Srv.Jobspec.fault = None);
  (* to_json round-trips through of_json. *)
  match Srv.Jobspec.of_json (Srv.Jobspec.to_json j) with
  | Ok j' ->
    Alcotest.(check string) "roundtrip id" j.Srv.Jobspec.id j'.Srv.Jobspec.id;
    Alcotest.(check string) "roundtrip canonical"
      (Srv.Jobspec.canonical j.Srv.Jobspec.model)
      (Srv.Jobspec.canonical j'.Srv.Jobspec.model)
  | Error why -> Alcotest.fail ("roundtrip rejected: " ^ why)

let test_jobspec_rejections () =
  let rejects label line =
    match Srv.Protocol.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": bad job accepted")
  in
  rejects "missing id" {|{"model":{"family":"fifo"}}|};
  rejects "missing model" {|{"id":"a"}|};
  rejects "missing family" {|{"id":"a","model":{}}|};
  rejects "unknown method" {|{"id":"a","model":{"family":"fifo"},"method":"magic"}|};
  rejects "triggerless fault"
    {|{"id":"a","model":{"family":"fifo"},"fault":{"action":"crash"}}|};
  rejects "unknown fault action"
    {|{"id":"a","model":{"family":"fifo"},"fault":{"after_steps":1,"action":"melt"}}|};
  rejects "unparseable line" "{not json";
  rejects "batch portfolio"
    {|{"id":"a","model":{"family":"fifo"},"method":"portfolio","batch":true}|};
  (* A model that parses but cannot be built is rejected with the
     builder's own reason (the daemon prefixes "bad model: "). *)
  match
    Srv.Jobspec.build
      (parse_job {|{"id":"a","model":{"family":"filter","depth":6}}|})
        .Srv.Jobspec.model
  with
  | exception Invalid_argument why ->
    Alcotest.(check bool) ("filter depth 6: " ^ why) true
      (contains ~sub:"power of two" why)
  | _ -> Alcotest.fail "filter depth 6: built"

let test_jobspec_batch_roundtrip () =
  let j =
    parse_job {|{"id":"b","model":{"family":"network","procs":3},"batch":true}|}
  in
  Alcotest.(check bool) "batch flag parsed" true j.Srv.Jobspec.batch;
  (match Srv.Jobspec.of_json (Srv.Jobspec.to_json j) with
  | Ok j' ->
    Alcotest.(check bool) "batch flag roundtrips" true j'.Srv.Jobspec.batch
  | Error why -> Alcotest.fail ("batch roundtrip rejected: " ^ why));
  let plain = parse_job {|{"id":"p","model":{"family":"fifo"}}|} in
  Alcotest.(check bool) "batch defaults to false" false plain.Srv.Jobspec.batch

let test_model_key () =
  let j1 = parse_job {|{"id":"a","model":{"family":"fifo","procs":2}}|} in
  let j2 = parse_job {|{"id":"b","model":{"family":"fifo","procs":9}}|} in
  let j3 = parse_job {|{"id":"c","model":{"family":"fifo","depth":3}}|} in
  (* [procs] is not a FIFO parameter: same cache slot.  [depth] is. *)
  Alcotest.(check string) "ignored field shares the cache key"
    (Srv.Jobspec.model_key j1.Srv.Jobspec.model)
    (Srv.Jobspec.model_key j2.Srv.Jobspec.model);
  Alcotest.(check bool) "meaningful field splits the cache key" true
    (Srv.Jobspec.model_key j1.Srv.Jobspec.model
    <> Srv.Jobspec.model_key j3.Srv.Jobspec.model);
  Alcotest.(check bool) "unknown family fails to build" true
    (try
       ignore (Srv.Jobspec.build { j1.Srv.Jobspec.model with family = "nope" });
       false
     with Failure _ -> true)

(* --- protocol -------------------------------------------------------- *)

let test_requests () =
  let check_req label line expected =
    match Srv.Protocol.request_of_line line with
    | Ok r -> Alcotest.(check bool) label true (r = expected)
    | Error why -> Alcotest.fail (label ^ ": " ^ why)
  in
  check_req "ping" {|{"type":"ping"}|} Srv.Protocol.Ping;
  check_req "stats" {|{"type":"stats"}|} (Srv.Protocol.Stats Srv.Protocol.Json);
  check_req "stats prom" {|{"type":"stats","format":"prom"}|}
    (Srv.Protocol.Stats Srv.Protocol.Prom);
  check_req "health" {|{"type":"health"}|} Srv.Protocol.Health;
  check_req "watch default interval" {|{"type":"watch"}|}
    (Srv.Protocol.Watch 2.0);
  check_req "watch custom interval" {|{"type":"watch","interval_s":0.5}|}
    (Srv.Protocol.Watch 0.5);
  check_req "tiny watch interval floored" {|{"type":"watch","interval_s":1e-6}|}
    (Srv.Protocol.Watch Srv.Protocol.min_watch_interval_s);
  check_req "unwatch" {|{"type":"unwatch"}|} Srv.Protocol.Unwatch;
  (match Srv.Protocol.request_of_line {|{"type":"watch","interval_s":-1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative watch interval accepted");
  check_req "shutdown" {|{"type":"shutdown"}|} Srv.Protocol.Shutdown;
  (match Srv.Protocol.request_of_line {|{"type":"submit","id":"x","model":{"family":"abp"}}|} with
  | Ok (Srv.Protocol.Submit j) ->
    Alcotest.(check string) "explicit submit" "x" j.Srv.Jobspec.id
  | _ -> Alcotest.fail "explicit submit refused");
  match Srv.Protocol.request_of_line {|{"type":"frobnicate"}|} with
  | Error why ->
    Alcotest.(check bool) "unknown type named in error" true
      (contains ~sub:"frobnicate" why)
  | Ok _ -> Alcotest.fail "unknown request type accepted"

let test_event_shape () =
  let reparse ev =
    let line = Srv.Protocol.to_line ev in
    Alcotest.(check bool) "line ends with newline" true
      (String.length line > 0 && line.[String.length line - 1] = '\n');
    Obs.Json.of_string (String.sub line 0 (String.length line - 1))
  in
  let tag j =
    Option.value ~default:"?"
      (Option.bind (Obs.Json.member "type" j) Obs.Json.to_str)
  in
  let acc = reparse (Srv.Protocol.accepted ~id:"a" ~trace_id:"t-0" ~queue_depth:3) in
  Alcotest.(check string) "accepted tag" "accepted" (tag acc);
  Alcotest.(check bool) "accepted carries the trace id" true
    (Obs.Json.member "trace_id" acc = Some (Obs.Json.String "t-0"));
  Alcotest.(check string) "rejected tag" "rejected"
    (tag (reparse (Srv.Protocol.rejected ~id:"a" ~reason:"queue full")));
  let report =
    {
      Mc.Report.model = "m";
      method_name = "xici";
      status = Mc.Report.Proved;
      iterations = 4;
      peak_set_nodes = 10;
      peak_conjuncts = [ 10 ];
      nodes_created = 100;
      peak_live_nodes = 50;
      time_s = 0.1;
    }
  in
  let r =
    reparse
      (Srv.Protocol.result ~id:"a" ~trace_id:"t-0" ~trace:"/tmp/t.jsonl"
         ~queue_s:0.25 ~e2e_s:1.5 ~worker:1 ~resumed_at:2 report)
  in
  Alcotest.(check string) "result tag" "result" (tag r);
  Alcotest.(check bool) "resumed flag follows resumed_at" true
    (Option.bind (Obs.Json.member "resumed" r) (function
       | Obs.Json.Bool b -> Some b
       | _ -> None)
    = Some true);
  Alcotest.(check bool) "result carries the trace path" true
    (Obs.Json.member "trace" r = Some (Obs.Json.String "/tmp/t.jsonl"));
  Alcotest.(check bool) "result carries the latency split" true
    (Obs.Json.member "queue_s" r <> None && Obs.Json.member "e2e_s" r <> None);
  let fresh =
    reparse
      (Srv.Protocol.result ~id:"a" ~trace_id:"t-0" ~queue_s:0.0 ~e2e_s:0.1
         ~worker:1 ~resumed_at:0 report)
  in
  Alcotest.(check bool) "cold run is not resumed" true
    (Obs.Json.member "resumed" fresh = Some (Obs.Json.Bool false));
  Alcotest.(check bool) "untraced result omits the trace field" true
    (Obs.Json.member "trace" fresh = None)

(* --- admission queue ------------------------------------------------- *)

let test_admission_bounds () =
  let q = Srv.Admission.create ~capacity:2 () in
  Alcotest.(check bool) "first push" true (Srv.Admission.try_push q 1 = Ok 1);
  Alcotest.(check bool) "second push" true (Srv.Admission.try_push q 2 = Ok 2);
  (match Srv.Admission.try_push q 3 with
  | Error why ->
    Alcotest.(check bool) "overflow names the capacity" true
      (contains ~sub:"full" why)
  | Ok _ -> Alcotest.fail "queue exceeded its capacity");
  Alcotest.(check int) "depth" 2 (Srv.Admission.depth q);
  Alcotest.(check bool) "pop fifo" true (Srv.Admission.pop q = Some 1);
  Alcotest.(check bool) "freed a slot" true (Srv.Admission.try_push q 3 = Ok 2);
  Srv.Admission.close q;
  (match Srv.Admission.try_push q 4 with
  | Error why ->
    Alcotest.(check bool) "closed queue refuses" true
      (contains ~sub:"closed" why)
  | Ok _ -> Alcotest.fail "closed queue accepted a push");
  Alcotest.(check bool) "drains after close" true (Srv.Admission.pop q = Some 2);
  Alcotest.(check bool) "drains after close (2)" true
    (Srv.Admission.pop q = Some 3);
  Alcotest.(check bool) "then signals exit" true (Srv.Admission.pop q = None)

let test_admission_urgent_lane () =
  let q = Srv.Admission.create ~capacity:1 () in
  Alcotest.(check bool) "normal lane fills" true
    (Srv.Admission.try_push q `Normal = Ok 1);
  (match Srv.Admission.try_push q `Normal with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cap not enforced");
  (* Requeues must never bounce: urgent bypasses the cap and pops
     first. *)
  Srv.Admission.push_urgent q `Urgent;
  Alcotest.(check int) "urgent counted in depth" 2 (Srv.Admission.depth q);
  Alcotest.(check bool) "urgent pops first" true
    (Srv.Admission.pop q = Some `Urgent);
  Alcotest.(check bool) "then the normal lane" true
    (Srv.Admission.pop q = Some `Normal)

let test_admission_lanes_fifo () =
  (* With affinity dispatch gone nothing overtakes within a lane: the
     urgent lane drains in push order, then the normal lane does. *)
  let q = Srv.Admission.create ~capacity:8 () in
  List.iter (fun j -> ignore (Srv.Admission.try_push q j)) [ 1; 2; 3 ];
  Srv.Admission.push_urgent q 10;
  ignore (Srv.Admission.try_push q 4);
  Srv.Admission.push_urgent q 11;
  let popped = List.init 6 (fun _ -> Srv.Admission.pop q) in
  Alcotest.(check (list (option int))) "urgent in order, then normal in order"
    [ Some 10; Some 11; Some 1; Some 2; Some 3; Some 4 ] popped;
  Alcotest.(check bool) "empty" true (Srv.Admission.is_empty q)

let test_admission_close_wakes () =
  (* A worker blocked on an empty queue must see [None] once the queue
     closes, or the pool's shutdown would wait on it for ever. *)
  let q = Srv.Admission.create ~capacity:1 () in
  let consumer = Domain.spawn (fun () -> Srv.Admission.pop q) in
  Unix.sleepf 0.05;
  Srv.Admission.close q;
  Alcotest.(check (option int)) "blocked pop returns None" None
    (Domain.join consumer);
  Srv.Admission.push_urgent q 1;
  Alcotest.(check (option int)) "a closed queue takes no requeue" None
    (Srv.Admission.pop q)

(* --- the pool's rules, table-driven --------------------------------- *)

(* Each row drives [Srv.Sched] the way [Srv.Pool] does, on a scripted
   clock: a name, the attempts allowed, and steps that carry the
   decision or outcome they expect.  Two slots (0 and 1), integer jobs,
   hang timeout 10 s; submits and the rules' requeues feed one test
   queue, urgent entries first. *)
type sched_step =
  | Submit of int
  | Run of int * float * int * int
      (* slot, clock: pops and dispatches; expected job and attempt *)
  | Supervise of int * float * string  (* slot, clock; expected decision *)
  | Crash of int
  | Requeue of int * string  (* after a reap or abandon; expected outcome *)
  | Settle of int * bool * string  (* slot, decided; expected outcome *)

let sched_rows =
  [
    ( "cancel fires just past hang_timeout_s, not at it",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Supervise (0, 10.0, "leave");
        Supervise (0, 10.001, "cancel");
      ] );
    ( "abandonment only past twice the timeout",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Supervise (0, 10.5, "cancel");
        Supervise (0, 20.0, "leave");
        Supervise (0, 20.001, "abandon");
      ] );
    ( "abandonment only with the cancel already set",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Supervise (0, 25.0, "cancel");
        Supervise (0, 25.001, "abandon");
      ] );
    ( "a zombie's late finish is dropped",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Supervise (0, 10.5, "cancel");
        Supervise (0, 20.5, "abandon");
        Requeue (0, "retry: worker hung (abandoned)");
        Run (1, 20.5, 1, 2);
        Settle (0, true, "stale");
        Settle (1, true, "resolved");
      ] );
    ( "a cancel that loses to a decided verdict delivers it",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Supervise (0, 10.5, "cancel");
        Settle (0, true, "resolved");
      ] );
    ( "a cancelled run with no verdict retries",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Supervise (0, 10.5, "cancel");
        Settle (0, false, "retry: hung (cancelled mid-run)");
        Run (1, 11.0, 1, 2);
        Settle (1, true, "resolved");
      ] );
    ( "a retry at max_attempts fails with the attempt count",
      2,
      [
        Submit 1;
        Run (0, 0.0, 1, 1);
        Crash 0;
        Supervise (0, 0.1, "reap: boom");
        Requeue (0, "retry: worker crashed: boom");
        Run (1, 0.2, 1, 2);
        Crash 1;
        Supervise (1, 0.3, "reap: boom");
        Requeue (1, "failed: worker crashed: boom (after 2 attempts)");
      ] );
  ]

let show_decision = function
  | Srv.Sched.Leave -> "leave"
  | Srv.Sched.Cancel -> "cancel"
  | Srv.Sched.Reap why -> "reap: " ^ why
  | Srv.Sched.Abandon -> "abandon"

let show_outcome = function
  | Srv.Sched.Resolved -> "resolved"
  | Srv.Sched.Retry why -> "retry: " ^ why
  | Srv.Sched.Failed why -> "failed: " ^ why
  | Srv.Sched.Stale -> "stale"

let sched_case (name, max_attempts, script) =
  Alcotest.test_case name `Quick (fun () ->
      let urgent = Queue.create () and normal = Queue.create () in
      let tickets = Hashtbl.create 4 in
      let ticket j =
        match Hashtbl.find_opt tickets j with
        | Some tk -> tk
        | None ->
          let tk = Srv.Sched.ticket () in
          Hashtbl.add tickets j tk;
          tk
      in
      let sched =
        Srv.Sched.create ~hang_timeout_s:10.0 ~max_attempts
          ~max_total_live:None ~portfolio_domains:2 ~ticket
          ~requeue:(fun j _ -> Queue.push j urgent)
      in
      let slots = [| Srv.Sched.slot sched; Srv.Sched.slot sched |] in
      let beats = [| 0.0; 0.0 |] in
      List.iteri
        (fun k step ->
          let label what = Printf.sprintf "step %d: %s" k what in
          match step with
          | Submit j ->
            Queue.push j normal;
            Srv.Sched.admit sched
          | Run (i, now, job, attempt) ->
            let j =
              match Queue.take_opt urgent with
              | Some j -> j
              | None -> (
                match Queue.take_opt normal with
                | Some j -> j
                | None -> Alcotest.fail (label "nothing queued to run"))
            in
            beats.(i) <- now;
            Alcotest.(check int) (label "job") job j;
            Alcotest.(check int) (label "attempt") attempt
              (Srv.Sched.dispatch sched slots.(i) j)
          | Supervise (i, now, expect) ->
            Alcotest.(check string) (label "decision") expect
              (show_decision
                 (Srv.Sched.supervise sched ~now ~beat:beats.(i) slots.(i)))
          | Crash i -> Srv.Sched.crashed slots.(i) "boom"
          | Requeue (i, expect) ->
            let reason =
              match slots.(i).Srv.Sched.dead with
              | Some why -> "worker crashed: " ^ why
              | None -> "worker hung (abandoned)"
            in
            Alcotest.(check (option string)) (label "requeue") (Some expect)
              (Option.map
                 (fun (_, o) -> show_outcome o)
                 (Srv.Sched.requeue_current sched slots.(i) ~reason))
          | Settle (i, decided, expect) ->
            let job, attempt =
              match slots.(i).Srv.Sched.current with
              | Some c -> c
              | None -> Alcotest.fail (label "slot not running")
            in
            Alcotest.(check string) (label "outcome") expect
              (show_outcome
                 (Srv.Sched.settle sched slots.(i) job ~attempt ~decided));
            ignore (Srv.Sched.idle sched slots.(i) ~live:0 []))
        script)

(* [Sched.idle]'s retention rule on its own: each row is the cap, the
   other slots' live count, the warm managers' counts (most recent
   first) and how many of them the slot may keep. *)
let idle_rows =
  [
    (Some 100, 0, [], 0);
    (Some 100, 0, [ 10; 20; 30 ], 2);  (* 60 would reach cap / 2 *)
    (Some 100, 0, [ 49 ], 1);
    (Some 100, 0, [ 50; 1 ], 0);  (* the most recent alone is too big *)
    (Some 100, 45, [ 4; 1; 1 ], 1);
    (Some 100, 50, [ 1 ], 0);  (* the others already at pressure 1 *)
    (Some 100, 0, [ 60; 1; 1 ], 0);  (* an older small one is not kept *)
  ]

let test_sched_idle_prefix () =
  List.iter
    (fun (cap, live, lives, expect) ->
      let sched =
        Srv.Sched.create ~hang_timeout_s:10.0 ~max_attempts:2
          ~max_total_live:cap ~portfolio_domains:2 ~ticket:Fun.id
          ~requeue:(fun _ _ -> ())
      in
      let slot = Srv.Sched.slot sched in
      Srv.Sched.admit sched;
      ignore (Srv.Sched.dispatch sched slot (Srv.Sched.ticket ()));
      let label =
        Printf.sprintf "live %d, warm [%s]" live
          (String.concat "; " (List.map string_of_int lives))
      in
      Alcotest.(check int) label expect (Srv.Sched.idle sched slot ~live lives);
      Alcotest.(check bool) (label ^ ": slot idle") false slot.Srv.Sched.busy;
      Alcotest.(check bool) (label ^ ": no current job") true
        (slot.Srv.Sched.current = None))
    idle_rows

let test_sched_idle_uncapped () =
  (* Without --max-total-live the pool never reaches pressure 1, so a
     slot keeps every warm manager its byte budget left it. *)
  let sched =
    Srv.Sched.create ~hang_timeout_s:10.0 ~max_attempts:2 ~max_total_live:None
      ~portfolio_domains:2 ~ticket:Fun.id ~requeue:(fun _ _ -> ())
  in
  let slot = Srv.Sched.slot sched in
  Alcotest.(check int) "all kept" 4
    (Srv.Sched.idle sched slot ~live:max_int [ 1_000_000; 1; 2; 3 ]);
  Alcotest.(check int) "nothing to keep" 0
    (Srv.Sched.idle sched slot ~live:0 [])

(* --- worker pool ------------------------------------------------------ *)

let pool_job line =
  let spec = parse_job line in
  let model = spec.Srv.Jobspec.model in
  Srv.Pool.job ~spec ~model_key:(Srv.Jobspec.model_key model)
    ~frozen:(Mc.Parallel.freeze (Srv.Jobspec.build model))
    ~client:0 ~trace_id:("t-" ^ spec.Srv.Jobspec.id) ~deadline_at:None
    ~checkpoint_path:None ()

(* Submit [lines] at once and wait until every job has resolved and
   every worker is idle again; the events, oldest first. *)
let run_jobs pool lines =
  List.iter
    (fun l ->
      if Result.is_error (Srv.Pool.submit pool (pool_job l)) then
        Alcotest.fail ("not admitted: " ^ l))
    lines;
  let deadline = Unix.gettimeofday () +. 60.0 and events = ref [] in
  while not (Srv.Pool.idle pool && Srv.Pool.busy_workers pool = 0) do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "the pool did not resolve its jobs within 60 s";
    events := List.rev_append (Srv.Pool.poll pool) !events;
    Unix.sleepf 0.002
  done;
  List.rev_map snd (List.rev_append (Srv.Pool.poll pool) !events)

let finished events =
  List.filter_map
    (function
      | Srv.Pool.Finished (job, sid, _, r) -> Some (job, sid, r)
      | _ -> None)
    events

let test_pool_wake_fd () =
  let pool =
    Srv.Pool.create
      ~config:{ Srv.Pool.default_config with workers = 1 }
      ~queue_capacity:4 ()
  in
  let fd = Srv.Pool.wake_fd pool in
  let readable timeout =
    match Unix.select [ fd ] [] [] timeout with
    | r, _, _ -> r <> []
  in
  Alcotest.(check bool) "quiet before any job" false (readable 0.0);
  let job = pool_job {|{"id":"w","model":{"family":"fifo","depth":2}}|} in
  Alcotest.(check bool) "admitted" true (Result.is_ok (Srv.Pool.submit pool job));
  Alcotest.(check bool) "readable once the job finishes" true (readable 30.0);
  let finished =
    List.exists
      (function _, Srv.Pool.Finished _ -> true | _ -> false)
      (Srv.Pool.poll pool)
  in
  Alcotest.(check bool) "the finished event is pollable" true finished;
  (* The worker rings after it pushes; once it is idle again every
     byte it wrote has landed, and one more poll empties the pipe. *)
  while Srv.Pool.busy_workers pool > 0 do
    Unix.sleepf 0.001
  done;
  ignore (Srv.Pool.poll pool);
  Alcotest.(check bool) "empty after poll" false (readable 0.0);
  Srv.Pool.shutdown pool

let fifo2 = {|{"id":"a","model":{"family":"fifo","depth":2}}|}
let net2 = {|{"id":"b","model":{"family":"network","procs":2}}|}

let test_pool_idle_scratch_pressure () =
  (* A worker's warm managers hold nodes while it is idle, so they
     count toward --max-total-live; and the "warm managers dropped at
     pressure >= 1" rule applies to that retention too, oldest first,
     so an idle pool never sits at a pressure level that refuses
     work. *)
  let idle_after ~cap lines =
    let pool =
      Srv.Pool.create
        ~config:
          { Srv.Pool.default_config with workers = 1; max_total_live = Some cap }
        ~queue_capacity:4 ()
    in
    List.iter (fun l -> ignore (run_jobs pool [ l ])) lines;
    let live = Srv.Pool.total_live pool and p = Srv.Pool.pressure pool in
    Srv.Pool.shutdown pool;
    (live, p)
  in
  let a, p = idle_after ~cap:1_000_000 [ fifo2 ] in
  Alcotest.(check bool) "idle warm manager counted as live" true (a > 0);
  Alcotest.(check int) "small table kept at pressure 0" 0 p;
  let b, _ = idle_after ~cap:1_000_000 [ net2 ] in
  let ab, p = idle_after ~cap:1_000_000 [ fifo2; net2 ] in
  Alcotest.(check int) "every warm manager counted" (a + b) ab;
  Alcotest.(check int) "both kept at pressure 0" 0 p;
  (* Room under half the cap for the most recent manager alone. *)
  let live, p = idle_after ~cap:((2 * b) + 2) [ fifo2; net2 ] in
  Alcotest.(check int) "the older manager dropped first" b live;
  Alcotest.(check int) "idle pool at pressure 0" 0 p;
  let live, p = idle_after ~cap:2 [ fifo2 ] in
  Alcotest.(check int) "table over half the cap emptied" 0 live;
  Alcotest.(check int) "idle pool back at pressure 0" 0 p

let test_pool_live_after_job () =
  (* A worker's live count is the running job's and its warm table's
     while busy, and its table's once idle: a big job's last progress
     count must not outlive it, or a small job after it on the same
     worker runs under that pressure (with a cap of 2, level 3 gives it
     a live budget of 2 nodes and it comes back Exceeded). *)
  let pool =
    Srv.Pool.create
      ~config:{ Srv.Pool.default_config with workers = 1; max_total_live = Some 2 }
      ~queue_capacity:4 ()
  in
  let run line =
    match finished (run_jobs pool [ line ]) with
    | [ (_, _, r) ] -> Mc.Report.status_string r
    | _ -> Alcotest.fail "not one result"
  in
  (* filter-8 creates more than one progress period's worth of nodes. *)
  Alcotest.(check string) "big job proved" "proved"
    (run {|{"id":"big","model":{"family":"filter","depth":8}}|});
  Alcotest.(check int) "its manager dropped, nothing left live" 0
    (Srv.Pool.total_live pool);
  Alcotest.(check string) "small job after it proved" "proved"
    (run {|{"id":"small","model":{"family":"fifo","depth":2}}|});
  Srv.Pool.shutdown pool

let reuses () =
  Obs.Registry.count
    (Obs.Registry.counter Obs.Registry.default "srv.manager_reuses")

let test_pool_every_job_warm () =
  (* Two workers cycle through four models.  Once a worker has run a
     model, every later job it runs on that model starts warm: its
     manager is reused (counted under srv.manager_reuses) and the solve
     creates no node.  Rounds go on until each worker has run each
     model, then two more. *)
  let models =
    [
      {|{"family":"fifo","depth":2}|};
      {|{"family":"fifo","depth":3}|};
      {|{"family":"network","procs":2}|};
      {|{"family":"filter","depth":2}|};
    ]
  in
  let pool =
    Srv.Pool.create
      ~config:{ Srv.Pool.default_config with workers = 2 }
      ~queue_capacity:16 ()
  in
  let before = reuses () in
  let seen = Hashtbl.create 8 and warm = ref 0 in
  let rec round k extra =
    if Hashtbl.length seen = 8 && extra = 0 then ()
    else if k = 50 then
      Alcotest.failf "after 50 rounds the workers had run %d of 8 pairs"
        (Hashtbl.length seen)
    else begin
      let lines =
        List.mapi
          (fun i m -> Printf.sprintf {|{"id":"r%d-%d","model":%s}|} k i m)
          models
      in
      List.iter
        (fun ((job : Srv.Pool.job), sid, r) ->
          let id = job.Srv.Pool.spec.Srv.Jobspec.id in
          Alcotest.(check string) (id ^ " proved") "proved"
            (Mc.Report.status_string r);
          let pair = (sid, job.Srv.Pool.model_key) in
          if Hashtbl.mem seen pair then begin
            incr warm;
            Alcotest.(check int)
              (Printf.sprintf "%s on worker %d creates no node" id sid)
              0 r.Mc.Report.nodes_created
          end
          else Hashtbl.add seen pair ())
        (finished (run_jobs pool lines));
      round (k + 1) (if Hashtbl.length seen = 8 then extra - 1 else extra)
    end
  in
  round 0 2;
  Srv.Pool.shutdown pool;
  Alcotest.(check bool) "some jobs ran warm" true (!warm >= 8);
  Alcotest.(check int) "every warm job counted as a reuse" !warm
    (reuses () - before)

(* --- end-to-end daemon over a Unix socket ---------------------------- *)

let tmp_sock () =
  let p = Filename.temp_file "icvd" ".sock" in
  Sys.remove p;
  p

let send_shutdown sock =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception _ -> ()
  | fd -> (
    try
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let line = {|{"type":"shutdown"}|} ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.close fd
    with _ -> ( try Unix.close fd with _ -> ()))

(* How long a case waits for a daemon's next line, and for its drain
   after the case. *)
let read_timeout_s = 60.0

(* Run [f] against a daemon in its own domain, then shut the daemon
   down.  A daemon that does not drain in time (a job it never
   resolves) fails the case and is left running, rather than hanging
   the suite on its join. *)
let with_daemon cfg f =
  let ready = Atomic.make false and stopped = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set stopped true)
          (fun () ->
            Srv.Daemon.run ~on_ready:(fun () -> Atomic.set ready true) cfg))
  in
  let wait flag seconds =
    let deadline = Unix.gettimeofday () +. seconds in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    Atomic.get flag
  in
  if not (wait ready 10.0) then begin
    Domain.join dom;
    Alcotest.fail "daemon never became ready"
  end;
  let result =
    try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (* Belt and braces: if [f] raised before requesting shutdown, ask for
     one. *)
  Option.iter send_shutdown cfg.Srv.Daemon.socket_path;
  let drained = wait stopped read_timeout_s in
  if drained then Domain.join dom;
  match result with
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | Ok _ when not drained ->
    Alcotest.failf "the daemon did not drain within %.0f s" read_timeout_s
  | Ok v -> v

(* A client connection.  Every read has a deadline, so a daemon that
   never answers fails the case instead of hanging the suite. *)
type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; pending = Buffer.create 4096; chunk = Bytes.create 4096 }

let send c line =
  let line = line ^ "\n" in
  let rec go off =
    if off < String.length line then
      go (off + Unix.write_substring c.fd line off (String.length line - off))
  in
  go 0

(* The next event, or [None] once the daemon has closed the
   connection. *)
let recv c =
  let deadline = Unix.gettimeofday () +. read_timeout_s in
  let rec go () =
    let buf = Buffer.contents c.pending in
    match String.index_opt buf '\n' with
    | Some i ->
      Buffer.clear c.pending;
      Buffer.add_string c.pending
        (String.sub buf (i + 1) (String.length buf - i - 1));
      Some (Obs.Json.of_string (String.sub buf 0 i))
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then
        Alcotest.failf "the daemon sent no complete line within %.0f s"
          read_timeout_s;
      match Unix.select [ c.fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes c.pending c.chunk 0 n;
          go ())
  in
  go ()

(* Every event until the daemon closes the connection. *)
let recv_all c =
  let rec go acc = match recv c with Some j -> go (j :: acc) | None -> acc in
  let events = List.rev (go []) in
  (try Unix.close c.fd with _ -> ());
  events

(* Connect, send every line, then read events until the daemon drains
   and closes the connection.  The last line sent is expected to be a
   shutdown request (otherwise the read deadline fails the case). *)
let talk sock lines =
  let c = connect sock in
  List.iter (send c) lines;
  recv_all c

let ev_type j =
  Option.value ~default:"?"
    (Option.bind (Obs.Json.member "type" j) Obs.Json.to_str)

let ev_id j = Option.bind (Obs.Json.member "id" j) Obs.Json.to_str

let ev_str field j = Option.bind (Obs.Json.member field j) Obs.Json.to_str

let find_result id events =
  List.find_opt (fun j -> ev_type j = "result" && ev_id j = Some id) events

let base_cfg sock =
  {
    Srv.Daemon.default_config with
    Srv.Daemon.socket_path = Some sock;
    default_deadline_s = Some 60.0;
  }

let test_daemon_verdict_parity () =
  let jobs =
    [
      {|{"id":"fifo-ok","model":{"family":"fifo"}}|};
      {|{"id":"fifo-bug","model":{"family":"fifo","bug":true}}|};
      {|{"id":"net-ok","model":{"family":"network"}}|};
    ]
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (base_cfg sock) (fun () ->
        talk sock (jobs @ [ {|{"type":"ping"}|}; {|{"type":"shutdown"}|} ]))
  in
  Alcotest.(check bool) "pong answered" true
    (List.exists (fun j -> ev_type j = "pong") events);
  Alcotest.(check bool) "draining announced" true
    (List.exists (fun j -> ev_type j = "draining") events);
  List.iter
    (fun line ->
      let spec = parse_job line in
      let id = spec.Srv.Jobspec.id in
      match find_result id events with
      | None -> Alcotest.fail (Printf.sprintf "no result for %s" id)
      | Some r ->
        (* The daemon's verdict must match a one-shot run of the very
           same declaration. *)
        let oneshot =
          Mc.Runner.run Mc.Runner.Xici
            (Srv.Jobspec.build spec.Srv.Jobspec.model)
        in
        Alcotest.(check (option string))
          (Printf.sprintf "%s verdict parity" id)
          (Some (Mc.Report.status_string oneshot))
          (ev_str "verdict" r))
    jobs

(* A solve that blows its budget reports what it consumed: real node
   counts, and solve time only -- never the queue wait in front of it. *)
let test_daemon_exceed_report () =
  let sock = tmp_sock () in
  let events =
    with_daemon (base_cfg sock) (fun () ->
        talk sock
          [
            {|{"id":"boom","model":{"family":"filter","depth":4},"fault":{"action":"exceed","after_steps":200}}|};
            {|{"type":"shutdown"}|};
          ])
  in
  match find_result "boom" events with
  | None -> Alcotest.fail "no result for the exceeded job"
  | Some r ->
    let num j f =
      match Option.bind (Obs.Json.member f j) Obs.Json.to_float with
      | Some x -> x
      | None -> Alcotest.fail (Printf.sprintf "result has no %s" f)
    in
    let report =
      match Obs.Json.member "report" r with
      | Some rep -> rep
      | None -> Alcotest.fail "result has no report"
    in
    Alcotest.(check bool) "verdict is exceeded" true
      (match ev_str "verdict" r with
      | Some v -> contains ~sub:"EXCEEDED" v
      | None -> false);
    Alcotest.(check bool) "nodes_created > 0" true
      (num report "nodes_created" > 0.0);
    Alcotest.(check bool) "time_s excludes the queue wait" true
      (num report "wall_seconds" <= num r "e2e_s" -. num r "queue_s")

let test_daemon_pressure_recovers () =
  (* With a tiny --max-total-live, a finished job's warm managers must
     not leave the idle daemon refusing every later submission, on its
     model or another. *)
  let cfg sock =
    { (base_cfg sock) with Srv.Daemon.workers = 1; max_total_live = Some 2 }
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        let c = connect sock in
        let events = ref [] in
        let rec until_terminal id =
          match recv c with
          | None -> Alcotest.failf "connection closed before %s's answer" id
          | Some j ->
            events := j :: !events;
            let ty = ev_type j in
            if not ((ty = "result" || ty = "rejected") && ev_id j = Some id)
            then until_terminal id
        in
        send c {|{"id":"first","model":{"family":"fifo","depth":2}}|};
        until_terminal "first";
        send c {|{"id":"second","model":{"family":"network","procs":2}}|};
        until_terminal "second";
        send c {|{"type":"shutdown"}|};
        List.rev_append !events (recv_all c))
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s admitted and answered" id)
        true
        (Option.is_some (find_result id events)))
    [ "first"; "second" ]

let test_daemon_overload () =
  (* One worker, queue of one: a burst of three slow jobs must yield at
     least one explicit rejection, and every job must get exactly one
     terminal answer — overload is an answer, never a silent drop. *)
  let cfg sock =
    { (base_cfg sock) with Srv.Daemon.workers = 1; queue_capacity = 1 }
  in
  let jobs =
    List.init 3 (fun i ->
        Printf.sprintf {|{"id":"burst-%d","model":{"family":"filter","depth":8}}|} i)
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        talk sock (jobs @ [ {|{"type":"shutdown"}|} ]))
  in
  let rejected =
    List.filter (fun j -> ev_type j = "rejected") events
  in
  let results = List.filter (fun j -> ev_type j = "result") events in
  Alcotest.(check bool) "overload rejected explicitly" true
    (List.length rejected >= 1);
  List.iter
    (fun j ->
      match ev_str "reason" j with
      | Some why ->
        Alcotest.(check bool)
          (Printf.sprintf "rejection names the queue (%s)" why)
          true (contains ~sub:"full" why)
      | None -> Alcotest.fail "rejection without a reason")
    rejected;
  Alcotest.(check int) "every job answered exactly once" 3
    (List.length rejected + List.length results);
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "admitted jobs still prove"
        (Some "proved") (ev_str "verdict" r))
    results

let test_daemon_portfolio_liveness () =
  (* Portfolio jobs run in child domains; their heartbeats must reach
     the slot through the portfolio's liveness callbacks.  With a hang
     timeout shorter than the job, a pool that loses those beats
     falsely declares the worker hung, burns every attempt and fails
     the job (regression: portfolio jobs never updated the slot
     heartbeat, so any portfolio run longer than the timeout died). *)
  let cfg sock =
    { (base_cfg sock) with Srv.Daemon.workers = 1; hang_timeout_s = 1.5 }
  in
  let job =
    {|{"id":"pf","model":{"family":"filter","depth":8},"method":"portfolio"}|}
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        talk sock [ job; {|{"type":"shutdown"}|} ])
  in
  Alcotest.(check int) "never declared hung" 0
    (List.length
       (List.filter
          (fun j -> ev_type j = "retry" && ev_id j = Some "pf")
          events));
  match find_result "pf" events with
  | None -> Alcotest.fail "no result for the portfolio job"
  | Some r ->
    Alcotest.(check (option string)) "portfolio verdict" (Some "proved")
      (ev_str "verdict" r)

let test_daemon_manager_reuse () =
  (* A job on a declaration its worker has run before reuses the warm
     manager from the worker's table (counted under
     srv.manager_reuses), even with other models run in between, and
     the reuse must not leak state between jobs: every verdict still
     matches a one-shot run on a fresh manager, including a buggy
     variant of the same family that shares the worker's table. *)
  let before = reuses () in
  let jobs =
    [
      {|{"id":"warm-1","model":{"family":"fifo"}}|};
      {|{"id":"bug-1","model":{"family":"fifo","bug":true}}|};
      {|{"id":"warm-2","model":{"family":"fifo"}}|};
      {|{"id":"warm-3","model":{"family":"fifo"},"method":"forward"}|};
      {|{"id":"bug-2","model":{"family":"fifo","bug":true}}|};
    ]
  in
  let cfg sock = { (base_cfg sock) with Srv.Daemon.workers = 1 } in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        talk sock (jobs @ [ {|{"type":"shutdown"}|} ]))
  in
  (* One worker: every job after the first on its declaration reuses,
     across the other model run in between (warm-3 also proves a
     reused manager serves another method without cross-talk). *)
  Alcotest.(check int) "warm managers reused" 3 (reuses () - before);
  List.iter
    (fun line ->
      let spec = parse_job line in
      let id = spec.Srv.Jobspec.id in
      match find_result id events with
      | None -> Alcotest.fail (Printf.sprintf "no result for %s" id)
      | Some r ->
        let meth =
          match spec.Srv.Jobspec.meth with
          | Srv.Jobspec.Method m -> m
          | Srv.Jobspec.Portfolio -> Alcotest.fail "unexpected portfolio"
        in
        let oneshot =
          Mc.Runner.run meth (Srv.Jobspec.build spec.Srv.Jobspec.model)
        in
        Alcotest.(check (option string))
          (Printf.sprintf "%s verdict parity through the reused manager" id)
          (Some (Mc.Report.status_string oneshot))
          (ev_str "verdict" r))
    jobs

let test_daemon_batch_job () =
  (* A batch:true job verifies each conjunct of the model's property
     as its own property; the single result event carries the
     aggregate verdict plus a per-property array and the pool-sharing
     counter. *)
  let jobs =
    [
      {|{"id":"batch-net","model":{"family":"network","procs":3},"batch":true}|};
      {|{"id":"batch-bug","model":{"family":"fifo","bug":true},"batch":true}|};
    ]
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (base_cfg sock) (fun () ->
        talk sock (jobs @ [ {|{"type":"shutdown"}|} ]))
  in
  let batch_items r =
    match Obs.Json.member "batch" r with
    | Some (Obs.Json.List items) -> items
    | _ -> Alcotest.fail "result carries no batch array"
  in
  let item_verdicts r =
    List.map
      (fun it -> Option.value ~default:"?" (ev_str "verdict" it))
      (batch_items r)
  in
  let keys = function
    | Obs.Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "expected a JSON object"
  in
  (* The batch fields carry exactly what the pooled batch computes. *)
  let check_shape r =
    List.iter
      (fun it ->
        Alcotest.(check (list string)) "item fields" [ "name"; "verdict" ]
          (keys it))
      (batch_items r);
    match Obs.Json.member "batch_stats" r with
    | Some stats ->
      Alcotest.(check (list string)) "batch_stats fields"
        [ "invariants_shared" ] (keys stats)
    | None -> Alcotest.fail "result carries no batch_stats"
  in
  (match find_result "batch-net" events with
  | None -> Alcotest.fail "no result for batch-net"
  | Some r ->
    let model =
      Srv.Jobspec.build
        (parse_job (List.nth jobs 0)).Srv.Jobspec.model
    in
    Alcotest.(check int) "one item per good conjunct"
      (List.length model.Mc.Model.good)
      (List.length (batch_items r));
    Alcotest.(check (option string)) "aggregate proved" (Some "proved")
      (ev_str "verdict" r);
    List.iter
      (fun v -> Alcotest.(check string) "every property proved" "proved" v)
      (item_verdicts r);
    check_shape r);
  match find_result "batch-bug" events with
  | None -> Alcotest.fail "no result for batch-bug"
  | Some r ->
    check_shape r;
    Alcotest.(check bool) "aggregate violated" true
      (match ev_str "verdict" r with
      | Some v -> contains ~sub:"violated" v
      | None -> false);
    Alcotest.(check bool) "some property violated" true
      (List.exists (fun v -> contains ~sub:"violated" v) (item_verdicts r))

let test_daemon_introspection () =
  (* stats (JSON and Prometheus), health and watch round-trips over a
     real socket, with work inflight so the numbers are live. *)
  let jobs =
    [
      {|{"id":"introspect-1","model":{"family":"filter","depth":8}}|};
      {|{"id":"introspect-2","model":{"family":"filter","depth":8}}|};
    ]
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (base_cfg sock) (fun () ->
        talk sock
          (jobs
          @ [
              {|{"type":"watch","interval_s":0.05}|};
              {|{"type":"stats"}|};
              {|{"type":"stats","format":"prom"}|};
              {|{"type":"health"}|};
              {|{"type":"unwatch"}|};
              {|{"type":"shutdown"}|};
            ]))
  in
  let stats_events = List.filter (fun j -> ev_type j = "stats") events in
  let plain =
    List.filter (fun j -> Obs.Json.member "prom" j = None) stats_events
  in
  let prom =
    List.filter_map
      (fun j -> Option.bind (Obs.Json.member "prom" j) Obs.Json.to_str)
      stats_events
  in
  (match plain with
  | [] -> Alcotest.fail "no JSON stats event"
  | s :: _ ->
    Alcotest.(check bool) "stats has queue_depth" true
      (Obs.Json.member "queue_depth" s <> None);
    (match Obs.Json.member "latency" s with
    | Some (Obs.Json.Obj rows) ->
      Alcotest.(check bool) "latency covers the e2e histogram" true
        (List.mem_assoc "srv.e2e_ms" rows);
      Alcotest.(check bool) "latency splits the daemon's own hops" true
        (List.mem_assoc "srv.route_ms" rows && List.mem_assoc "srv.flush_ms" rows)
    | _ -> Alcotest.fail "stats carries no latency object"));
  (match prom with
  | [] -> Alcotest.fail "no Prometheus stats event"
  | text :: _ ->
    Alcotest.(check bool) "prom text has TYPE lines" true
      (contains ~sub:"# TYPE" text);
    Alcotest.(check bool) "prom names are prefixed" true
      (contains ~sub:"icv_" text);
    Alcotest.(check bool) "latency histograms exported" true
      (contains ~sub:"icv_srv_e2e_ms_bucket" text
      || contains ~sub:"icv_srv_e2e_ms_count" text);
    Alcotest.(check bool) "route and flush histograms exported" true
      (contains ~sub:"icv_srv_route_ms_count" text
      && contains ~sub:"icv_srv_flush_ms_count" text));
  (match List.find_opt (fun j -> ev_type j = "health") events with
  | None -> Alcotest.fail "no health event"
  | Some h ->
    Alcotest.(check bool) "health reports uptime" true
      (match Option.bind (Obs.Json.member "uptime_s" h) Obs.Json.to_float with
      | Some u -> u >= 0.0
      | None -> false);
    Alcotest.(check bool) "health reports inflight" true
      (Obs.Json.member "inflight" h <> None);
    (match Obs.Json.member "slots" h with
    | Some (Obs.Json.List slots) ->
      Alcotest.(check int) "one slot entry per worker"
        Srv.Daemon.default_config.Srv.Daemon.workers (List.length slots)
    | _ -> Alcotest.fail "health carries no slots array"));
  (* The watch stream produced at least its immediate baseline frame. *)
  Alcotest.(check bool) "watch streamed a metrics frame" true
    (List.exists (fun j -> ev_type j = "metrics") events);
  List.iter
    (fun line ->
      let id = (parse_job line).Srv.Jobspec.id in
      if find_result id events = None then
        Alcotest.fail (Printf.sprintf "no result for %s" id))
    jobs

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with _ -> ()
  end

let test_daemon_crash_resume () =
  (* A worker domain killed mid-fixpoint: the supervisor must respawn
     it, requeue the job, resume it from its checkpoint, and still
     deliver the one-shot verdict. *)
  let ckpt_dir = tmp_sock () ^ ".ckpt.d" in
  let cfg sock =
    {
      (base_cfg sock) with
      Srv.Daemon.workers = 1;
      checkpoint_dir = Some ckpt_dir;
      hang_timeout_s = 5.0;
    }
  in
  let job =
    {|{"id":"crashy","model":{"family":"filter","depth":8},"fault":{"after_iterations":1,"action":"crash"}}|}
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        talk sock [ job; {|{"type":"shutdown"}|} ])
  in
  let retries =
    List.filter
      (fun j -> ev_type j = "retry" && ev_id j = Some "crashy")
      events
  in
  Alcotest.(check bool) "crash produced a retry event" true
    (List.length retries >= 1);
  (match find_result "crashy" events with
  | None -> Alcotest.fail "no result after crash recovery"
  | Some r ->
    Alcotest.(check bool) "retry resumed from the checkpoint" true
      (Obs.Json.member "resumed" r = Some (Obs.Json.Bool true));
    Alcotest.(check bool) "resumed mid-fixpoint" true
      (match Option.bind (Obs.Json.member "resumed_at" r) Obs.Json.to_int with
      | Some i -> i >= 1
      | None -> false);
    let spec = parse_job job in
    let oneshot =
      Mc.Runner.run Mc.Runner.Xici (Srv.Jobspec.build spec.Srv.Jobspec.model)
    in
    Alcotest.(check (option string)) "verdict parity after recovery"
      (Some (Mc.Report.status_string oneshot))
      (ev_str "verdict" r));
  (* Flight-recorder dumps share the directory; only checkpoints must
     be gone once every job resolved. *)
  let leftover_ckpts =
    if Sys.file_exists ckpt_dir then
      List.filter
        (fun f -> Filename.check_suffix f ".ckpt")
        (Array.to_list (Sys.readdir ckpt_dir))
    else []
  in
  Alcotest.(check (list string)) "checkpoint file deleted on resolution" []
    leftover_ckpts;
  rm_rf_dir ckpt_dir

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let test_daemon_flight_dump () =
  (* A worker crash must leave a parseable flight-recorder dump whose
     last entry is the crash itself, and the retry reason must point at
     the dump file. *)
  let dir = tmp_sock () ^ ".flight.d" in
  let cfg sock =
    {
      (base_cfg sock) with
      Srv.Daemon.workers = 1;
      checkpoint_dir = Some dir;
      hang_timeout_s = 5.0;
    }
  in
  let job =
    {|{"id":"boom","model":{"family":"filter","depth":8},"fault":{"after_iterations":1,"action":"crash"}}|}
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        talk sock [ job; {|{"type":"shutdown"}|} ])
  in
  let retry =
    List.find_opt
      (fun j -> ev_type j = "retry" && ev_id j = Some "boom")
      events
  in
  (match retry with
  | None -> Alcotest.fail "crash produced no retry event"
  | Some r ->
    Alcotest.(check bool) "retry reason references the flight dump" true
      (match ev_str "reason" r with
      | Some why -> contains ~sub:"flight" why
      | None -> false));
  let dumps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= 7 && String.sub f 0 7 = "flight-")
    |> List.map (Filename.concat dir)
  in
  Alcotest.(check bool) "a flight dump was written" true (dumps <> []);
  let crash_dump =
    List.find_opt
      (fun path ->
        let lines = read_lines path in
        lines <> []
        &&
        let last = Obs.Json.of_string (List.nth lines (List.length lines - 1)) in
        Option.bind (Obs.Json.member "kind" last) Obs.Json.to_str
        = Some "worker_crash")
      dumps
  in
  (match crash_dump with
  | None -> Alcotest.fail "no dump ends with the worker_crash trigger"
  | Some path ->
    let lines = read_lines path in
    (* Every line parses, and the file saw the job's life before the
       crash: admission and dispatch precede the trigger. *)
    let entries = List.map Obs.Json.of_string lines in
    let kinds =
      List.filter_map
        (fun j -> Option.bind (Obs.Json.member "kind" j) Obs.Json.to_str)
        entries
    in
    Alcotest.(check int) "every entry carries a kind" (List.length lines)
      (List.length kinds);
    Alcotest.(check bool) "dump records the admission" true
      (List.mem "admit" kinds);
    Alcotest.(check bool) "dump records the dispatch" true
      (List.mem "dispatch" kinds);
    let last = List.nth entries (List.length entries - 1) in
    Alcotest.(check bool) "crash entry names the job" true
      (Obs.Json.member "job" last = Some (Obs.Json.String "boom")));
  rm_rf_dir dir

let test_daemon_trace_stability () =
  (* A traced job that crashes and resumes must keep one trace id
     across attempts, and its span file must be one coherent tree:
     every span carries the trace id, both attempts' spans land in the
     same file on the same timeline, and the queue-wait/thaw/solve
     phases are all present. *)
  let dir = tmp_sock () ^ ".trace.d" in
  let cfg sock =
    {
      (base_cfg sock) with
      Srv.Daemon.workers = 1;
      checkpoint_dir = Some dir;
      hang_timeout_s = 5.0;
    }
  in
  let job =
    {|{"id":"traced","model":{"family":"filter","depth":8},"trace":true,"fault":{"after_iterations":1,"action":"crash"}}|}
  in
  let sock = tmp_sock () in
  let events =
    with_daemon (cfg sock) (fun () ->
        talk sock [ job; {|{"type":"shutdown"}|} ])
  in
  let tid_of ev = ev_str "trace_id" ev in
  let accepted =
    List.find_opt
      (fun j -> ev_type j = "accepted" && ev_id j = Some "traced")
      events
  in
  let retry =
    List.find_opt
      (fun j -> ev_type j = "retry" && ev_id j = Some "traced")
      events
  in
  let result =
    match find_result "traced" events with
    | Some r -> r
    | None -> Alcotest.fail "no result for the traced job"
  in
  let trace_id =
    match tid_of result with
    | Some t -> t
    | None -> Alcotest.fail "result carries no trace id"
  in
  Alcotest.(check (option string)) "accepted and result share the trace id"
    (Some trace_id)
    (Option.bind accepted tid_of);
  Alcotest.(check (option string)) "retry keeps the trace id"
    (Some trace_id)
    (Option.bind retry tid_of);
  let path =
    match ev_str "trace" result with
    | Some p -> p
    | None -> Alcotest.fail "result carries no trace path"
  in
  Alcotest.(check bool) "trace file exists" true (Sys.file_exists path);
  let spans =
    List.filter_map
      (fun line ->
        let j = Obs.Json.of_string line in
        if Option.bind (Obs.Json.member "type" j) Obs.Json.to_str = Some "span"
        then Some j
        else None)
      (read_lines path)
  in
  Alcotest.(check bool) "trace contains spans" true (spans <> []);
  let span_attr field s =
    Option.bind (Obs.Json.member "args" s) (Obs.Json.member field)
  in
  List.iter
    (fun s ->
      if span_attr "trace_id" s <> Some (Obs.Json.String trace_id) then
        Alcotest.fail "a span is missing the trace id")
    spans;
  let named n = List.filter (fun s -> ev_str "name" s = Some n) spans in
  Alcotest.(check bool) "queue wait span present" true
    (named "job.queue_wait" <> []);
  Alcotest.(check bool) "thaw span present" true (named "job.thaw" <> []);
  Alcotest.(check bool) "per-iteration image spans present" true
    (named "xici.iteration" <> []);
  let attempts =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           match span_attr "attempt" s with
           | Some (Obs.Json.Int a) -> Some a
           | _ -> None)
         (named "job.solve"))
  in
  Alcotest.(check bool) "both attempts traced into one file" true
    (List.length attempts >= 2);
  rm_rf_dir dir

(* Seeded exactly-once property over the socket daemon: random tiny
   jobs, some with crash or exceed injection, submitted in one burst to
   two workers.  Every id must get exactly one terminal event (result or
   rejected), and once all have arrived the daemon must report nothing
   outstanding.  The seed is fixed, so a failure replays. *)
let test_daemon_exactly_once =
  let open QCheck2 in
  let models =
    [|
      {|{"family":"fifo","depth":2}|};
      {|{"family":"fifo","depth":3}|};
      {|{"family":"network","procs":2}|};
      {|{"family":"filter","depth":2}|};
    |]
  in
  let faults =
    [|
      "";
      {|,"fault":{"after_steps":1,"action":"crash"}|};
      {|,"fault":{"after_iterations":1,"action":"crash"}|};
      {|,"fault":{"after_steps":1,"action":"exceed"}|};
    |]
  in
  let gen =
    Gen.(
      list_size (int_range 3 10)
        (pair (int_bound (Array.length models - 1))
           (frequency [ (3, return 0); (1, int_range 1 (Array.length faults - 1)) ])))
  in
  let print jobs =
    String.concat "; "
      (List.map (fun (m, f) -> Printf.sprintf "%s%s" models.(m) faults.(f)) jobs)
  in
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 2026 |])
    (Test.make ~count:4 ~name:"every job resolves exactly once" ~print gen
       (fun jobs ->
         let dir = tmp_sock () ^ ".once.d" in
         let sock = tmp_sock () in
         let cfg =
           { (base_cfg sock) with checkpoint_dir = Some dir; hang_timeout_s = 5.0 }
         in
         let lines =
           List.mapi
             (fun i (m, f) ->
               Printf.sprintf {|{"id":"q%d","model":%s%s}|} i models.(m)
                 faults.(f))
             jobs
         in
         let ids = List.mapi (fun i _ -> Printf.sprintf "q%d" i) jobs in
         let events, inflight =
           with_daemon cfg (fun () ->
               let c = connect sock in
               List.iter (send c) lines;
               let events = ref [] in
               let next () =
                 match recv c with
                 | Some j ->
                   events := j :: !events;
                   j
                 | None -> Alcotest.fail "connection closed before every answer"
               in
               let terminal j =
                 let ty = ev_type j in
                 ty = "result" || ty = "rejected"
               in
               let resolved () =
                 List.for_all
                   (fun id ->
                     List.exists (fun j -> terminal j && ev_id j = Some id) !events)
                   ids
               in
               while not (resolved ()) do
                 ignore (next ())
               done;
               send c {|{"type":"health"}|};
               let rec health () =
                 let j = next () in
                 if ev_type j = "health" then
                   Option.bind (Obs.Json.member "inflight" j) Obs.Json.to_int
                 else health ()
               in
               let inflight = health () in
               send c {|{"type":"shutdown"}|};
               (List.rev_append !events (recv_all c), inflight))
         in
         rm_rf_dir dir;
         let terminals id =
           List.length
             (List.filter
                (fun j ->
                  (ev_type j = "result" || ev_type j = "rejected")
                  && ev_id j = Some id)
                events)
         in
         List.for_all (fun id -> terminals id = 1) ids && inflight = Some 0))

let () =
  Alcotest.run "srv"
    [
      ( "jobspec",
        [
          Alcotest.test_case "defaults and roundtrip" `Quick
            test_jobspec_defaults;
          Alcotest.test_case "rejections" `Quick test_jobspec_rejections;
          Alcotest.test_case "batch flag roundtrip" `Quick
            test_jobspec_batch_roundtrip;
          Alcotest.test_case "model cache key" `Quick test_model_key;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests" `Quick test_requests;
          Alcotest.test_case "event shape" `Quick test_event_shape;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue" `Quick test_admission_bounds;
          Alcotest.test_case "urgent lane" `Quick test_admission_urgent_lane;
          Alcotest.test_case "each lane is FIFO" `Quick
            test_admission_lanes_fifo;
          Alcotest.test_case "close wakes a blocked consumer" `Quick
            test_admission_close_wakes;
        ] );
      ( "sched",
        List.map sched_case sched_rows
        @ [
            Alcotest.test_case "idle keeps the longest recent prefix" `Quick
              test_sched_idle_prefix;
            Alcotest.test_case "idle without a cap keeps every manager" `Quick
              test_sched_idle_uncapped;
          ] );
      ( "pool",
        [
          Alcotest.test_case "wake fd" `Quick test_pool_wake_fd;
          Alcotest.test_case "idle scratch counts toward pressure" `Quick
            test_pool_idle_scratch_pressure;
          Alcotest.test_case "a job's live count does not outlive it" `Quick
            test_pool_live_after_job;
          Alcotest.test_case "every job on a model a worker ran starts warm"
            `Quick test_pool_every_job_warm;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "verdict parity" `Quick test_daemon_verdict_parity;
          Alcotest.test_case "idle scratch does not pin pressure" `Quick
            test_daemon_pressure_recovers;
          Alcotest.test_case "overload rejects explicitly" `Quick
            test_daemon_overload;
          Alcotest.test_case "portfolio jobs stay live under supervision"
            `Quick test_daemon_portfolio_liveness;
          Alcotest.test_case "scratch managers reused without leakage" `Quick
            test_daemon_manager_reuse;
          Alcotest.test_case "batch job end to end" `Quick
            test_daemon_batch_job;
          Alcotest.test_case "crash, respawn, resume" `Quick
            test_daemon_crash_resume;
          Alcotest.test_case "stats, health and watch round-trips" `Quick
            test_daemon_introspection;
          Alcotest.test_case "flight recorder dumps on crash" `Quick
            test_daemon_flight_dump;
          Alcotest.test_case "trace id stable across checkpoint retry" `Quick
            test_daemon_trace_stability;
          test_daemon_exactly_once;
          Alcotest.test_case "exceeded solve reports its own cost" `Quick
            test_daemon_exceed_report;
        ] );
    ]
