(* The repository benchmark.  See README.md for the workloads, the
   metrics and how to run, trace and compare.

   suite.exe --workload W --seed N --seconds S --trace 0|1
     runs one workload and prints one JSON result as its last stdout
     line: the end-to-end metrics untraced, the per-layer metrics
     traced.  Exits 1 if any verdict was wrong.
   suite.exe [--seed N] [--seconds S] [--runs R] [--sets K] [--traced]
     runs every workload in its own child process and writes
     BENCH_suite.json stamped with the machine.
   suite.exe --smoke       a short check of every workload and metric.
   suite.exe --compare A.json[:SET] B.json[:SET]
     compares two artifacts' medians against BENCHMARK.json's bounds. *)

open Jobs

type workload = One_shot of job list * job list (* full, smoke *) | Service

let workloads =
  [
    ( "images",
      One_shot
        ( [
            job "network-6/bkwd" (network 6) (Solve Mc.Runner.Backward);
            job "abp-8/xici" (abp 8) (Solve Mc.Runner.Xici);
            job "filter-8/xici" (filter 8) (Solve Mc.Runner.Xici);
          ],
          [ job "filter-4/bkwd" (filter 4) (Solve Mc.Runner.Backward) ] ) );
    ( "policy",
      One_shot
        ( [
            job "cpu-4R1B/xici" (cpu 4 1) (Solve Mc.Runner.Xici);
            job ~expect:Violated "cpu-2R2B-bug/xici" (cpu ~bug:true 2 2)
              (Solve Mc.Runner.Xici);
            job ~expect:Violated "network-7-bug/xici" (network ~bug:true 7)
              (Solve Mc.Runner.Xici);
          ],
          [
            job ~expect:Violated "network-4-bug/xici" (network ~bug:true 4)
              (Solve Mc.Runner.Xici);
          ] ) );
    ( "batch",
      One_shot
        ( [
            job "abp-7/batch" (abp 7) Batch;
            job "cpu-2R2B/batch" (cpu 2 2) Batch;
            job "network-8/batch" (network 8) Batch;
            job "fifo-10/batch" (fifo 10) Batch;
          ],
          [ job "fifo-5/batch" (fifo 5) Batch ] ) );
    ("service", Service);
  ]

(* Names and units, in print order.  BENCHMARK.json lists the same
   names; --smoke checks that the two agree. *)
let e2e_units =
  [
    ("verdict_s", "s");
    ("setup_s", "s");
    ("peak_live_nodes", "count");
    ("peak_rss_mb", "MB");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
  ]

let layer_units =
  [
    ("bdd.steps", "count");
    ("bdd.steps_per_s", "1/s");
    ("bdd.nodes_created", "count");
    ("bdd.cache_hit_ratio", "ratio");
    ("bdd.cache.ite.hit_ratio", "ratio");
    ("bdd.cache.and_exists.hit_ratio", "ratio");
    ("bdd.cache.vcompose.hit_ratio", "ratio");
    ("bdd.cache.restrict.hit_ratio", "ratio");
    ("bdd.computed.evictions", "count");
    ("bdd.unique.resizes", "count");
    ("bdd.gc_events", "count");
    ("bdd.alloc_mb", "MB");
    ("fsm.image_s", "s");
    ("fsm.image_calls", "count");
    ("ici.simplify_s", "s");
    ("ici.evaluate_s", "s");
    ("ici.taut_s", "s");
    ("ici.pairs_scored", "count");
    ("ici.pair_cache_hit_ratio", "ratio");
    ("ici.merges", "count");
    ("ici.restrict_win_ratio", "ratio");
    ("ici.taut_expansions", "count");
    ("ici.taut_filter_ratio", "ratio");
    ("mc.solve_s", "s");
    ("mc.self_s", "s");
    ("mc.iterations", "count");
    ("mc.batch.invariants_shared", "count");
    ("mc.batch.per_property_s", "s");
    ("mc.checkpoint_ms", "ms");
    ("mc.freeze_ms", "ms");
    ("mc.thaw_ms", "ms");
    ("models.build_s", "s");
    ("srv.queue_ms.p50", "ms");
    ("srv.queue_ms.p99", "ms");
    ("srv.thaw_ms.p50", "ms");
    ("srv.solve_ms.p50", "ms");
    ("srv.solve_ms.p99", "ms");
    ("srv.epilogue_ms.p50", "ms");
    ("srv.overhead_ms.p50", "ms");
    ("srv.protocol.decode_us", "us");
    ("srv.protocol.encode_us", "us");
    ("srv.manager_reuses", "count");
    ("srv.requeues", "count");
    ("srv.rejections", "count");
    ("obs.trace_overhead_pct", "%");
    ("gen.late_ms.max", "ms");
  ]

let log workload msg = Printf.eprintf "[%s] %s\n%!" workload msg

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- one workload, in this process ------------------------------------ *)

type outcome = {
  metrics : (string * float) list;
  failures : string list;
  attempted : int;
  info : (string * Obs.Json.t) list;  (* the detail line *)
}

let trace_file = "BENCH_suite_trace.jsonl"

let run_one_shot name ~full ~smoke_jobs ~seed ~seconds ~trace ~smoke =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let jobs = if smoke then smoke_jobs else full in
  let tracer, passes =
    Oneshot.run_passes ~rng ~seconds ~trace
      ~max_passes:(if smoke then (if trace then 2 else 1) else max_int)
      ~log:(log name) jobs
  in
  let metrics =
    if trace then begin
      let freeze_thaw =
        Spans.record tracer (fun () ->
            List.map Jobs.freeze_thaw (Oneshot.distinct_specs jobs))
      in
      let extra = Spans.take tracer in
      let spans = List.concat_map (fun p -> p.Oneshot.raw) passes @ extra in
      Spans.write tracer ~path:trace_file spans;
      Oneshot.per_layer passes ~freeze_thaw
    end
    else Oneshot.e2e passes
  in
  {
    metrics;
    failures = Oneshot.failures passes;
    attempted = Oneshot.attempted passes;
    info = [ ("passes", Obs.Json.Int (List.length passes)) ];
  }

let default_icvd () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "icvd.exe")

let run_service ~icvd ~seed ~seconds ~trace ~smoke =
  let r = Service.run ~icvd ~seed ~seconds ~trace ~smoke ~log:(log "service") in
  if trace then begin
    let oc = open_out trace_file in
    List.iter (fun l -> output_string oc l; output_char oc '\n') r.Service.trace_lines;
    close_out oc
  end;
  let rate (row : Service.rate_row) =
    Obs.Json.Obj
      [
        ("rate_jobs_per_s", Obs.Json.Float row.Service.rate);
        ("p50_ms", Obs.Json.Float row.Service.p50_ms);
        ("p99_ms", Obs.Json.Float row.Service.p99_ms);
        ("backlog_grows", Obs.Json.Bool row.Service.backlog);
      ]
  in
  (* The highest ladder rate meeting the p99 limit without a growing
     backlog, provided every lower rate does too. *)
  let rec max_rate best = function
    | (row : Service.rate_row) :: rest
      when row.Service.p99_ms <= Service.p99_limit_ms && not row.Service.backlog ->
      max_rate row.Service.rate rest
    | _ -> best
  in
  let info =
    if trace then []
    else
      [
        ("rates", Obs.Json.List (List.map rate r.Service.rates));
        ("max_rate_jobs_per_s", Obs.Json.Float (max_rate 0.0 r.Service.rates));
      ]
  in
  { metrics = r.Service.metrics; failures = r.Service.failures; attempted = r.Service.attempted; info }

let result_json o ~units =
  let metric (name, unit) =
    match List.assoc_opt name o.metrics with
    | Some v ->
      (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ])
    | None -> failwith ("metric not measured: " ^ name)
  in
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (o.failures = []));
      ("attempted", Obs.Json.Int (max 1 o.attempted));
      ("failed", Obs.Json.Int (List.length o.failures));
      ("metrics", Obs.Json.Obj (List.map metric units));
    ]

let run_workload ~name ~icvd ~seed ~seconds ~trace ~smoke =
  let o =
    match List.assoc_opt name workloads with
    | Some (One_shot (full, smoke_jobs)) ->
      run_one_shot name ~full ~smoke_jobs ~seed ~seconds ~trace ~smoke
    | Some Service -> run_service ~icvd ~seed ~seconds ~trace ~smoke
    | None ->
      Printf.eprintf "suite: unknown workload %S\n" name;
      exit 2
  in
  List.iter (fun f -> log name ("FAILED " ^ f)) o.failures;
  print_endline (Obs.Json.to_string (Obs.Json.Obj [ ("info", Obs.Json.Obj o.info) ]));
  print_endline
    (Obs.Json.to_string (result_json o ~units:(if trace then layer_units else e2e_units)));
  if o.failures <> [] then exit 1

(* --- every workload, each in a child process ---------------------------- *)

(* The commit the artifact was measured at, when run from a git
   checkout. *)
let git_rev () =
  let git f = Filename.concat ".git" f in
  match String.trim (read_file (git "HEAD")) with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match String.trim (read_file (git r)) with
    | rev -> rev
    | exception Sys_error _ -> "unknown")
  | rev -> rev

let machine () =
  Obs.Json.Obj
    [
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("git_rev", Obs.Json.String (git_rev ()));
    ]

(* Run one workload in a child process; (result, info) or the reason it
   failed.  Its stderr passes through. *)
let child ~icvd ~name ~seed ~seconds ~trace ~smoke =
  let args =
    [
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
      "--seconds"; string_of_float seconds; "--trace"; (if trace then "1" else "0");
      "--icvd"; icvd;
    ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let parse l = try Some (Obs.Json.of_string l) with Obs.Json.Parse_error _ -> None in
  let info =
    List.find_map
      (fun l -> Option.bind (parse l) (Obs.Json.member "info"))
      !lines
  in
  match (status, !lines) with
  | (Unix.WEXITED (0 | 1), last :: _) -> (
    match parse last with
    | Some json -> Ok (json, Option.value info ~default:Obs.Json.Null)
    | None -> Error "unparsable result")
  | _ -> Error "child exited abnormally"

let run_all ~icvd ~seed ~seconds ~runs ~sets ~traced ~out =
  let set_names = List.init sets (fun i -> String.make 1 (Char.chr (97 + i))) in
  let records = Hashtbl.create 4 in
  let failed = ref false in
  let trace_lines = ref [] in
  let one ~set ~trace name =
    match child ~icvd ~name ~seed ~seconds ~trace ~smoke:false with
    | Ok (json, info) ->
      if Obs.Json.member "correct" json <> Some (Obs.Json.Bool true) then failed := true;
      if trace && Sys.file_exists trace_file then
        trace_lines := !trace_lines @ String.split_on_char '\n' (String.trim (read_file trace_file));
      let row =
        Obs.Json.Obj
          [
            ("workload", Obs.Json.String name);
            ("trace", Obs.Json.Int (if trace then 1 else 0));
            ("seed", Obs.Json.Int seed);
            ("result", json);
            ("info", info);
          ]
      in
      Hashtbl.replace records set (row :: Option.value (Hashtbl.find_opt records set) ~default:[])
    | Error why ->
      failed := true;
      log name why
  in
  for _ = 1 to runs do
    List.iter (fun set -> List.iter (fun (name, _) -> one ~set ~trace:false name) workloads) set_names
  done;
  if traced then List.iter (fun (name, _) -> one ~set:"a" ~trace:true name) workloads;
  let artifact set =
    Obs.Json.Obj
      [
        ("machine", machine ());
        ("seconds", Obs.Json.Float seconds);
        ("runs", Obs.Json.List (List.rev (Option.value (Hashtbl.find_opt records set) ~default:[])));
      ]
  in
  let json =
    if sets = 1 then artifact "a"
    else Obs.Json.Obj [ ("sets", Obs.Json.Obj (List.map (fun s -> (s, artifact s)) set_names)) ]
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  if !trace_lines <> [] then begin
    let oc = open_out trace_file in
    List.iter (fun l -> output_string oc l; output_char oc '\n') !trace_lines;
    close_out oc
  end;
  Printf.printf "wrote %s\n" out;
  if !failed then exit 1

(* --- BENCHMARK.json ------------------------------------------------------ *)

type spec = { m_name : string; m_unit : string; better : string; bound : float }

let benchmark_specs key =
  let json = Obs.Json.of_string (read_file "BENCHMARK.json") in
  let str k j = Option.value (Option.bind (Obs.Json.member k j) Obs.Json.to_str) ~default:"" in
  List.map
    (fun j ->
      {
        m_name = str "name" j;
        m_unit = str "unit" j;
        better = str "better" j;
        bound = Option.value (Option.bind (Obs.Json.member "bound" j) Obs.Json.to_float) ~default:0.0;
      })
    (Option.value (Option.bind (Obs.Json.member key json) Obs.Json.to_list) ~default:[])

(* --- smoke ------------------------------------------------------------------ *)

(* One small job per one-shot workload and 20 service jobs, each run
   untraced and traced; every metric BENCHMARK.json names must print
   with its unit, and the verdict gate must pass. *)
let smoke ~icvd =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let key = if trace then "per_layer" else "end_to_end" in
          match child ~icvd ~name ~seed:1 ~seconds:1.0 ~trace ~smoke:true with
          | Error why -> problem "%s: %s" name why
          | Ok (json, _) ->
            if Obs.Json.member "correct" json <> Some (Obs.Json.Bool true) then
              problem "%s: verdict gate failed" name;
            let metrics = Option.value (Obs.Json.member "metrics" json) ~default:Obs.Json.Null in
            List.iter
              (fun s ->
                match Obs.Json.member s.m_name metrics with
                | None -> problem "%s: %s not printed" name s.m_name
                | Some m ->
                  if Option.bind (Obs.Json.member "unit" m) Obs.Json.to_str <> Some s.m_unit then
                    problem "%s: %s printed without unit %s" name s.m_name s.m_unit)
              (benchmark_specs key))
        [ false; true ])
    workloads;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter (fun p -> Printf.printf "smoke: %s\n" p) (List.rev ps);
    exit 1

(* --- compare ----------------------------------------------------------------- *)

(* [FILE] or [FILE:SET], the latter picking one set of a multi-set
   artifact. *)
let load_artifact arg =
  let file, set =
    match String.rindex_opt arg ':' with
    | Some i -> (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
    | None -> (arg, None)
  in
  let json = Obs.Json.of_string (read_file file) in
  match set with
  | None -> json
  | Some s -> (
    match Option.bind (Obs.Json.member "sets" json) (Obs.Json.member s) with
    | Some a -> a
    | None -> failwith (Printf.sprintf "%s has no set %S" file s))

let compare_artifacts a_arg b_arg =
  let a = load_artifact a_arg and b = load_artifact b_arg in
  let host j =
    let m = Option.value (Obs.Json.member "machine" j) ~default:Obs.Json.Null in
    (Obs.Json.member "nproc" m, Obs.Json.member "ocaml" m)
  in
  if host a <> host b then begin
    Printf.printf "refusing to compare: the artifacts come from different machines\n";
    exit 2
  end;
  let values art workload metric =
    List.filter_map
      (fun run ->
        let s k = Option.bind (Obs.Json.member k run) Obs.Json.to_str in
        if s "workload" = Some workload && Obs.Json.member "trace" run = Some (Obs.Json.Int 0)
        then
          Option.bind (Obs.Json.member "result" run) (fun r ->
              Option.bind (Obs.Json.member "metrics" r) (fun m ->
                  Option.bind (Obs.Json.member metric m) (fun v ->
                      Option.bind (Obs.Json.member "value" v) Obs.Json.to_float)))
        else None)
      (Option.value (Option.bind (Obs.Json.member "runs" art) Obs.Json.to_list) ~default:[])
  in
  let worse = ref false in
  Printf.printf "%-8s %-16s %12s %12s %8s  %s\n" "workload" "metric" "A median" "B median" "change" "verdict";
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun s ->
          let va = values a workload s.m_name and vb = values b workload s.m_name in
          if va <> [] && vb <> [] then begin
            let ma = Stats.median va and mb = Stats.median vb in
            let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
            let gain = if s.better = "higher" then change else -.change in
            let verdict =
              if Stats.spread va > s.bound || Stats.spread vb > s.bound then "unresolved"
              else if gain < -.s.bound then "worse"
              else if gain > s.bound then "better"
              else "same"
            in
            if verdict = "worse" then worse := true;
            Printf.printf "%-8s %-16s %12.6g %12.6g %+7.1f%%  %s\n" workload s.m_name ma mb
              (100.0 *. change) verdict
          end)
        (benchmark_specs "end_to_end"))
    workloads;
  if !worse then exit 1

(* --- command line ---------------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let smoke_flag = ref false and runs = ref 1 and sets = ref 1 and traced = ref false in
  let out = ref "BENCH_suite.json" and icvd = ref (default_icvd ()) in
  let compare = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--smoke", Arg.Set smoke_flag, " small inputs; without --workload, check every workload");
      ("--runs", Arg.Set_int runs, "R runs of each workload (default 1)");
      ("--sets", Arg.Set_int sets, "K interleaved sets of runs, written as one artifact");
      ("--traced", Arg.Set traced, " also make one traced run of each workload");
      ("--out", Arg.Set_string out, "FILE artifact path (default BENCH_suite.json)");
      ("--icvd", Arg.Set_string icvd, "PATH the icvd executable (default: next to this one)");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A B compare two artifacts" );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "suite.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] ...";
  match (!compare, !workload) with
  | [ a; b ], _ -> compare_artifacts a b
  | _, Some name ->
    run_workload ~name ~icvd:!icvd ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~smoke:!smoke_flag
  | _, None ->
    if !smoke_flag then smoke ~icvd:!icvd
    else
      run_all ~icvd:!icvd ~seed:!seed ~seconds:!seconds ~runs:!runs ~sets:(max 1 !sets)
        ~traced:!traced ~out:!out
