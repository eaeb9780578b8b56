(* Jobs, the expected-verdict table, and one measured job run.

   Every job names its model declaratively (a {!Srv.Jobspec.model_spec},
   the same description icvd receives), is built on a fresh manager,
   and runs under the budgets of the paper's tables: 12M live nodes and
   120 s. *)

type verdict = Proved | Violated

type kind =
  | Solve of Mc.Runner.meth
  | Batch  (** pooled {!Mc.Batch.run}: one domain, no speculation *)

type job = {
  name : string;
  spec : Srv.Jobspec.model_spec;
  kind : kind;
  expect : verdict;  (** for a batch job, every property's verdict *)
}

let base = Srv.Jobspec.default_model
let fifo depth = { base with family = "fifo"; depth }
let network ?(bug = false) procs = { base with family = "network"; procs; bug }
let filter depth = { base with family = "filter"; depth }
let cpu ?(bug = false) regs width = { base with family = "cpu"; regs; width; bug }
let abp width = { base with family = "abp"; width }

let job ?(expect = Proved) name spec kind = { name; spec; kind; expect }

let max_live_nodes = 12_000_000
let max_seconds = 120.0

let limits man = Mc.Limits.start ~max_live_nodes ~max_seconds man

(* A submit line for an XICI job on [spec], as icvd receives it. *)
let submit_line ?(trace = false) ~id spec =
  Srv.Protocol.to_line
    (Srv.Jobspec.to_json
       {
         Srv.Jobspec.id;
         model = spec;
         meth = Srv.Jobspec.Method Mc.Runner.Xici;
         batch = false;
         deadline_s = Some max_seconds;
         max_live_nodes = Some max_live_nodes;
         grow_threshold = None;
         progress = false;
         trace;
         fault = None;
       })

(* --- counters the program already keeps ------------------------------ *)

type kernel = {
  steps : int;
  created : int;
  cache : (string * int * int) list;  (* name, hits, misses *)
  evictions : int;
  resizes : int;
  gc_events : int;
}

let kernel man =
  {
    steps = Bdd.steps man;
    created = Bdd.created_nodes man;
    cache = Bdd.cache_stats man;
    evictions = List.assoc "evictions" (Bdd.computed_table_stats man);
    resizes = List.assoc "resizes" (Bdd.unique_table_stats man);
    gc_events = Bdd.gc_events man;
  }

let kernel_diff a b =
  {
    steps = a.steps - b.steps;
    created = a.created - b.created;
    cache =
      List.map2
        (fun (n, h, m) (_, h', m') -> (n, h - h', m - m'))
        a.cache b.cache;
    evictions = a.evictions - b.evictions;
    resizes = a.resizes - b.resizes;
    gc_events = a.gc_events - b.gc_events;
  }

(* Registry counters of the ICI layer (Ici.Policy and Ici.Tautology
   count into the process-wide registry). *)
let ici_counters =
  [
    "policy.pairs_scored";
    "policy.pair_cache_hits";
    "policy.merges";
    "policy.restrict_wins";
    "policy.restrict_losses";
    "taut.expansions";
    "taut.constant_hits";
    "taut.complement_hits";
    "taut.pairwise_tautologies";
  ]

let read_ici () =
  List.map
    (fun n -> (n, Obs.Registry.count (Obs.Registry.counter Obs.Registry.default n)))
    ici_counters

let diff_counts a b = List.map2 (fun (n, x) (_, y) -> (n, x - y)) a b

(* The ici.* counts and ratios from the counters above. *)
let ici_metrics count =
  let filtered =
    count "taut.constant_hits" + count "taut.complement_hits"
    + count "taut.pairwise_tautologies"
  in
  [
    ("ici.pairs_scored", float_of_int (count "policy.pairs_scored"));
    ( "ici.pair_cache_hit_ratio",
      Stats.ratio (count "policy.pair_cache_hits")
        (count "policy.pair_cache_hits" + count "policy.pairs_scored") );
    ("ici.merges", float_of_int (count "policy.merges"));
    ( "ici.restrict_win_ratio",
      Stats.ratio (count "policy.restrict_wins")
        (count "policy.restrict_wins" + count "policy.restrict_losses") );
    ("ici.taut_expansions", float_of_int (count "taut.expansions"));
    ("ici.taut_filter_ratio", Stats.ratio filtered (filtered + count "taut.expansions"));
  ]

(* --- the verdict gate ------------------------------------------------ *)

let verdict_name = function Proved -> "proved" | Violated -> "violated"

(* [None] when the report carries the expected verdict and, for a
   violation, its trace replays concretely on the model. *)
let check_report expect model (r : Mc.Report.t) =
  match (expect, r.Mc.Report.status) with
  | Proved, Mc.Report.Proved -> None
  | Violated, Mc.Report.Violated trace -> (
    match Fuzz.Oracle.replay model trace with
    | Ok () -> None
    | Error why -> Some ("trace replay failed: " ^ why))
  | _, Mc.Report.Exceeded why -> Some ("budget exceeded: " ^ why)
  | _, _ ->
    Some
      (Printf.sprintf "expected %s, got %s" (verdict_name expect)
         (Mc.Report.status_string r))

(* --- one measured run ------------------------------------------------ *)

type outcome = {
  job : job;
  build_s : float;
  solve_s : float;
  failure : string option;
  iterations : int;
  peak_live : int;
  k : kernel;  (* over the solve only, model construction excluded *)
  alloc_bytes : float;
  ici : (string * int) list;
  properties : int;  (* batch jobs only *)
  shared : int;  (* batch jobs only: pooled invariants injected *)
  encode_s : float;  (* rendering the result event icvd would send *)
  decode_s : float;  (* parsing the submit line icvd would receive *)
  rss_mb : float;  (* peak RSS of the process that ran the job *)
}

let now = Obs.Clock.now

(* Peak resident set of a process ("self" or a pid), in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ())
    in
    let v = find () in
    close_in ic;
    v

(* Build, collect garbage, then time the solve alone.  Checking the
   verdict, replaying traces and the protocol round trip happen after
   the clock stops. *)
let run job =
  Obs.Tracer.with_attrs [ ("job", Obs.Json.String job.name) ] @@ fun () ->
  Gc.full_major ();
  let t0 = now () in
  let model = Spans.bench "bench.build" (fun () -> Srv.Jobspec.build job.spec) in
  let build_s = now () -. t0 in
  Gc.full_major ();
  let man = Mc.Model.man model in
  let k0 = kernel man and c0 = read_ici () and a0 = Gc.allocated_bytes () in
  let t1 = now () in
  let result =
    Spans.bench "bench.solve" (fun () ->
        match job.kind with
        | Solve meth -> `Single (Mc.Runner.run ~limits meth model)
        | Batch ->
          `Batch
            (Mc.Batch.run ~limits ~meth:Mc.Runner.Xici ~speculate:false
               ~domains:1 model (Mc.Batch.of_goods model)))
  in
  let solve_s = now () -. t1 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let k = kernel_diff (kernel man) k0 and ici = diff_counts (read_ici ()) c0 in
  let reports =
    match result with
    | `Single r -> [ r ]
    | `Batch res -> List.map (fun (it : Mc.Batch.item) -> it.Mc.Batch.report) res.Mc.Batch.items
  in
  let failure =
    Spans.bench "bench.check" (fun () ->
        List.find_map (check_report job.expect model) reports)
  in
  let report = List.hd reports in
  let t2 = now () in
  let event =
    match result with
    | `Single r ->
      Srv.Protocol.result ~id:job.name ~trace_id:job.name ~queue_s:0.0
        ~e2e_s:solve_s ~worker:0 ~resumed_at:0 r
    | `Batch res ->
      Srv.Protocol.batch_result ~id:job.name ~trace_id:job.name ~queue_s:0.0
        ~e2e_s:solve_s ~worker:0 res report
  in
  ignore (Srv.Protocol.to_line event);
  let encode_s = now () -. t2 in
  let line = submit_line ~id:job.name job.spec in
  let t3 = now () in
  ignore (Srv.Protocol.request_of_line line);
  let decode_s = now () -. t3 in
  let properties, shared =
    match result with
    | `Single _ -> (0, 0)
    | `Batch res ->
      (List.length res.Mc.Batch.items, res.Mc.Batch.stats.Mc.Batch.invariants_shared)
  in
  {
    job;
    build_s;
    solve_s;
    failure;
    iterations = List.fold_left (fun a (r : Mc.Report.t) -> a + r.Mc.Report.iterations) 0 reports;
    peak_live = Bdd.peak_live_nodes man;
    k;
    alloc_bytes;
    ici;
    properties;
    shared;
    encode_s;
    decode_s;
    rss_mb = vm_hwm_mb "self";
  }

(* --- job processes ------------------------------------------------------ *)

(* One-shot jobs run in processes forked from a zygote: a process forked
   before any measurement that does nothing but fork on request.  Every
   job therefore starts from the same heap whatever the benchmark has
   done since, so its garbage collector runs at the same points, and
   counts that depend on when dead nodes are reclaimed (nodes created
   again, cache evictions, peak live nodes) repeat exactly.  The caller
   must not have spawned domains. *)
type 'a zygote = { request : Unix.file_descr; results : in_channel; pid : int }

(* A zygote that runs [tasks.(i)] in a fresh child on request [i]. *)
let zygote (tasks : (unit -> 'a) array) : 'a zygote =
  flush stdout;
  flush stderr;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close res_r;
    let died = Marshal.to_string (Error "job process died" : ('a, string) result) [] in
    let byte = Bytes.create 1 in
    let rec serve () =
      if Unix.read req_r byte 0 1 = 0 then Unix._exit 0;
      (match Unix.fork () with
      | 0 ->
        let v =
          match tasks.(Char.code (Bytes.get byte 0)) () with
          | v -> Ok v
          | exception e -> Error (Printexc.to_string e)
        in
        let oc = Unix.out_channel_of_descr res_w in
        Marshal.to_channel oc (v : ('a, string) result) [];
        close_out oc;
        Unix._exit 0
      | child -> (
        match Unix.waitpid [] child with
        | _, Unix.WEXITED 0 -> ()
        | _ -> ignore (Unix.write_substring res_w died 0 (String.length died))));
      serve ()
    in
    serve ()
  | pid ->
    Unix.close req_r;
    Unix.close res_w;
    { request = req_w; results = Unix.in_channel_of_descr res_r; pid }

let call z i =
  ignore (Unix.write z.request (Bytes.make 1 (Char.chr i)) 0 1);
  match (Marshal.from_channel z.results : ('a, string) result) with
  | Ok v -> v
  | Error why -> failwith why

let stop z =
  Unix.close z.request;
  close_in z.results;
  ignore (Unix.waitpid [] z.pid)

(* Freeze and thaw a model once each, as icvd does for every distinct
   declaration; (freeze_s, thaw_s). *)
let freeze_thaw spec =
  let model = Srv.Jobspec.build spec in
  let t0 = now () in
  let frozen = Spans.bench "bench.freeze" (fun () -> Mc.Parallel.freeze model) in
  let t1 = now () in
  ignore (Spans.bench "bench.thaw" (fun () -> Mc.Parallel.thaw frozen));
  (t1 -. t0, now () -. t1)
