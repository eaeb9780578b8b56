(* icv: command-line driver for the implicitly-conjoined-BDD verifier.

   Runs any of the paper's example models (or their planted-bug
   variants) under any verification method, prints the paper-style
   result row, and optionally a decoded counterexample trace.

     icv --model fifo --depth 10 --method xici
     icv --model cpu --regs 2 --width 2 --bug --method xici --trace
     icv --model filter --depth 8 --method all *)

open Cmdliner

let build_model name depth width procs regs bound assisted bug =
  match String.lowercase_ascii name with
  | "fifo" ->
    Models.Typed_fifo.make { Models.Typed_fifo.depth; width; bound; bug }
  | "network" -> Models.Network.make { Models.Network.procs; bug }
  | "filter" ->
    Models.Avg_filter.make
      { Models.Avg_filter.depth; sample_width = width; assisted; bug }
  | "cpu" ->
    Models.Pipeline_cpu.make { Models.Pipeline_cpu.regs; width; assisted; bug }
  | "abp" ->
    Models.Abp.make { Models.Abp.width; bug }
  | other -> failwith (Printf.sprintf "unknown model %S" other)

let print_trace model trace =
  let man = Mc.Model.man model in
  let levels = Fsm.Space.current_levels model.Mc.Model.space in
  List.iteri
    (fun i state ->
      let bits =
        List.filter_map
          (fun l ->
            if state.(l) then Some (Bdd.var_name man l) else None)
          levels
      in
      Format.printf "  step %d: {%s}@." i
        (if bits = [] then "all zero" else String.concat ", " bits))
    trace

let parse_fallback spec =
  List.map
    (fun s ->
      match Mc.Runner.of_name (String.trim s) with
      | Some m -> m
      | None -> failwith (Printf.sprintf "unknown fallback method %S" s))
    (String.split_on_char ',' spec)

(* Install a structured tracer writing to [path] for the duration of
   [f]; the returned cleanup closes the sink (the Chrome exporter needs
   the closing bracket even when the run dies by exception). *)
let with_tracing trace_out trace_format f =
  match trace_out with
  | None -> f ()
  | Some path ->
    let tracer = Obs.Tracer.create () in
    let oc = open_out path in
    let sink =
      match trace_format with
      | `Jsonl -> Obs.Tracer.jsonl_sink tracer oc
      | `Chrome -> Obs.Tracer.chrome_sink tracer oc
    in
    Obs.Tracer.add_sink tracer sink;
    Obs.Tracer.set_global tracer;
    Fun.protect
      ~finally:(fun () ->
        Obs.Tracer.flush tracer;
        close_out_noerr oc;
        Obs.Tracer.set_global Obs.Tracer.disabled)
      f

let run_checked model_name depth width procs regs bound assisted bug meth_name
    trace max_seconds max_live grow_threshold parallel batch props
    portfolio resilient retries budget_escalation max_created checkpoint checkpoint_every
    resume fallback stats trace_out trace_format verbose =
  (* Only the portfolio and batch strategies run on worker domains;
     anything else would leave the extra domains silently idle. *)
  if parallel >= 2 && not (portfolio || batch) then
    failwith "--parallel N (N >= 2) needs --portfolio or --batch";
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let model = build_model model_name depth width procs regs bound assisted bug in
  let limits man =
    Mc.Limits.start ~max_seconds ~max_live_nodes:max_live
      ?max_created_nodes:max_created ~max_iterations:200 man
  in
  let xici_cfg = { Ici.Policy.default with grow_threshold } in
  let show_trace label r =
    match r.Mc.Report.status with
    | Mc.Report.Violated tr when trace ->
      let validated =
        Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init
          ~good:
            (Ici.Clist.of_list (Mc.Model.man model) (Mc.Model.property model))
          tr
      in
      Format.printf "counterexample from %s (%s):@." label
        (if validated then "validated" else "NOT VALID");
      print_trace model tr
    | Mc.Report.Violated _ | Mc.Report.Proved | Mc.Report.Exceeded _ -> ()
  in
  let strategies () =
    if batch then begin
      let meth =
        match Mc.Runner.of_name meth_name with
        | Some m -> m
        | None ->
          failwith
            (Printf.sprintf "--batch needs a single --method, not %S" meth_name)
      in
      let all_props = Mc.Batch.of_goods model in
      let find s =
        let s = String.trim s in
        let found =
          match int_of_string_opt s with
          | Some i -> List.nth_opt all_props i
          | None -> List.find_opt (fun p -> p.Mc.Batch.pname = s) all_props
        in
        match found with
        | Some p -> p
        | None ->
          failwith
            (Printf.sprintf
               "unknown property %S (the model has %d conjuncts, p0..p%d)" s
               (List.length all_props)
               (List.length all_props - 1))
      in
      let props = if props = [] then all_props else List.map find props in
      [ Mc.Job.Batch { meth; props; domains = max 1 parallel } ]
    end
    else if portfolio then [ Mc.Job.Portfolio { domains = max 2 parallel } ]
    else if String.lowercase_ascii meth_name = "all" then
      List.map (fun m -> Mc.Job.Method m) Mc.Runner.all
    else
      match Mc.Runner.of_name meth_name with
      | Some m -> [ Mc.Job.Method m ]
      | None -> failwith (Printf.sprintf "unknown method %S" meth_name)
  in
  (* One attempt per strategy; the batch and portfolio strategies print
     their per-property or per-config detail above the verdict. *)
  let print_attempt strategy (r : Mc.Job.result) =
    match (r.Mc.Job.batch, r.Mc.Job.portfolio) with
    | Some res, _ ->
      Format.printf "batch: %d propertie(s) on %d domain(s), %.2fs wall@."
        (List.length res.Mc.Batch.items) res.Mc.Batch.domains_used
        res.Mc.Batch.wall_time_s;
      Format.printf "%s@." Mc.Report.header;
      List.iter
        (fun (it : Mc.Batch.item) ->
          Format.printf "%a@." Mc.Report.pp_row it.Mc.Batch.report;
          show_trace it.Mc.Batch.prop.Mc.Batch.pname it.Mc.Batch.report)
        res.Mc.Batch.items;
      Format.printf "invariants shared %d@."
        res.Mc.Batch.stats.Mc.Batch.invariants_shared
    | None, Some res ->
      Format.printf "portfolio: %d configs on %d domains, %.2fs wall@."
        (List.length res.Mc.Parallel.reports)
        res.Mc.Parallel.domains_used res.Mc.Parallel.wall_time_s;
      Format.printf "%s@." Mc.Report.header;
      List.iter
        (fun (_, r) -> Format.printf "%a@." Mc.Report.pp_row r)
        res.Mc.Parallel.reports;
      (match res.Mc.Parallel.winner with
      | Some (c, r) ->
        Format.printf "winner: %s (%s)@." c.Mc.Parallel.label
          (Mc.Report.status_string r);
        show_trace c.Mc.Parallel.label r
      | None -> Format.printf "no configuration decided@.")
    | None, None ->
      (* --resume is opportunistic: an unusable snapshot means a cold
         start with a warning, not a failed run. *)
      (match (resume, strategy) with
      | Some path, Mc.Job.Method Mc.Runner.Xici when r.Mc.Job.resumed_at = None
        ->
        Format.eprintf "icv: checkpoint %s missing or unusable; starting cold@."
          path
      | _ -> ());
      Format.printf "%a@." Mc.Report.pp_row r.Mc.Job.report;
      show_trace r.Mc.Job.report.Mc.Report.method_name r.Mc.Job.report
  in
  Format.printf "model: %s@." model.Mc.Model.name;
  with_tracing trace_out trace_format (fun () ->
  if (resilient || fallback <> "") && not (batch || portfolio) then begin
    (* The escalating-budget, falling-back ladder, with the per-attempt
       log in place of a single result row. *)
    let meths =
      if fallback = "" then
        match Mc.Runner.of_name meth_name with
        | Some m when m <> Mc.Runner.Xici -> m :: Mc.Job.default_fallback
        | _ -> Mc.Job.default_fallback
      else parse_fallback fallback
    in
    let outcome =
      Mc.Job.run ~retries ~budget_escalation ?max_created_nodes:max_created
        ~max_seconds ~max_live_nodes:max_live ~max_iterations:200
        ~fallback:meths ?checkpoint ~xici_cfg model
    in
    Format.printf "%s@." Mc.Report.header;
    Format.printf "@[<v>%a@]@." Mc.Job.pp_outcome outcome;
    show_trace outcome.Mc.Job.final.Mc.Report.method_name
      outcome.Mc.Job.final
  end
  else begin
    let strategies = strategies () in
    if not (batch || portfolio) then Format.printf "%s@." Mc.Report.header;
    List.iter
      (fun strategy ->
        print_attempt strategy
          (Mc.Job.attempt ~limits ~xici_cfg ?checkpoint ~checkpoint_every
             ?resume strategy model))
      strategies
  end);
  if stats then Mc.Telemetry.print_summary (Mc.Model.man model)

let run model_name depth width procs regs bound assisted bug meth_name trace
    max_seconds max_live grow_threshold parallel batch props
    portfolio resilient retries budget_escalation max_created checkpoint
    checkpoint_every resume fallback stats trace_out trace_format verbose =
  try
    run_checked model_name depth width procs regs bound assisted bug meth_name
      trace max_seconds max_live grow_threshold parallel batch props
      portfolio resilient retries budget_escalation max_created checkpoint
      checkpoint_every resume fallback stats trace_out trace_format verbose
  with
  | Failure msg
  | Sys_error msg
  | Invalid_argument msg
  | Mc.Checkpoint.Corrupt msg ->
    (* User errors (unknown model/method, bad flag values, missing or
       corrupt checkpoint files), not internal ones: print and fail. *)
    Format.eprintf "icv: %s@." msg;
    exit 2

(* --- explain: slow-job post-mortem from a daemon trace file ----------- *)

(* Rebuild the span tree of a per-job JSONL trace (icvd jobs submitted
   with "trace": true) from timestamp containment: spans are emitted at
   close, so the file order is children-first, but (ts ascending, dur
   descending) puts every parent before its children and a stack walk
   recovers the nesting.  Domains are kept separate — a portfolio
   child's spans root under their own domain — and a retried job's
   attempts share the file and the timeline, so each attempt's phases
   form their own roots. *)

type espan = {
  e_name : string;
  e_dom : int;
  e_ts : float;  (* us, relative to the job's admission *)
  e_dur : float;
  e_args : (string * Obs.Json.t) list;
  mutable e_children : espan list;  (* built newest-first, reversed later *)
  mutable e_self : float;
}

let parse_trace_spans path =
  let ic = open_in path in
  let spans = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match Obs.Json.of_string line with
            | exception Obs.Json.Parse_error why ->
              failwith (Printf.sprintf "%s: bad trace line: %s" path why)
            | j when
                Option.bind (Obs.Json.member "type" j) Obs.Json.to_str
                = Some "span" ->
              let str f = Option.bind (Obs.Json.member f j) Obs.Json.to_str in
              let num f =
                Option.value ~default:0.0
                  (Option.bind (Obs.Json.member f j) Obs.Json.to_float)
              in
              let args =
                match Obs.Json.member "args" j with
                | Some (Obs.Json.Obj kvs) -> kvs
                | _ -> []
              in
              spans :=
                {
                  e_name = Option.value ~default:"?" (str "name");
                  e_dom =
                    Option.value ~default:0
                      (Option.bind (Obs.Json.member "dom" j) Obs.Json.to_int);
                  e_ts = num "ts_us";
                  e_dur = num "dur_us";
                  e_args = args;
                  e_children = [];
                  e_self = 0.0;
                }
                :: !spans
            | _ -> ()
        done
      with End_of_file -> ());
  List.rev !spans

let build_forest spans =
  let doms = List.sort_uniq compare (List.map (fun s -> s.e_dom) spans) in
  let forest = ref [] in
  List.iter
    (fun dom ->
      let mine = List.filter (fun s -> s.e_dom = dom) spans in
      let ordered =
        List.sort
          (fun a b ->
            match compare a.e_ts b.e_ts with
            | 0 -> compare b.e_dur a.e_dur
            | c -> c)
          mine
      in
      (* 1us of float fuzz: a child closing on its parent's boundary
         must still nest. *)
      let contains p s =
        s.e_ts >= p.e_ts -. 1.0 && s.e_ts +. s.e_dur <= p.e_ts +. p.e_dur +. 1.0
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          while !stack <> [] && not (contains (List.hd !stack) s) do
            stack := List.tl !stack
          done;
          (match !stack with
          | p :: _ -> p.e_children <- s :: p.e_children
          | [] -> forest := s :: !forest);
          stack := s :: !stack)
        ordered)
    doms;
  let rec finish s =
    s.e_children <- List.rev s.e_children;
    List.iter finish s.e_children;
    s.e_self <-
      Float.max 0.0
        (s.e_dur
        -. List.fold_left (fun acc c -> acc +. c.e_dur) 0.0 s.e_children)
  in
  let roots =
    List.sort
      (fun a b ->
        match compare a.e_dom b.e_dom with
        | 0 -> compare a.e_ts b.e_ts
        | c -> c)
      !forest
  in
  List.iter finish roots;
  roots

let human_count n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 1_000 then Printf.sprintf "%.1fk" (float_of_int n /. 1e3)
  else string_of_int n

(* Render the forest with same-named siblings merged (a fixpoint trace
   has one xici.iteration span per iteration; the tree view wants one
   line saying "×12", not twelve lines), self-time per line, and
   percentages against the whole trace. *)
let render_forest roots ~total =
  let buf = Buffer.create 4096 in
  let pct v = if total <= 0.0 then 0.0 else 100.0 *. v /. total in
  let rec render indent nodes =
    (* group same-named siblings, preserving first-appearance order *)
    let order = ref [] in
    let groups : (string, espan list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt groups s.e_name with
        | Some g -> g := s :: !g
        | None ->
          Hashtbl.add groups s.e_name (ref [ s ]);
          order := s.e_name :: !order)
      nodes;
    List.iter
      (fun name ->
        let group = List.rev !(Hashtbl.find groups name) in
        let n = List.length group in
        let dur = List.fold_left (fun a s -> a +. s.e_dur) 0.0 group in
        let self = List.fold_left (fun a s -> a +. s.e_self) 0.0 group in
        let label = if n > 1 then Printf.sprintf "%s ×%d" name n else name in
        Buffer.add_string buf
          (Printf.sprintf "%s%-*s %9.1fms  self %9.1fms  %5.1f%%\n"
             (String.make indent ' ')
             (max 1 (34 - indent))
             label (dur /. 1e3) (self /. 1e3) (pct self));
        render (indent + 2) (List.concat_map (fun s -> s.e_children) group))
      (List.rev !order)
  in
  render 2 roots;
  Buffer.contents buf

(* The dominant phase: the span name with the largest aggregate
   self-time, located at its single heaviest occurrence — "83% in
   back_image at iteration 12, live nodes 9.1M" is the line that tells
   you where a slow job went. *)
let dominant_phase roots ~total =
  let agg : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let rec walk s =
    Hashtbl.replace agg s.e_name
      (Option.value ~default:0.0 (Hashtbl.find_opt agg s.e_name) +. s.e_self);
    List.iter walk s.e_children
  in
  List.iter walk roots;
  let best =
    Hashtbl.fold
      (fun name self acc ->
        match acc with
        | Some (_, s) when s >= self -> acc
        | _ -> Some (name, self))
      agg None
  in
  match best with
  | None -> "empty trace"
  | Some (name, self) ->
    (* heaviest single occurrence, with its enclosing iteration context *)
    let heaviest = ref None in
    let rec locate iter_ctx s =
      let iter_ctx =
        if s.e_name = "xici.iteration" then Some s.e_args else iter_ctx
      in
      (if s.e_name = name then
         match !heaviest with
         | Some (h, _) when h.e_self >= s.e_self -> ()
         | _ -> heaviest := Some (s, iter_ctx));
      List.iter (locate iter_ctx) s.e_children
    in
    List.iter (locate None) roots;
    let where =
      match !heaviest with
      | Some (_, Some args) ->
        let iter =
          Option.bind (List.assoc_opt "iteration" args) Obs.Json.to_int
        in
        let live =
          Option.bind (List.assoc_opt "live_nodes" args) Obs.Json.to_int
        in
        (match (iter, live) with
        | Some i, Some l ->
          Printf.sprintf " at iteration %d, live nodes %s" i (human_count l)
        | Some i, None -> Printf.sprintf " at iteration %d" i
        | _ -> "")
      | _ -> ""
    in
    let p = if total <= 0.0 then 0.0 else 100.0 *. self /. total in
    Printf.sprintf "%.0f%% in %s%s" p name where

let run_explain path =
  let spans = parse_trace_spans path in
  if spans = [] then begin
    Format.eprintf "icv: %s contains no spans@." path;
    exit 2
  end;
  let roots = build_forest spans in
  let total = List.fold_left (fun a s -> a +. s.e_dur) 0.0 roots in
  let arg_of f s = Option.bind (List.assoc_opt f s.e_args) Obs.Json.to_str in
  let first_some f =
    List.find_map f spans
  in
  let trace_id = Option.value ~default:"?" (first_some (arg_of "trace_id")) in
  let job = Option.value ~default:"?" (first_some (arg_of "job")) in
  let attempts =
    List.sort_uniq compare
      (List.filter_map
         (fun s -> Option.bind (List.assoc_opt "attempt" s.e_args) Obs.Json.to_int)
         spans)
  in
  Format.printf "trace %s: job %s, trace id %s, %d span(s), %d attempt(s), %.1fms total@."
    (Filename.basename path) job trace_id (List.length spans)
    (max 1 (List.length attempts))
    (total /. 1e3);
  print_string (render_forest roots ~total);
  Format.printf "dominant phase: %s@." (dominant_phase roots ~total)

let run_explain_checked path =
  try run_explain path with
  | Failure msg | Sys_error msg ->
    Format.eprintf "icv: %s@." msg;
    exit 2

let () =
  let model =
    Arg.(
      value & opt string "fifo"
      & info [ "model" ] ~doc:"Model: fifo, network, filter, cpu or abp.")
  in
  let depth =
    Arg.(value & opt int 5 & info [ "depth" ] ~doc:"FIFO/filter depth.")
  in
  let width =
    Arg.(
      value & opt int 8
      & info [ "width" ] ~doc:"Item/sample/datapath width in bits.")
  in
  let procs =
    Arg.(value & opt int 4 & info [ "procs" ] ~doc:"Network processors.")
  in
  let regs =
    Arg.(value & opt int 2 & info [ "regs" ] ~doc:"Processor registers.")
  in
  let bound =
    Arg.(value & opt int 128 & info [ "bound" ] ~doc:"FIFO type bound.")
  in
  let assisted =
    Arg.(
      value & flag
      & info [ "assisted" ] ~doc:"Add user-supplied assisting invariants.")
  in
  let bug =
    Arg.(value & flag & info [ "bug" ] ~doc:"Use the planted-bug variant.")
  in
  let meth =
    Arg.(
      value & opt string "xici"
      & info [ "method" ] ~doc:"fwd, bkwd, fd, ici, xici, idi, explicit or all.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print a decoded counterexample trace.")
  in
  let max_seconds =
    Arg.(value & opt float 600.0 & info [ "max-seconds" ] ~doc:"Time budget.")
  in
  let max_live =
    Arg.(
      value & opt int 10_000_000
      & info [ "max-live-nodes" ] ~doc:"Live BDD node budget.")
  in
  let grow =
    Arg.(
      value & opt float 1.5
      & info [ "grow-threshold" ] ~doc:"XICI GrowThreshold (Figure 1).")
  in
  let parallel =
    Arg.(
      value & opt int 1
      & info [ "parallel" ] ~docv:"N"
          ~doc:
            "Worker domains.  With --portfolio, race configurations on \
             $(docv) domains; with --batch, schedule the properties onto \
             $(docv) domains.  Every other mode is sequential, so $(docv) \
             >= 2 without one of those two flags is an error.")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Verify the model's property conjuncts as separate properties in \
             one batch, in order: they share image computations, and every \
             proved property and derived XICI invariant joins a pool that \
             assists the later ones.  With --parallel N, properties are \
             scheduled round-robin onto $(i,N) worker domains, each with \
             its own pool.")
  in
  let props =
    Arg.(
      value & opt_all string []
      & info [ "prop" ] ~docv:"P"
          ~doc:
            "Verify only property $(docv) (an index or a name like p2; \
             repeatable).  Only meaningful with --batch; default: all \
             conjuncts.")
  in
  let portfolio =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Race the default configuration portfolio (methods x policies x \
             termination tests) on worker domains; the first sound verdict \
             wins and the losers are cancelled.")
  in
  let resilient =
    Arg.(
      value & flag
      & info [ "resilient" ]
          ~doc:
            "Run the job ladder: escalating-budget retries and method \
             fallback, printing the per-attempt log.")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~doc:"Attempts per method (resilient mode).")
  in
  let budget_escalation =
    Arg.(
      value & opt float 2.0
      & info [ "budget-escalation" ]
          ~doc:"Node-budget multiplier between attempts (resilient mode).")
  in
  let max_created =
    Arg.(
      value & opt (some int) None
      & info [ "max-created-nodes" ]
          ~doc:
            "Created-node budget of each run; with $(b,--resilient) or \
             $(b,--fallback), the first attempt's budget, escalated \
             between attempts.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Snapshot XICI fixpoint state to $(docv) every \
             --checkpoint-every iterations; resilient retries resume from \
             it.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~doc:"Iterations between checkpoints.")
  in
  let resume =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:"Resume an XICI run from a checkpoint written by --checkpoint.")
  in
  let fallback =
    Arg.(
      value & opt string ""
      & info [ "fallback" ] ~docv:"M1,M2,..."
          ~doc:
            "Fallback methods for resilient mode (comma-separated names, \
             tried in order).  Implies --resilient.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the post-run telemetry summary: top registry counters \
             (BDD cache hit rates, policy and tautology filter breakdowns) \
             and the per-iteration table.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a structured execution trace (fixpoint iterations, \
             policy phases, tautology checks) to $(docv).")
  in
  let trace_format =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Trace format: $(b,jsonl) (one event per line) or $(b,chrome) \
             (trace_event JSON for chrome://tracing / Perfetto).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Per-iteration debug logging.")
  in
  let verify_term =
    Term.(
      const run $ model $ depth $ width $ procs $ regs $ bound $ assisted
      $ bug $ meth $ trace $ max_seconds $ max_live $ grow $ parallel
      $ batch $ props $ portfolio $ resilient
      $ retries $ budget_escalation $ max_created $ checkpoint
      $ checkpoint_every $ resume $ fallback $ stats $ trace_out
      $ trace_format $ verbose)
  in
  let explain_cmd =
    (* a plain string, not Arg.file: a missing path must follow the
       icv error contract (one "icv: ..." line, exit 2) instead of
       cmdliner's usage dump *)
    let file =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"TRACE"
            ~doc:
              "A per-job JSONL span file written by icvd for a job \
               submitted with \"trace\": true.")
    in
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Render a daemon job trace as a span tree with self-times and \
            name the dominant phase (the slow-job post-mortem).")
      Term.(const run_explain_checked $ file)
  in
  let cmd =
    Cmd.group ~default:verify_term
      (Cmd.info "icv" ~doc:"Verify the paper's example models")
      [ explain_cmd ]
  in
  exit (Cmd.eval cmd)
