(* One way to run a verification job: a strategy, one attempt at it,
   and the escalate-then-fall-back ladder of attempts.  Every driver
   (icv, the icvd pool, bench, the fuzz oracle) comes through here, so
   a budget exception escaping a method becomes an Exceeded report in
   exactly one place. *)

type strategy =
  | Method of Runner.meth
  | Portfolio of { domains : int }
  | Batch of { meth : Runner.meth; props : Batch.property list; domains : int }

(* The method column of a report that stands for the whole attempt. *)
let strategy_name = function
  | Method m -> Runner.name m
  | Portfolio _ -> "portfolio"
  | Batch { meth; props; _ } ->
    Printf.sprintf "batch[%d]:%s" (List.length props) (Runner.name meth)

type result = {
  report : Report.t;
  resumed_at : int option;
  batch : Batch.result option;
  portfolio : Parallel.result option;
}

(* One wire verdict for a whole batch: the first violated item's report
   if any (it carries the trace), else the first exceeded, else the
   (proved) first item's.  [None] only for an empty batch. *)
let batch_verdict (res : Batch.result) =
  let pick p =
    List.find_opt (fun (it : Batch.item) -> p it.Batch.report.Report.status)
      res.Batch.items
  in
  match
    ( pick (function Report.Violated _ -> true | _ -> false),
      pick (function Report.Exceeded _ -> true | _ -> false),
      res.Batch.items )
  with
  | Some it, _, _ | None, Some it, _ | None, None, it :: _ ->
    Some it.Batch.report
  | None, None, [] -> None

let attempt ?limits ?xici_cfg ?termination ?checkpoint ?checkpoint_every
    ?resume ?should_cancel ?on_progress ?iter_sink strategy model =
  let man = Model.man model in
  (* A budget abort that escaped the method (a fault hook firing outside
     its Fixpoint frame) still reports what the attempt consumed. *)
  let frame = Fixpoint.start ~meth:(strategy_name strategy) model in
  let exceeded why = Fixpoint.report frame (Report.Exceeded why) in
  let only report =
    { report; resumed_at = None; batch = None; portfolio = None }
  in
  try
    match strategy with
    | Method meth ->
      (* A corrupt checkpoint degrades to a cold start inside
         [load_opt] itself. *)
      let resume_from =
        match (meth, resume) with
        | Runner.Xici, Some path -> Checkpoint.load_opt man path
        | _ -> None
      in
      let report =
        Runner.run ?limits ?xici_cfg ?termination ?checkpoint_path:checkpoint
          ?checkpoint_every ?resume_from meth model
      in
      let resumed_at =
        Option.map (fun cp -> cp.Checkpoint.iterations) resume_from
      in
      { (only report) with resumed_at }
    | Portfolio { domains } ->
      let res =
        Parallel.portfolio ~domains ?limits ?should_cancel ?on_progress
          ?iter_sink model
      in
      let report =
        match (res.Parallel.winner, res.Parallel.reports) with
        | Some (_, r), _ | None, (_, r) :: _ -> r
        | None, [] -> exceeded "empty portfolio"
      in
      { (only report) with portfolio = Some res }
    | Batch { meth; props; domains } ->
      let res =
        Batch.run ?limits ~meth ?xici_cfg ?termination ~domains model props
      in
      let report =
        match batch_verdict res with
        | Some r -> Report.relabel r ~method_name:(strategy_name strategy)
        | None -> exceeded "empty batch"
      in
      { (only report) with batch = Some res }
  with
  | Limits.Exceeded why -> only (exceeded why)
  | Bdd.Node_budget_exhausted -> only (exceeded "node budget exhausted")

(* --- the escalate-then-fall-back ladder ------------------------------ *)

type step = {
  meth : Runner.meth;
  index : int;
  max_created_nodes : int option;
  resumed_at : int option;
  report : Report.t;
}

type outcome = {
  final : Report.t;
  steps : step list;
  total_time_s : float;
  total_nodes_created : int;
}

let default_fallback = [ Runner.Xici; Runner.Ici; Runner.Fd ]

let step_label s =
  let budget =
    match s.max_created_nodes with
    | Some n when n >= 10_000 -> Printf.sprintf "/%dk" (n / 1000)
    | Some n -> Printf.sprintf "/%d" n
    | None -> ""
  in
  Printf.sprintf "%s#%d%s" (Runner.name s.meth) s.index budget

let pp_outcome fmt o =
  List.iter
    (fun s ->
      Format.fprintf fmt "%a@," Report.pp_row
        (Report.relabel s.report ~method_name:(step_label s)))
    o.steps;
  Format.fprintf fmt "%-8s %8.2fs %5s %10d %8s   %s" "total" o.total_time_s
    "-" o.total_nodes_created "-"
    (Report.status_string o.final)

let run ?(retries = 3) ?(budget_escalation = 2.0) ?max_created_nodes
    ?max_seconds ?max_live_nodes ?max_iterations ?(fallback = default_fallback)
    ?checkpoint ?xici_cfg model =
  if fallback = [] then invalid_arg "Job.run: empty fallback list";
  if retries < 1 then invalid_arg "Job.run: retries < 1";
  if budget_escalation < 1.0 then invalid_arg "Job.run: escalation < 1.0";
  let man = Model.man model in
  let started = Monotonic.now () in
  let first_baseline = Bdd.created_nodes man in
  let steps = ref [] in
  let run_step meth budget =
    let limits m =
      Limits.start ?max_created_nodes:budget ?max_seconds ?max_live_nodes
        ?max_iterations m
    in
    let r =
      attempt ~limits ?xici_cfg ?checkpoint ?resume:checkpoint (Method meth)
        model
    in
    let s =
      {
        meth;
        index = List.length !steps + 1;
        max_created_nodes = budget;
        resumed_at = r.resumed_at;
        report = r.report;
      }
    in
    steps := s :: !steps;
    Log.attempt ~label:(step_label s) ~detail:(Report.status_string r.report);
    r.report
  in
  let escalate budget =
    Option.map
      (fun b ->
        max (b + 1) (int_of_float (float_of_int b *. budget_escalation)))
      budget
  in
  let rec try_method meth budget attempt_no =
    let report = run_step meth budget in
    if Report.decided report then Some report
    else if
      (* Without a node budget there is nothing to escalate, and an
         identical retry would fail identically -- unless a checkpoint
         lets XICI continue past where the last attempt died. *)
      attempt_no < retries
      && (budget <> None || (meth = Runner.Xici && checkpoint <> None))
    then try_method meth (escalate budget) (attempt_no + 1)
    else None
  in
  let rec fall_back = function
    | [] -> (List.hd !steps).report
    | meth :: rest -> (
      match try_method meth max_created_nodes 1 with
      | Some report -> report
      | None -> fall_back rest)
  in
  let final = fall_back fallback in
  {
    final;
    steps = List.rev !steps;
    total_time_s = Monotonic.now () -. started;
    total_nodes_created = Bdd.created_nodes man - first_baseline;
  }
