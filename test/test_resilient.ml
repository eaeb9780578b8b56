(* Resilience-layer tests: monotonic clock, budget-guard chaining,
   checkpoint save/load/corruption handling, fault-injected kill +
   resume, and the job driver ([Mc.Job]): one attempt under each
   strategy, escalating budgets and method fallback.

   The vehicle is a 4-bit saturating chain: 0 is a fixed point, any
   nonzero value marches deterministically up to 15 and sticks there.
   Reachable = {0}, so "never 15" holds -- but the backward fixpoint
   must peel one value per iteration, giving a run long enough that
   killing it mid-fixpoint and resuming from its checkpoint is
   observable in the iteration counts. *)

let chain_width = 4
let chain_top = (1 lsl chain_width) - 1

let chain_model ?(start = 0) () =
  let sp = Fsm.Space.create () in
  let w = Fsm.Space.state_word ~name:"c" sp ~width:chain_width in
  let man = Fsm.Space.man sp in
  let c = Fsm.Space.cur_vec sp w in
  let konst k = Bvec.const man ~width:chain_width k in
  let inc = Bvec.add man c (konst 1) in
  let nextv =
    Bvec.mux man
      (Bvec.eq man c (konst 0))
      (konst 0)
      (Bvec.mux man (Bvec.eq man c (konst chain_top)) (konst chain_top) inc)
  in
  let assigns = Array.to_list (Array.mapi (fun i l -> (l, nextv.(i))) w) in
  let trans = Fsm.Trans.make sp ~assigns in
  let init = Bvec.eq man c (konst start) in
  let good = [ Bdd.bnot man (Bvec.eq man c (konst chain_top)) ] in
  Mc.Model.make ~name:"chain" ~space:sp ~trans ~init ~good ()

let limits man =
  Mc.Limits.start ~max_iterations:100 ~max_created_nodes:2_000_000 man

let run_xici ?checkpoint_path ?resume_from model =
  Mc.Xici.run ~limits ?checkpoint_path ?resume_from model

(* A fresh path that does not exist yet (checkpoint saves create it). *)
let temp_path () =
  let path = Filename.temp_file "icv-test" ".ckpt" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let is_exceeded (r : Mc.Report.t) =
  match r.Mc.Report.status with
  | Mc.Report.Exceeded _ -> true
  | Mc.Report.Proved | Mc.Report.Violated _ -> false

(* --- monotonic clock ------------------------------------------------ *)

let test_monotonic () =
  let prev = ref (Mc.Monotonic.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Mc.Monotonic.now_ns () in
    Alcotest.(check bool) "now_ns never decreases" true
      (Int64.compare t !prev >= 0);
    prev := t
  done;
  let t0 = Mc.Monotonic.now () in
  let t1 = Mc.Monotonic.now () in
  Alcotest.(check bool) "now never decreases" true (t1 >= t0)

let test_limits_elapsed () =
  let model = chain_model () in
  let lim = Mc.Limits.start (Mc.Model.man model) in
  let e0 = Mc.Limits.elapsed lim in
  Alcotest.(check bool) "elapsed non-negative" true (e0 >= 0.0);
  Alcotest.(check bool) "elapsed non-decreasing" true
    (Mc.Limits.elapsed lim >= e0)

(* --- with_guard hook chaining and restoration ----------------------- *)

let test_with_guard_restores () =
  let model = chain_model () in
  let man = Mc.Model.man model in
  let calls = ref 0 in
  let outer (_ : Bdd.man) = incr calls in
  Bdd.set_progress_hook man (Some outer);
  (* A zero time budget blows on the first check; busy-wait one clock
     tick so elapsed is strictly positive. *)
  let lim = Mc.Limits.start ~max_seconds:0.0 man in
  let t0 = Mc.Monotonic.now () in
  while Mc.Monotonic.now () <= t0 do () done;
  let raised =
    try
      Mc.Limits.with_guard lim man (fun () ->
          match Bdd.progress_hook man with
          | Some hook ->
            hook man;
            false (* the chained guard hook must have raised *)
          | None -> false)
    with Mc.Limits.Exceeded _ -> true
  in
  Alcotest.(check bool) "guard raised through chained hook" true raised;
  Alcotest.(check bool) "enclosing hook still called" true (!calls >= 1);
  (match Bdd.progress_hook man with
  | Some h ->
    Alcotest.(check bool) "enclosing hook restored after raise" true
      (h == outer)
  | None -> Alcotest.fail "progress hook dropped by with_guard");
  Bdd.set_progress_hook man None

(* --- checkpoint save/load ------------------------------------------- *)

let same_clist a b =
  List.length a = List.length b && List.for_all2 Bdd.equal a b

let test_checkpoint_roundtrip () =
  let model = chain_model () in
  let man = Mc.Model.man model in
  let l0 = Ici.Clist.of_list man (Mc.Model.property model) in
  let init = model.Mc.Model.init in
  let cp =
    {
      Mc.Checkpoint.model_name = model.Mc.Model.name;
      nvars = Bdd.num_vars man;
      iterations = 7;
      cfg = { Ici.Policy.default with grow_threshold = 1.25 };
      termination = `Exact_implication;
      current = Ici.Clist.of_list man (init :: l0);
      gs = [ l0; Ici.Clist.of_list man [ init ] ];
    }
  in
  let path = temp_path () in
  Mc.Checkpoint.save man path cp;
  let cp' = Mc.Checkpoint.load man path in
  cleanup path;
  Alcotest.(check string)
    "model name" cp.Mc.Checkpoint.model_name cp'.Mc.Checkpoint.model_name;
  Alcotest.(check int) "nvars" cp.Mc.Checkpoint.nvars cp'.Mc.Checkpoint.nvars;
  Alcotest.(check int) "iterations" 7 cp'.Mc.Checkpoint.iterations;
  Alcotest.(check bool) "termination" true
    (cp'.Mc.Checkpoint.termination = `Exact_implication);
  Alcotest.(check (float 1e-9))
    "grow threshold" 1.25
    cp'.Mc.Checkpoint.cfg.Ici.Policy.grow_threshold;
  Alcotest.(check bool) "current round-trips" true
    (same_clist cp.Mc.Checkpoint.current cp'.Mc.Checkpoint.current);
  Alcotest.(check bool) "gs round-trips" true
    (List.length cp.Mc.Checkpoint.gs = List.length cp'.Mc.Checkpoint.gs
    && List.for_all2 same_clist cp.Mc.Checkpoint.gs cp'.Mc.Checkpoint.gs);
  (* Compatibility: accepted against its own model, rejected against a
     differently named one. *)
  Mc.Checkpoint.check_compatible cp' model;
  Alcotest.(check bool) "wrong model name rejected" true
    (try
       Mc.Checkpoint.check_compatible
         { cp' with Mc.Checkpoint.model_name = "other" }
         model;
       false
     with Mc.Checkpoint.Corrupt _ -> true)

let test_checkpoint_corruption () =
  let model = chain_model () in
  let man = Mc.Model.man model in
  let path = temp_path () in
  Alcotest.(check bool) "absent file loads as None" true
    (Mc.Checkpoint.load_opt man path = None);
  let l0 = Ici.Clist.of_list man (Mc.Model.property model) in
  Mc.Checkpoint.save man path
    {
      Mc.Checkpoint.model_name = model.Mc.Model.name;
      nvars = Bdd.num_vars man;
      iterations = 2;
      cfg = Ici.Policy.default;
      termination = `Exact_equal;
      current = l0;
      gs = [ l0 ];
    };
  let text = In_channel.with_open_bin path In_channel.input_all in
  cleanup path;
  let corrupt_raises label contents =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents);
    let got =
      try
        ignore (Mc.Checkpoint.load man path);
        false
      with Mc.Checkpoint.Corrupt _ -> true
    in
    cleanup path;
    Alcotest.(check bool) label true got
  in
  let body =
    let i = String.index text '\n' + 1 in
    String.sub text i (String.length text - i)
  in
  corrupt_raises "empty file" "";
  corrupt_raises "bad magic" ("not-a-checkpoint 1\n" ^ body);
  corrupt_raises "unknown version" ("icv-checkpoint 99\n" ^ body);
  corrupt_raises "truncated body"
    (String.sub text 0 (String.length text / 2));
  (* Drop the trailing end marker: the missing-tail case a plain
     [input_line] loop would silently accept. *)
  let no_end =
    let marker = "\nend\n" in
    let n = String.length text - String.length marker in
    String.sub text 0 n
  in
  corrupt_raises "missing end marker" no_end

(* Opportunistic loading must degrade every corruption mode to a cold
   start ([None]), including byte-level truncation anywhere in the
   file -- the shape left by a crash mid-write or a torn copy. *)
let test_load_opt_tolerates_corruption () =
  let model = chain_model () in
  let man = Mc.Model.man model in
  let l0 = Ici.Clist.of_list man (Mc.Model.property model) in
  let path = temp_path () in
  Mc.Checkpoint.save man path
    {
      Mc.Checkpoint.model_name = model.Mc.Model.name;
      nvars = Bdd.num_vars man;
      iterations = 2;
      cfg = Ici.Policy.default;
      termination = `Exact_equal;
      current = l0;
      gs = [ l0 ];
    };
  let text = In_channel.with_open_bin path In_channel.input_all in
  (match Mc.Checkpoint.load_opt man path with
  | Some cp ->
    Alcotest.(check int) "intact file loads" 2 cp.Mc.Checkpoint.iterations
  | None -> Alcotest.fail "intact checkpoint refused");
  let total = String.length text in
  List.iter
    (fun keep ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub text 0 keep));
      Alcotest.(check bool)
        (Printf.sprintf "truncated to %d/%d bytes -> None" keep total)
        true
        (Mc.Checkpoint.load_opt man path = None))
    (* [total - 3] cuts into the trailing "end\n" marker; losing only
       the final newline is benign (the marker line is still intact),
       so the nearest interesting truncation is inside the marker. *)
    [ 0; 1; total / 4; total / 2; total - 3 ];
  cleanup path;
  Alcotest.(check bool) "absent -> None" true
    (Mc.Checkpoint.load_opt man path = None)

(* --- fault-injected kill + checkpoint resume ------------------------ *)

let test_kill_and_resume () =
  (* Cold run: baseline iteration count and node cost. *)
  let cold = chain_model () in
  let man_cold = Mc.Model.man cold in
  let before = Bdd.created_nodes man_cold in
  let r_cold = run_xici cold in
  Alcotest.(check bool) "cold run proves" true (Mc.Report.is_proved r_cold);
  let cold_iters = r_cold.Mc.Report.iterations in
  Alcotest.(check bool) "fixpoint is nontrivial" true (cold_iters >= 3);
  let cost = Bdd.created_nodes man_cold - before in
  (* Same model, fresh manager: inject a fault halfway through the
     node-creation budget the cold run needed, checkpointing every
     iteration. *)
  let victim = chain_model () in
  let man = Mc.Model.man victim in
  let path = temp_path () in
  let kill_at = Bdd.created_nodes man + (cost / 2) in
  Bdd.set_fault_hook man
    (Some
       (fun m ->
         if Bdd.created_nodes m >= kill_at then
           raise (Mc.Limits.Exceeded "injected fault")));
  let r_killed = run_xici ~checkpoint_path:path victim in
  Bdd.set_fault_hook man None;
  (match r_killed.Mc.Report.status with
  | Mc.Report.Exceeded why ->
    Alcotest.(check string) "killed by the injected fault" "injected fault"
      why
  | Mc.Report.Proved | Mc.Report.Violated _ ->
    Alcotest.fail "fault injection did not kill the run");
  (* Resume from the snapshot: the same property is proved with
     strictly fewer post-resume iterations than the cold run needed. *)
  let cp = Mc.Checkpoint.load man path in
  cleanup path;
  Alcotest.(check bool) "checkpoint is mid-fixpoint" true
    (cp.Mc.Checkpoint.iterations >= 1
    && cp.Mc.Checkpoint.iterations < cold_iters);
  let r = run_xici ~resume_from:cp victim in
  Alcotest.(check bool) "resumed run proves" true (Mc.Report.is_proved r);
  Alcotest.(check int) "resume preserves the total iteration count"
    cold_iters r.Mc.Report.iterations;
  let post_resume = r.Mc.Report.iterations - cp.Mc.Checkpoint.iterations in
  Alcotest.(check bool) "strictly fewer post-resume iterations" true
    (post_resume >= 0 && post_resume < cold_iters)

(* --- deadlines fire inside a single image computation ---------------- *)

(* A model whose very first backward pre-image is astronomically large:
   state bits x_i with next-state x_i' = u_i XOR u_{n-1-i}.  Every
   next-state function is three BDD nodes, so building the model is
   linear -- but substituting them into good = /\ not x_i yields the
   "palindrome" function over u_0 < ... < u_{n-1}, whose BDD must
   remember the first half of the inputs: 2^(n/2) nodes.  With n = 60
   the image needs >= 2^30 node creations and can never complete. *)
let tangle_model n =
  let sp = Fsm.Space.create () in
  let x = Fsm.Space.state_word ~name:"x" sp ~width:n in
  let u = Fsm.Space.input_word ~name:"u" sp ~width:n in
  let man = Fsm.Space.man sp in
  let assigns =
    Array.to_list
      (Array.mapi
         (fun i l ->
           (l, Bdd.bxor man (Bdd.var man u.(i)) (Bdd.var man u.(n - 1 - i))))
         x)
  in
  let trans = Fsm.Trans.make sp ~assigns in
  let xv = Fsm.Space.cur_vec sp x in
  let init = Bvec.eq man xv (Bvec.const man ~width:n 0) in
  let good = List.init n (fun i -> Bdd.bnot man (Bvec.get xv i)) in
  Mc.Model.make ~name:"tangle" ~space:sp ~trans ~init ~good ()

let test_deadline_fires_mid_image () =
  let n = 60 in
  let model = tangle_model n in
  let man = Mc.Model.man model in
  let before = Bdd.created_nodes man in
  let r =
    Mc.Backward.run ~image_via:`Compose
      ~limits:(fun man -> Mc.Limits.start ~max_seconds:0.05 man)
      model
  in
  let created = Bdd.created_nodes man - before in
  (match r.Mc.Report.status with
  | Mc.Report.Exceeded why ->
    Alcotest.(check bool)
      (Printf.sprintf "deadline verdict mentions seconds (%s)" why)
      true
      (contains ~sub:"seconds" why)
  | Mc.Report.Proved | Mc.Report.Violated _ ->
    Alcotest.fail "a 2^30-node image cannot have completed");
  (* The first iteration-boundary check runs microseconds after the
     clock starts, far under the 50ms budget, so the only place the
     deadline can have fired is the kernel progress hook inside the
     blown-up BackImage.  Node count seals it: completing the image
     needs >= 2^30 creations, yet the run died after a tiny fraction. *)
  Alcotest.(check bool)
    (Printf.sprintf "aborted mid-image (%d nodes created)" created)
    true
    (created < 1 lsl 24)

(* --- job driver ----------------------------------------------------- *)

let test_resilient_first_try () =
  let model = chain_model () in
  let outcome = Mc.Job.run ~fallback:[ Mc.Runner.Xici ] model in
  Alcotest.(check bool) "proved" true
    (Mc.Report.is_proved outcome.Mc.Job.final);
  Alcotest.(check int) "single attempt" 1
    (List.length outcome.Mc.Job.steps)

let test_escalating_budget_recovery () =
  let cold = chain_model () in
  let man_cold = Mc.Model.man cold in
  let before = Bdd.created_nodes man_cold in
  let r_cold = run_xici cold in
  Alcotest.(check bool) "cold run proves" true (Mc.Report.is_proved r_cold);
  let cost = Bdd.created_nodes man_cold - before in
  (* Under-budget the first attempt to a quarter of the real cost; the
     driver must escalate (and resume from the checkpoint) to a proof. *)
  let model = chain_model () in
  let path = temp_path () in
  let outcome =
    Mc.Job.run ~retries:8 ~budget_escalation:2.0
      ~max_created_nodes:(max 1 (cost / 4))
      ~fallback:[ Mc.Runner.Xici ] ~checkpoint:path model
  in
  cleanup path;
  Alcotest.(check bool) "recovered to proved" true
    (Mc.Report.is_proved outcome.Mc.Job.final);
  let attempts = outcome.Mc.Job.steps in
  Alcotest.(check bool) "took more than one attempt" true
    (List.length attempts >= 2);
  (match attempts with
  | first :: _ ->
    Alcotest.(check bool) "first attempt exceeded its budget" true
      (is_exceeded first.Mc.Job.report)
  | [] -> Alcotest.fail "no attempts recorded");
  let budgets =
    List.filter_map (fun a -> a.Mc.Job.max_created_nodes) attempts
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "budgets strictly escalate" true (increasing budgets);
  Alcotest.(check bool) "a retry resumed from the checkpoint" true
    (List.exists (fun a -> a.Mc.Job.resumed_at <> None) attempts)

let test_portfolio_fallback () =
  let model = chain_model () in
  let man = Mc.Model.man model in
  (* One-shot fault: kills XICI's first attempt, disarms itself, so the
     Forward fallback runs clean. *)
  let armed = ref true in
  Bdd.set_fault_hook man
    (Some
       (fun _ ->
         if !armed then begin
           armed := false;
           raise (Mc.Limits.Exceeded "injected fault")
         end));
  let outcome =
    Mc.Job.run ~retries:1
      ~fallback:[ Mc.Runner.Xici; Mc.Runner.Forward ]
      model
  in
  Bdd.set_fault_hook man None;
  Alcotest.(check bool) "fault fired" true (not !armed);
  (match outcome.Mc.Job.steps with
  | [ a1; a2 ] ->
    Alcotest.(check bool) "XICI attempt exceeded" true
      (a1.Mc.Job.meth = Mc.Runner.Xici
      && is_exceeded a1.Mc.Job.report);
    Alcotest.(check bool) "Forward fallback proves" true
      (a2.Mc.Job.meth = Mc.Runner.Forward
      && Mc.Report.is_proved a2.Mc.Job.report)
  | attempts ->
    Alcotest.fail
      (Printf.sprintf "expected exactly two attempts, got %d"
         (List.length attempts)));
  Alcotest.(check bool) "outcome proved via fallback" true
    (Mc.Report.is_proved outcome.Mc.Job.final)

let test_node_budget_fault_caught () =
  (* A Node_budget_exhausted escaping a method (fault hook firing
     outside any with_node_budget region) must be converted into an
     Exceeded attempt, not kill the job. *)
  let model = chain_model () in
  let man = Mc.Model.man model in
  let armed = ref true in
  Bdd.set_fault_hook man
    (Some
       (fun _ ->
         if !armed then begin
           armed := false;
           raise Bdd.Node_budget_exhausted
         end));
  let outcome =
    Mc.Job.run ~retries:1
      ~fallback:[ Mc.Runner.Xici; Mc.Runner.Forward ]
      model
  in
  Bdd.set_fault_hook man None;
  Alcotest.(check bool) "fault fired" true (not !armed);
  Alcotest.(check bool) "outcome proved despite the fault" true
    (Mc.Report.is_proved outcome.Mc.Job.final);
  match outcome.Mc.Job.steps with
  | a1 :: _ ->
    Alcotest.(check bool) "first attempt recorded as exceeded" true
      (is_exceeded a1.Mc.Job.report)
  | [] -> Alcotest.fail "no attempts recorded"

let test_portfolio_crash_containment () =
  (* A worker dying of an arbitrary exception (not a budget trip) must
     surface as a structured per-config "worker crashed" report while
     the remaining configs run to a verdict. *)
  let model = chain_model () in
  let armed = Atomic.make true in
  let configs =
    [
      Mc.Parallel.config ~label:"victim" Mc.Runner.Xici;
      Mc.Parallel.config ~label:"survivor" Mc.Runner.Forward;
    ]
  in
  (* The limits builder is the only per-worker entry point we control:
     its first invocation (the victim, on one domain configs run in
     order) plants a fault hook that raises a non-budget exception. *)
  let crashing_limits man =
    if Atomic.compare_and_set armed true false then
      Bdd.set_fault_hook man
        (Some (fun _ -> raise (Failure "injected crash")));
    limits man
  in
  let res =
    Mc.Parallel.portfolio ~domains:1 ~configs ~limits:crashing_limits model
  in
  Alcotest.(check bool) "crash fired" true (not (Atomic.get armed));
  (match res.Mc.Parallel.winner with
  | Some (c, r) ->
    Alcotest.(check string) "survivor wins" "survivor"
      c.Mc.Parallel.label;
    Alcotest.(check bool) "survivor proves" true (Mc.Report.is_proved r)
  | None -> Alcotest.fail "no winner despite a healthy config");
  match
    List.find_opt
      (fun (c, _) -> c.Mc.Parallel.label = "victim")
      res.Mc.Parallel.reports
  with
  | Some (_, r) -> (
    match r.Mc.Report.status with
    | Mc.Report.Exceeded why ->
      Alcotest.(check bool)
        (Printf.sprintf "victim reported as crashed (%s)" why)
        true
        (contains ~sub:"crashed" why)
    | Mc.Report.Proved | Mc.Report.Violated _ ->
      Alcotest.fail "victim config survived its own crash")
  | None -> Alcotest.fail "victim config missing from reports"

let verdict (r : Mc.Report.t) =
  match r.Mc.Report.status with
  | Mc.Report.Proved -> "proved"
  | Mc.Report.Violated _ -> "violated"
  | Mc.Report.Exceeded _ -> "exceeded"

(* Table-driven: every strategy, on a proved and a violated model, gives
   the verdict of the direct Runner / Parallel / Batch call; and under
   the strategies that run on the caller's manager, a fault hook raising
   [Bdd.Node_budget_exhausted] -- which no method catches -- comes back
   as an Exceeded report that records the attempt's own cost. *)
let test_job_attempt_table () =
  (* Each strategy is attempted on [model] (a batch's properties are
     BDDs of that model's manager); the direct call runs on a fresh
     copy. *)
  let strategies ?start model =
    [
      ( "method",
        Mc.Job.Method Mc.Runner.Xici,
        fun () ->
          Mc.Runner.run ~limits Mc.Runner.Xici (chain_model ?start ()) );
      ( "portfolio",
        Mc.Job.Portfolio { domains = 2 },
        fun () ->
          match
            (Mc.Parallel.portfolio ~domains:2 ~limits (chain_model ?start ()))
              .winner
          with
          | Some (_, r) -> r
          | None -> Alcotest.fail "direct portfolio decided nothing" );
      ( "batch",
        Mc.Job.Batch
          {
            meth = Mc.Runner.Xici;
            props = Mc.Batch.of_goods model;
            domains = 1;
          },
        fun () ->
          let fresh = chain_model ?start () in
          match
            (Mc.Batch.run ~limits fresh (Mc.Batch.of_goods fresh)).items
          with
          | [ it ] -> it.Mc.Batch.report
          | _ -> Alcotest.fail "the chain has one property" );
    ]
  in
  List.iter
    (fun (start, expected) ->
      List.iteri
        (fun i (name, _, _) ->
          let model = chain_model ~start () in
          let _, strategy, direct = List.nth (strategies ~start model) i in
          let label what = Printf.sprintf "%s, start %d: %s" name start what in
          let r = Mc.Job.attempt ~limits strategy model in
          Alcotest.(check string) (label "verdict") expected
            (verdict r.Mc.Job.report);
          Alcotest.(check string) (label "same as the direct call")
            (verdict (direct ())) (verdict r.Mc.Job.report);
          Alcotest.(check bool) (label "detail attached") true
            (match strategy with
            | Mc.Job.Method _ -> r.batch = None && r.portfolio = None
            | Mc.Job.Portfolio _ -> r.portfolio <> None
            | Mc.Job.Batch _ -> r.batch <> None))
        (strategies ~start (chain_model ~start ())))
    [ (0, "proved"); (1, "violated") ];
  List.iteri
    (fun i (name, strategy, _) ->
      match strategy with
      | Mc.Job.Portfolio _ -> ()
      | Mc.Job.Method _ | Mc.Job.Batch _ ->
        let model = chain_model () in
        let _, strategy, _ = List.nth (strategies model) i in
        let man = Mc.Model.man model in
        let armed_at = Bdd.created_nodes man + 1 in
        Bdd.set_fault_hook man
          (Some
             (fun m ->
               if Bdd.created_nodes m >= armed_at then
                 raise Bdd.Node_budget_exhausted));
        let r =
          Fun.protect
            ~finally:(fun () -> Bdd.set_fault_hook man None)
            (fun () -> Mc.Job.attempt ~limits strategy model)
        in
        Alcotest.(check string) (name ^ ": node-budget fault") "exceeded"
          (verdict r.Mc.Job.report);
        Alcotest.(check bool) (name ^ ": cost recorded") true
          (r.Mc.Job.report.Mc.Report.nodes_created >= 1))
    (strategies (chain_model ()))

let test_resilient_invalid_args () =
  let model = chain_model () in
  let rejects label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "empty fallback list" (fun () -> Mc.Job.run ~fallback:[] model);
  rejects "retries < 1" (fun () -> Mc.Job.run ~retries:0 model);
  rejects "escalation < 1" (fun () ->
      Mc.Job.run ~budget_escalation:0.5 model)

let () =
  Alcotest.run "resilient"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic non-decreasing" `Quick test_monotonic;
          Alcotest.test_case "limits elapsed" `Quick test_limits_elapsed;
        ] );
      ( "limits",
        [
          Alcotest.test_case "with_guard chains and restores" `Quick
            test_with_guard_restores;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "save/load roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "corruption detection" `Quick
            test_checkpoint_corruption;
          Alcotest.test_case "load_opt tolerates truncation" `Quick
            test_load_opt_tolerates_corruption;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "deadline fires mid-image" `Quick
            test_deadline_fires_mid_image;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fault kill + checkpoint resume" `Quick
            test_kill_and_resume;
          Alcotest.test_case "clean first try" `Quick test_resilient_first_try;
          Alcotest.test_case "escalating budgets recover" `Quick
            test_escalating_budget_recovery;
          Alcotest.test_case "portfolio falls back" `Quick
            test_portfolio_fallback;
          Alcotest.test_case "node-budget fault caught" `Quick
            test_node_budget_fault_caught;
          Alcotest.test_case "portfolio contains a worker crash" `Quick
            test_portfolio_crash_containment;
          Alcotest.test_case "invalid arguments rejected" `Quick
            test_resilient_invalid_args;
          Alcotest.test_case "job attempt: strategies x failures" `Quick
            test_job_attempt_table;
        ] );
    ]
