(* Cross-method differential oracles.

   Every method in Mc computes an answer to the same Section-II question,
   so any disagreement with the explicit-state reference is a bug by
   construction.  Three things are cross-checked per spec:

   - the verdict, against [Spec.reference_verdict];
   - the counterexample trace, replayed concretely through
     [Fsm.Trans.step] / [legal_input] (it must start in an initial
     state, follow only legal transitions and end in a bad state);
   - the structural claims methods make on the side: Induction verdicts
     must be consistent with the reference, and an XICI-derived fixpoint
     must be an inductive strengthening of the property.

   The job-ladder oracle additionally kills the first XICI attempt with
   an injected fault and requires the checkpoint-resumed retry to land
   on the reference verdict. *)

type disagreement = { check : string; detail : string }

let to_string d = Printf.sprintf "%s: %s" d.check d.detail

let default_limits man =
  Mc.Limits.start ~max_iterations:100 ~max_created_nodes:4_000_000 man

(* --- concrete trace replay ------------------------------------------- *)

(* Replay a reported counterexample through the concrete simulator.
   Works on any model (spec-built or the library models): the state
   assignments come back indexed by BDD level, only current-state levels
   are meaningful, and each step must be realisable by SOME legal input
   (methods do not report the inputs they chose). *)
let replay (model : Mc.Model.t) (trace : Mc.Report.trace) =
  let trans = model.Mc.Model.trans in
  let sp = model.Mc.Model.space in
  let man = Mc.Model.man model in
  let cur_levels = Fsm.Space.current_levels sp in
  let input_levels = Fsm.Space.input_levels sp in
  let nvars = max 1 (Bdd.num_vars man) in
  (* Normalise to a full assignment with only current levels set. *)
  let norm st =
    let a = Array.make nvars false in
    List.iter
      (fun l -> if l < Array.length st && st.(l) then a.(l) <- true)
      cur_levels;
    a
  in
  let n_input = List.length input_levels in
  let step_ok s t =
    let rec try_input m =
      if m >= 1 lsl n_input then false
      else begin
        let env = Array.copy s in
        List.iteri (fun k l -> env.(l) <- (m lsr k) land 1 = 1) input_levels;
        (Fsm.Trans.legal_input trans env
        &&
        let s' = Fsm.Trans.step trans env in
        List.for_all (fun l -> s'.(l) = t.(l)) cur_levels)
        || try_input (m + 1)
      end
    in
    try_input 0
  in
  match trace with
  | [] -> Error "empty trace"
  | first :: _ ->
    if not (Bdd.eval man (norm first) model.Mc.Model.init) then
      Error "trace does not start in an initial state"
    else begin
      let rec walk i = function
        | [] | [ _ ] -> Ok ()
        | s :: (t :: _ as rest) ->
          if step_ok (norm s) (norm t) then walk (i + 1) rest
          else
            Error
              (Printf.sprintf "step %d is not realisable by any legal input" i)
      in
      match walk 0 trace with
      | Error _ as e -> e
      | Ok () ->
        let last = norm (List.nth trace (List.length trace - 1)) in
        let good = Ici.Clist.of_list man (Mc.Model.property model) in
        if Ici.Clist.eval man last good then
          Error "trace does not end in a bad state"
        else Ok ()
    end

(* --- per-method verdict + trace check -------------------------------- *)

let check_report ~expected ~allow_exceeded name model (r : Mc.Report.t) =
  match r.Mc.Report.status with
  | Mc.Report.Proved ->
    if expected then None
    else Some { check = name; detail = "proved, but the reference finds a violation" }
  | Mc.Report.Violated tr -> (
    if expected then
      Some { check = name; detail = "violated, but the reference proves" }
    else
      match replay model tr with
      | Ok () -> None
      | Error e -> Some { check = name; detail = "counterexample rejected: " ^ e })
  | Mc.Report.Exceeded why ->
    if allow_exceeded then None
    else Some { check = name; detail = "did not converge: " ^ why }

let xici_configs =
  [
    ("xici", Ici.Policy.default);
    ("xici-constrain", { Ici.Policy.default with simplifier = Ici.Policy.Constrain });
    ("xici-multi-restrict",
     { Ici.Policy.default with simplifier = Ici.Policy.Multi_restrict });
    ("xici-no-simplify",
     { Ici.Policy.default with simplifier = Ici.Policy.No_simplify });
    ("xici-optimal-cover",
     { Ici.Policy.default with evaluation = Ici.Policy.Optimal_cover });
    ("xici-no-evaluation",
     { Ici.Policy.default with evaluation = Ici.Policy.No_evaluation });
    ("xici-grow-1.0", { Ici.Policy.default with grow_threshold = 1.0 });
    ("xici-unbounded-pairs",
     { Ici.Policy.default with pair_step_factor = None });
  ]

(* A fresh temp path that does not exist yet (checkpoint saves create it). *)
let temp_path () =
  let path = Filename.temp_file "icv-fuzz" ".ckpt" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

(* The Induction verdict is only a partial oracle: Inductive implies the
   property holds on every reachable state, and a conjunct violated by
   an initial state implies a violation; Not_preserved says nothing
   about reachability but its counterexamples-to-induction must be
   concretely valid. *)
let check_induction ~expected spec =
  let model = Spec.build_model spec in
  let man = Mc.Model.man model in
  let property = Mc.Model.property model in
  match Mc.Induction.check model property with
  | Mc.Induction.Inductive ->
    if expected then None
    else
      Some
        { check = "induction";
          detail = "property inductive, but the reference finds a violation" }
  | Mc.Induction.Not_implied_by_init _ ->
    if expected then
      Some
        { check = "induction";
          detail = "an initial state violates the property, but the reference proves" }
    else None
  | Mc.Induction.Not_preserved failures ->
    let bad =
      List.find_opt
        (fun (f : Mc.Induction.failure) ->
          not
            (List.for_all (Bdd.eval man f.Mc.Induction.state) property
            && (not (Bdd.eval man f.Mc.Induction.successor f.Mc.Induction.conjunct))
            && Bdd.eval man f.Mc.Induction.successor
                 (Fsm.Trans.successors_of_state model.Mc.Model.trans
                    f.Mc.Induction.state)))
        failures
    in
    (match bad with
    | None -> None
    | Some _ ->
      Some
        { check = "induction";
          detail = "a counterexample-to-induction does not validate" })

(* An XICI fixpoint, when one is derived, is the automatically derived
   invariant list: it must imply the property and be inductive. *)
let check_derived ~expected spec =
  let model = Spec.build_model spec in
  match Mc.Xici.run_full ~limits:default_limits model with
  | r, Some derived ->
    if not (Mc.Report.is_proved r) then
      Some
        { check = "xici-derived";
          detail = "fixpoint returned without a proved verdict" }
    else if not expected then
      Some
        { check = "xici-derived";
          detail = "proved, but the reference finds a violation" }
    else if not (Mc.Induction.establishes model derived) then
      Some
        { check = "xici-derived";
          detail = "derived invariants do not establish the property" }
    else (
      match Mc.Induction.check model (Ici.Clist.to_list derived) with
      | Mc.Induction.Inductive -> None
      | Mc.Induction.Not_implied_by_init _ ->
        Some
          { check = "xici-derived";
            detail = "derived invariants not implied by init" }
      | Mc.Induction.Not_preserved _ ->
        Some
          { check = "xici-derived";
            detail = "derived invariants are not preserved by the machine" })
  | _, None -> None

(* The job ladder under fire: measure a cold XICI run's node cost,
   then re-run under [Mc.Job.run] with a one-shot fault injected
   halfway through that cost and a checkpoint to resume from.  The
   recovered verdict must match the reference. *)
let check_resilient ~expected spec =
  let cold = Spec.build_model spec in
  let man_cold = Mc.Model.man cold in
  let before = Bdd.created_nodes man_cold in
  let _ = Mc.Xici.run ~limits:default_limits cold in
  let cost = Bdd.created_nodes man_cold - before in
  let model = Spec.build_model spec in
  let man = Mc.Model.man model in
  let path = temp_path () in
  let kill_at = Bdd.created_nodes man + max 1 (cost / 2) in
  let armed = ref true in
  Bdd.set_fault_hook man
    (Some
       (fun m ->
         if !armed && Bdd.created_nodes m >= kill_at then begin
           armed := false;
           raise (Mc.Limits.Exceeded "fuzz fault")
         end));
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Bdd.set_fault_hook man None;
        cleanup path)
      (fun () ->
        Mc.Job.run ~retries:3 ~max_iterations:100
          ~fallback:[ Mc.Runner.Xici; Mc.Runner.Forward ]
          ~checkpoint:path model)
  in
  check_report ~expected ~allow_exceeded:false "resilient-kill-resume" model
    outcome.Mc.Job.final

(* --- the differential check ------------------------------------------ *)

let first_some checks =
  List.fold_left
    (fun acc f -> match acc with Some _ -> acc | None -> f ())
    None checks

let check_spec ?(limits = default_limits) ?cache_budget spec =
  let expected = Spec.reference_verdict spec in
  (* Each method's manager must also end with a sound store. *)
  let run_method name ?(allow_exceeded = false) f =
    let model = Spec.build_model ?cache_budget spec in
    match check_report ~expected ~allow_exceeded name model (f model) with
    | Some _ as d -> d
    | None -> (
      match Bdd.check_invariants (Mc.Model.man model) with
      | () -> None
      | exception Failure why -> Some { check = name; detail = why })
  in
  first_some
    ([
       (fun () ->
         run_method "explicit" (Mc.Runner.run ~limits Mc.Runner.Explicit));
       (fun () ->
         run_method "forward" (Mc.Runner.run ~limits Mc.Runner.Forward));
       (fun () ->
         run_method "backward" (Mc.Runner.run ~limits Mc.Runner.Backward));
       (fun () -> run_method "fd" (Mc.Runner.run ~limits Mc.Runner.Fd));
       (fun () -> run_method "idi" (Mc.Runner.run ~limits Mc.Runner.Idi));
       (* The original ICI termination test is not guaranteed to detect
          convergence; nonconvergence is acceptable, a wrong verdict is
          not. *)
       (fun () ->
         run_method "ici" ~allow_exceeded:true
           (Mc.Runner.run ~limits Mc.Runner.Ici));
     ]
    @ List.map
        (fun (name, cfg) () ->
          run_method name (Mc.Xici.run ~limits ~cfg))
        xici_configs
    @ [
        (fun () ->
          run_method "xici-exact-implication"
            (Mc.Xici.run ~limits ~termination:`Exact_implication));
        (* The pointwise test may fail to detect convergence, like ICI. *)
        (fun () ->
          run_method "xici-pointwise" ~allow_exceeded:true
            (Mc.Xici.run ~limits ~termination:`Pointwise));
        (fun () -> check_induction ~expected spec);
        (fun () -> check_derived ~expected spec);
        (fun () -> check_resilient ~expected spec);
      ])

(* The count of method configurations a single check_spec exercises
   (for throughput reporting). *)
let configs_per_spec = 6 + List.length xici_configs + 2 + 3
