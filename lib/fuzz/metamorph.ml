(* Metamorphic properties: transformations of a spec that provably
   preserve the verdict, so the verdict computed on the transformed spec
   must equal the reference verdict of the original.

   - duplicating a good conjunct: the implied conjunction is unchanged
     (and exercises Clist normalisation and the policy's pair table);
   - permuting the good list: list order is representation, not meaning
     (exercises the greedy pair choice and the termination test's
     variable heuristics);
   - renaming variables: reversing the declaration order of state bits
     and of input bits yields an isomorphic machine over a different
     variable order;
   - checkpoint/resume: killing an XICI run mid-fixpoint with an
     injected fault and resuming from its snapshot must reach the same
     verdict as the uninterrupted run. *)

type transform = Dup_good | Reverse_goods | Rotate_goods | Rename_vars

let all_transforms = [ Dup_good; Reverse_goods; Rotate_goods; Rename_vars ]

let transform_name = function
  | Dup_good -> "dup-good"
  | Reverse_goods -> "reverse-goods"
  | Rotate_goods -> "rotate-goods"
  | Rename_vars -> "rename-vars"

let rotate = function [] -> [] | x :: rest -> rest @ [ x ]

(* Reverse the state-bit order and the input-bit order.  State bit i
   becomes bit (n-1-i): its next-state function moves to that slot and
   every variable occurrence is remapped accordingly. *)
let rename_vars (s : Spec.t) =
  let n = s.Spec.n_state and m = s.Spec.n_input in
  let ps i = n - 1 - i in
  let phi v = if v < n then ps v else n + (m - 1 - (v - n)) in
  let nexts = Array.make n Expr.T in
  Array.iteri
    (fun i e -> nexts.(ps i) <- Expr.map_vars phi e)
    s.Spec.nexts;
  {
    s with
    Spec.nexts;
    constr = Expr.map_vars phi s.Spec.constr;
    init = Expr.map_vars phi s.Spec.init;
    goods = List.map (Expr.map_vars phi) s.Spec.goods;
    fd = List.sort compare (List.map ps s.Spec.fd);
  }

let apply t (s : Spec.t) =
  match t with
  | Dup_good -> (
    match s.Spec.goods with
    | [] -> s
    | g :: _ -> { s with Spec.goods = g :: s.Spec.goods })
  | Reverse_goods -> { s with Spec.goods = List.rev s.Spec.goods }
  | Rotate_goods -> { s with Spec.goods = rotate s.Spec.goods }
  | Rename_vars -> rename_vars s

(* --- the metamorphic check ------------------------------------------- *)

type disagreement = Oracle.disagreement = { check : string; detail : string }

let verdict_of (r : Mc.Report.t) =
  match r.Mc.Report.status with
  | Mc.Report.Proved -> Some true
  | Mc.Report.Violated _ -> Some false
  | Mc.Report.Exceeded _ -> None

let check_transformed ~limits ~expected name spec' =
  (* The reference itself must be invariant under the transform... *)
  if Spec.reference_verdict spec' <> expected then
    Some
      { check = name;
        detail = "the explicit reference changed its verdict under the transform" }
  else
    (* ...and so must the symbolic methods (one backward-implicit, one
       forward-monolithic, to cover both traversal families). *)
    let check_method mname run =
      let model = Spec.build_model spec' in
      match verdict_of (run model) with
      | Some v when v = expected -> None
      | Some _ ->
        Some { check = name; detail = mname ^ " changed its verdict under the transform" }
      | None ->
        Some { check = name; detail = mname ^ " did not converge on the transformed spec" }
    in
    match check_method "xici" (Mc.Xici.run ~limits) with
    | Some _ as d -> d
    | None -> check_method "forward" (Mc.Runner.run ~limits Mc.Runner.Forward)

(* Kill an XICI run mid-fixpoint with a one-shot injected fault, then
   resume from the checkpoint it left behind; the verdict must equal the
   uninterrupted run's (which must equal the reference's). *)
let check_checkpoint_resume ~limits ~expected spec =
  let cold = Spec.build_model spec in
  let man_cold = Mc.Model.man cold in
  let before = Bdd.created_nodes man_cold in
  let r_cold = Mc.Xici.run ~limits cold in
  let cost = Bdd.created_nodes man_cold - before in
  match verdict_of r_cold with
  | None ->
    Some
      { check = "checkpoint-resume";
        detail = "uninterrupted XICI run did not converge" }
  | Some v when v <> expected ->
    Some
      { check = "checkpoint-resume";
        detail = "uninterrupted XICI run disagrees with the reference" }
  | Some _ ->
    let victim = Spec.build_model spec in
    let man = Mc.Model.man victim in
    let path = Oracle.temp_path () in
    let kill_at = Bdd.created_nodes man + max 1 (cost / 2) in
    let armed = ref true in
    Bdd.set_fault_hook man
      (Some
         (fun m ->
           if !armed && Bdd.created_nodes m >= kill_at then begin
             armed := false;
             raise (Mc.Limits.Exceeded "fuzz fault")
           end));
    Fun.protect
      ~finally:(fun () ->
        Bdd.set_fault_hook man None;
        Oracle.cleanup path)
      (fun () ->
        let r_killed = Mc.Xici.run ~limits ~checkpoint_path:path victim in
        match r_killed.Mc.Report.status with
        | Mc.Report.Proved | Mc.Report.Violated _ ->
          (* The run finished under the kill budget; nothing to resume. *)
          if verdict_of r_killed = Some expected then None
          else
            Some
              { check = "checkpoint-resume";
                detail = "checkpointed run disagrees with the reference" }
        | Mc.Report.Exceeded _ ->
          let resume_from = Mc.Checkpoint.load_opt man path in
          let r = Mc.Xici.run ~limits ?resume_from victim in
          if verdict_of r = Some expected then None
          else
            Some
              { check = "checkpoint-resume";
                detail = "resumed run disagrees with the uninterrupted verdict" })

(* Telemetry must be a pure observer: re-running a method with the
   registry collecting and a JSONL trace sink attached must reach the
   same verdict, and every line the sink emitted must survive an
   Obs.Json parse -> print -> parse round-trip. *)
let check_telemetry ~limits ~expected spec =
  let fail detail = Some { check = "telemetry"; detail } in
  let model = Spec.build_model spec in
  let path = Oracle.temp_path () in
  let tracer = Obs.Tracer.create () in
  let oc = open_out path in
  Obs.Tracer.add_sink tracer (Obs.Tracer.jsonl_sink tracer oc);
  (* Domain-local override: parallel corpus replay runs this check on
     worker domains, and a process-global swap would send the other
     workers' spans into [oc] -- which we close below. *)
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Oracle.cleanup path)
    (fun () ->
      let r =
        Obs.Tracer.with_global tracer (fun () -> Mc.Xici.run ~limits model)
      in
      Obs.Tracer.flush tracer;
      Stdlib.flush oc;
      match verdict_of r with
      | None -> fail "XICI did not converge with telemetry enabled"
      | Some v when v <> expected ->
        fail "XICI changed its verdict with telemetry enabled"
      | Some _ -> (
        (* The run-level snapshot must round-trip too (this is what
           bench --json embeds per row). *)
        let snap = Mc.Telemetry.snapshot_json (Mc.Model.man model) in
        if
          not
            (Obs.Json.equal snap (Obs.Json.of_string (Obs.Json.to_string snap)))
        then fail "telemetry snapshot does not round-trip through Obs.Json"
        else
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let bad = ref None in
              (try
                 while !bad = None do
                   let line = input_line ic in
                   match Obs.Json.of_string line with
                   | j ->
                     if
                       not
                         (Obs.Json.equal j
                            (Obs.Json.of_string (Obs.Json.to_string j)))
                     then bad := fail "trace line does not round-trip"
                   | exception Obs.Json.Parse_error msg ->
                     bad := fail ("trace line does not parse: " ^ msg)
                 done
               with End_of_file -> ());
              !bad)))

(* --- batch metamorphic properties ------------------------------------ *)

(* A batch's per-property verdicts are a function of each property
   alone, not of how the batch is assembled: permuting the property
   order, duplicating a property and splitting one batch into two must
   all preserve every verdict.  These catch order-dependence in the
   invariant pool -- a pooled conjunct that is not a true invariant
   changes a verdict only for the properties that run after it, so it
   shows once the transforms move a property to the other side of the
   one that pooled it. *)

let batch_verdicts ~limits spec props =
  let model, bprops = Spec.build_batch spec props in
  let res = Mc.Batch.run ~limits model bprops in
  List.map (fun (it : Mc.Batch.item) -> verdict_of it.Mc.Batch.report)
    res.Mc.Batch.items

let check_batch ?(limits = Oracle.default_limits) (spec : Spec.t) props =
  let expected =
    List.map
      (fun p -> Spec.reference_verdict { spec with Spec.goods = p })
      props
  in
  let agree name props' expected' =
    if batch_verdicts ~limits spec props' = List.map Option.some expected'
    then None
    else
      Some
        { check = name;
          detail = "batch verdicts changed under the transform" }
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let drop n l = List.filteri (fun i _ -> i >= n) l in
  let half = (List.length props + 1) / 2 in
  let checks =
    [
      (fun () -> agree "batch-identity" props expected);
      (fun () -> agree "batch-permute" (List.rev props) (List.rev expected));
      (fun () ->
        match (props, expected) with
        | p :: _, e :: _ ->
          agree "batch-dup" (props @ [ p ]) (expected @ [ e ])
        | [], _ | _, [] -> None);
      (fun () -> agree "batch-split-left" (take half props) (take half expected));
      (fun () ->
        agree "batch-split-right" (drop half props) (drop half expected));
    ]
  in
  List.fold_left
    (fun acc f -> match acc with Some _ -> acc | None -> f ())
    None checks

let check_spec ?(limits = Oracle.default_limits) spec =
  let expected = Spec.reference_verdict spec in
  let checks =
    List.map
      (fun t () ->
        check_transformed ~limits ~expected (transform_name t) (apply t spec))
      all_transforms
    @ [
        (fun () -> check_checkpoint_resume ~limits ~expected spec);
        (fun () -> check_telemetry ~limits ~expected spec);
      ]
  in
  List.fold_left
    (fun acc f -> match acc with Some _ -> acc | None -> f ())
    None checks
