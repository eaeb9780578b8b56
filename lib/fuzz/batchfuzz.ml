(* Differential fuzzing of Mc.Batch.

   Invariant pooling is exactly the kind of optimisation that is easy
   to make unsound -- a pool member that is not a true invariant
   leaking into a later verdict, or a counterexample valid only for the
   pool-assisted model.  So the batch is held to the strongest oracle
   available: every per-property verdict must equal the explicit-state
   reference AND an independent sequential run, under every method and
   policy configuration, and every counterexample must replay
   concretely against its own property. *)

type case = { spec : Spec.t; props : Expr.t list list }

let print_case { spec; props } =
  Spec.to_string spec ^ "\nprops=["
  ^ String.concat "; "
      (List.map
         (fun p -> String.concat " & " (List.map Expr.to_string p))
         props)
  ^ "]"

let gen =
  let open QCheck2.Gen in
  Spec.gen () >>= fun spec ->
  let prop =
    frequency
      [
        (* a certainly-holding property, so batches regularly pool a
           proved property's goods for the properties after it *)
        (1, return [ Expr.T ]);
        (4, list_size (int_range 1 2) (Expr.gen_expr ~nvars:spec.Spec.n_state));
      ]
  in
  list_size (int_range 2 5) prop >|= fun props -> { spec; props }

(* Per-property expectations and the per-item comparison. *)

let expected_verdicts spec props =
  List.map
    (fun p -> Spec.reference_verdict { spec with Spec.goods = p })
    props

let check_items name spec props expected (items : Mc.Batch.item list) =
  let fail detail = Some { Oracle.check = name; detail } in
  let rec go items props expected =
    match (items, props, expected) with
    | [], [], [] -> None
    | it :: its, p :: ps, e :: es -> (
      let pname = it.Mc.Batch.prop.Mc.Batch.pname in
      match it.Mc.Batch.report.Mc.Report.status with
      | Mc.Report.Exceeded msg -> fail (pname ^ " did not converge: " ^ msg)
      | Mc.Report.Proved ->
        if e then go its ps es
        else fail (pname ^ " proved; the reference finds a violation")
      | Mc.Report.Violated tr ->
        if e then fail (pname ^ " violated; the reference proves it")
        else
          (* the trace must be genuine for the property alone, on a
             fresh manager (same levels by construction) *)
          let sub = Spec.build_model { spec with Spec.goods = p } in
          (match Oracle.replay sub tr with
          | Ok () -> go its ps es
          | Error msg -> fail (pname ^ " trace does not replay: " ^ msg)))
    | _, _, _ -> fail "batch returned the wrong number of items"
  in
  go items props expected

let methods =
  (* Ici's termination test is not guaranteed to detect convergence
     (Oracle.check_spec tolerates Exceeded for it); every other method
     must decide these tiny machines. *)
  List.filter (fun m -> m <> Mc.Runner.Ici) Mc.Runner.all

let batch_configs :
    (string
    * (limits:(Bdd.man -> Mc.Limits.t) ->
      Mc.Model.t ->
      Mc.Batch.property list ->
      Mc.Batch.result))
    list =
  List.map
    (fun m ->
      ( "batch-" ^ Mc.Runner.name m,
        fun ~limits model props ->
          Mc.Batch.run ~limits ~meth:m model props ))
    methods
  @ List.map
      (fun (cname, cfg) ->
        ( "batch-xici-" ^ cname,
          fun ~limits model props ->
            Mc.Batch.run ~limits ~xici_cfg:cfg model props ))
      Oracle.xici_configs
  @ [
      ( "batch-two-domains",
        fun ~limits model props ->
          Mc.Batch.run ~limits ~domains:2 model props );
    ]

let configs_per_case = List.length batch_configs + 2

let check_case ?(limits = Oracle.default_limits) { spec; props } =
  let expected = expected_verdicts spec props in
  let one (name, runner) () =
    let model, bprops = Spec.build_batch spec props in
    let res = runner ~limits model bprops in
    check_items name spec props expected res.Mc.Batch.items
  in
  (* Independent sequential runs: fresh model per property, no sharing
     of any kind; the batch's verdicts must coincide. *)
  let sequential () =
    let model, bprops = Spec.build_batch spec props in
    let res = Mc.Batch.run ~limits model bprops in
    let rec go items props =
      match (items, props) with
      | [], [] -> None
      | (it : Mc.Batch.item) :: its, p :: ps ->
        let seq =
          Mc.Runner.run ~limits Mc.Runner.Xici
            (Spec.build_model { spec with Spec.goods = p })
        in
        if
          Mc.Report.is_proved seq = Mc.Report.is_proved it.Mc.Batch.report
          && (match seq.Mc.Report.status with
             | Mc.Report.Exceeded _ -> false
             | _ -> true)
        then go its ps
        else
          Some
            {
              Oracle.check = "batch-vs-sequential";
              detail =
                it.Mc.Batch.prop.Mc.Batch.pname
                ^ ": batch and independent sequential verdicts differ";
            }
      | _, _ ->
        Some
          {
            Oracle.check = "batch-vs-sequential";
            detail = "batch returned the wrong number of items";
          }
    in
    go res.Mc.Batch.items props
  in
  let checks =
    List.map one batch_configs
    @ [ sequential; (fun () -> Metamorph.check_batch ~limits spec props) ]
  in
  List.fold_left
    (fun acc f -> match acc with Some _ -> acc | None -> f ())
    None checks
