(* The extended ICI method of the paper (Section III): backward
   traversal over implicit conjunctions with

   - the automatic evaluation-and-simplification policy (Figure 1)
     applied to the concatenated list G_0 @ BackImages, so good
     conjunctions are found without user-supplied assisting invariants;
   - the exact termination test (implicit-disjunction tautology with
     Theorem-3 filtering and Shannon expansion).

   [termination] selects the test for the ablation benchmarks:
   - [`Exact_equal]   mutual implication (the paper's default);
   - [`Exact_implication] one-sided G_i => G_{i+1}, sufficient because
     the G_i are monotonically decreasing (noted but not exploited in
     the paper's implementation);
   - [`Pointwise]     the original ICI test (fast, may fail to detect). *)

type termination = [ `Exact_equal | `Exact_implication | `Pointwise ]

let lists_pointwise_equal a b =
  List.length a = List.length b && List.for_all2 Bdd.equal a b

(* [run_full] also returns the converged implicit conjunction (the
   automatically derived invariants) when the run proves the property.

   With [checkpoint_path] the fixpoint state is snapshotted every
   [checkpoint_every] iterations (at the top of the iteration, before
   any budget check, so a kill at any point loses at most the current
   iteration); with [resume_from] the traversal restarts from a
   snapshot instead of from G_0.  When resuming, [cfg] and
   [termination] default to the checkpointed values so the continued
   run uses the policy that produced the snapshot. *)
let run_full ?limits ?cfg ?termination
    ?(var_choice = Ici.Tautology.First_top) ?tautology_stats
    ?checkpoint_path ?(checkpoint_every = 1) ?resume_from model =
  let cfg =
    match (cfg, resume_from) with
    | Some c, _ -> c
    | None, Some (cp : Checkpoint.t) -> cp.Checkpoint.cfg
    | None, None -> Ici.Policy.default
  in
  let termination =
    match (termination, resume_from) with
    | Some t, _ -> t
    | None, Some cp -> cp.Checkpoint.termination
    | None, None -> `Exact_equal
  in
  (match resume_from with
  | Some cp -> Checkpoint.check_compatible cp model
  | None -> ());
  let man = Model.man model in
  let trans = model.Model.trans in
  let taut_stats =
    match tautology_stats with
    | Some s -> s
    | None -> Ici.Tautology.fresh_stats ()
  in
  (* Run-scoped caches: the policy's pair table survives across
     traversal iterations (pairs of unchanged conjuncts keep their
     scored conjunction), and the tautology memo accumulates verdicts
     across every termination test of the run. *)
  let policy_state = Ici.Policy.create_state () in
  let taut_memo = Ici.Tautology.create_memo () in
  let improve l = Ici.Policy.improve man ~state:policy_state cfg l in
  let converged l l' =
    match termination with
    | `Pointwise -> lists_pointwise_equal l l'
    | `Exact_implication ->
      Ici.Tautology.implies ~var_choice ~memo_table:taut_memo
        ~stats:taut_stats man l l'
    | `Exact_equal ->
      Ici.Tautology.equal ~var_choice ~memo_table:taut_memo ~stats:taut_stats
        man l l'
  in
  let final = ref None in
  let maybe_checkpoint fx l gs =
    let iterations = Fixpoint.iterations fx in
    match checkpoint_path with
    | Some path when iterations mod max 1 checkpoint_every = 0 ->
      Checkpoint.save man path
        {
          Checkpoint.model_name = model.Model.name;
          nvars = Bdd.num_vars man;
          iterations;
          cfg;
          termination;
          current = l;
          gs;
        }
    | Some _ | None -> ()
  in
  let tracer = Obs.Tracer.global () in
  let iterations =
    Option.map (fun cp -> cp.Checkpoint.iterations) resume_from
  in
  let report =
    Fixpoint.run ?limits ?iterations ~meth:"XICI" model (fun fx ->
        let l0 = Ici.Clist.of_list man (Model.property model) in
        (* Each fixpoint iteration runs inside a span; the recursive
           call happens outside it (the step returns `Continue), so
           spans are siblings on the trace timeline rather than a nest
           as deep as the iteration count. *)
        let step l gs =
          maybe_checkpoint fx l gs;
          Fixpoint.iteration fx l;
          match Fixpoint.violation fx l ~history:gs with
          | Some violated -> `Done violated
          | None ->
            Fixpoint.advance fx;
            let back =
              Obs.Tracer.with_span tracer ~cat:"mc" "xici.back_image"
                (fun () -> List.map (Fsm.Trans.back_image trans) l)
            in
            let l' = improve (l0 @ back) in
            if Ici.Clist.is_false l' then
              (* Good states form an empty inductive core; any start
                 state is a violation unless init is empty. *)
              `Done
                (Option.value ~default:Report.Proved
                   (Fixpoint.violation fx l' ~history:(l' :: gs)))
            else if converged l l' then begin
              final := Some l';
              `Done Report.Proved
            end
            else `Continue (l', l' :: gs)
        in
        let rec iterate l gs =
          let i = Fixpoint.iterations fx in
          match
            Obs.Tracer.with_span tracer ~cat:"mc"
              ~args:(fun () ->
                (* Evaluated at span close, so live_nodes reflects the
                   manager after the step — the number a post-mortem
                   wants when attributing a blowup to an iteration. *)
                [
                  ("iteration", Obs.Json.Int i);
                  ("conjuncts", Obs.Json.Int (Ici.Clist.length l));
                  ("live_nodes", Obs.Json.Int (Bdd.live_nodes man));
                ])
              "xici.iteration"
              (fun () -> step l gs)
          with
          | `Done status -> status
          | `Continue (l', gs') -> iterate l' gs'
        in
        match resume_from with
        | Some cp -> iterate cp.Checkpoint.current cp.Checkpoint.gs
        | None ->
          let start_list = improve l0 in
          iterate start_list [ start_list ])
  in
  (report, !final)

let run ?limits ?cfg ?termination ?var_choice ?tautology_stats
    ?checkpoint_path ?checkpoint_every ?resume_from model =
  fst
    (run_full ?limits ?cfg ?termination ?var_choice ?tautology_stats
       ?checkpoint_path ?checkpoint_every ?resume_from model)
