(* Forward traversal over implicitly DISJOINED reachable sets: the dual
   extension the paper points at in Section II.A ("dually, we can
   compute the Image and PreImage of implicit disjunctions without
   building the BDD for the entire disjunction").

   The reachable set R_i is a list [r1; ...; rn] denoting r1 \/ ... \/
   rn.  Image distributes over disjunction, the violation check
   decomposes both ways (every part against every property conjunct),
   and the whole XICI toolbox transfers by De Morgan duality: running
   the evaluation/simplification policy on the complemented list
   preserves /\ not r_j, i.e. preserves R; subsumption and termination
   reduce to the Section III.B tautology test on complemented lists. *)

let dual_improve man cfg parts =
  let complemented = List.map (Bdd.bnot man) parts in
  let improved = Ici.Policy.improve man cfg complemented in
  List.map (Bdd.bnot man) improved

(* Is the state set [p] subsumed by the implicit disjunction [parts]?
   Exactly: not p \/ r1 \/ ... \/ rn must be a tautology. *)
let subsumed ?stats man p parts =
  Ici.Tautology.check ?stats man (Bdd.bnot man p :: parts)

let find_violation man parts property =
  List.fold_left
    (fun acc p ->
      match acc with
      | Some _ -> acc
      | None -> (
        match Ici.Clist.find_unimplied man p property with
        | Some g -> Some (Bdd.band man p (Bdd.bnot man g))
        | None -> None))
    None parts

(* Counterexample: rings are disjunction lists; walk back from the bad
   state picking predecessors inside ever-earlier rings. *)
let trace_of trans rings bad_set =
  let man = Fsm.Trans.man trans in
  Trace.forward trans
    ~mem:(fun env ring -> List.exists (Bdd.eval man env) ring)
    ~within:(fun preds ring ->
      match
        List.find_map
          (fun p ->
            let s = Bdd.band man preds p in
            if Bdd.is_false s then None else Some s)
          ring
      with
      | Some s -> s
      | None -> invalid_arg "Forward_idi.trace_of: broken rings")
    ~rings:(List.rev rings) ~bad:(Trace.pick trans bad_set)

let run ?limits ?(cfg = Ici.Policy.default) ?tautology_stats model =
  let man = Model.man model in
  let trans = model.Model.trans in
  let property = Ici.Clist.of_list man (Model.property model) in
  let stats =
    match tautology_stats with
    | Some s -> s
    | None -> Ici.Tautology.fresh_stats ()
  in
  Fixpoint.run ?limits ~meth:"IDI" model (fun fx ->
      let rec iterate parts frontier rings =
        Fixpoint.iteration fx parts;
        match find_violation man frontier property with
        | Some bad -> Report.Violated (trace_of trans rings bad)
        | None ->
          let images = List.map (Fsm.Trans.image trans) frontier in
          let fresh =
            List.filter
              (fun p ->
                (not (Bdd.is_false p)) && not (subsumed ~stats man p parts))
              images
          in
          if fresh = [] then Report.Proved
          else begin
            Fixpoint.advance fx;
            let parts' = dual_improve man cfg (parts @ fresh) in
            iterate parts' fresh (parts' :: rings)
          end
      in
      let start = dual_improve man cfg [ model.Model.init ] in
      iterate start start [ start ])
