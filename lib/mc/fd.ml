(* Forward traversal exploiting functional dependencies (the "FD" rows
   of Table 1), after Hu & Dill, DAC'93 [16].

   The reachable set R is stored as a reduced BDD r over the independent
   variables plus a list of dependencies v <-> f_v(others), so
   R = r /\ D.  The dependency conjuncts join the image computation's
   early-quantification schedule ([Fsm.Trans.image ~extra]), so the full
   R is never built.  Candidate dependent variables are user-specified
   (as in [16]); a candidate becomes dependent when
   r|v=1 /\ r|v=0 = false, with f_v = Restrict(r|v=1, r|v=1 \/ r|v=0).
   If a later image violates a recorded dependency it is folded back
   into r and may be re-detected with an updated function. *)

type dep = { lvl : int; func : Bdd.t }

let dep_conjunct man d = Bdd.biff man (Bdd.var man d.lvl) d.func

(* Detect new dependencies among [candidates] in the reduced set [r];
   returns the further-reduced set and the extended dependency list.
   A new dependency function must not mention an already-dependent
   variable: this keeps the dependency system acyclic, so together with
   the independent variables it determines every dependent variable
   uniquely (needed for the reduced union step to be exact). *)
let detect man r deps candidates =
  List.fold_left
    (fun (r, deps) v ->
      if List.exists (fun d -> d.lvl = v) deps || Bdd.is_false r then (r, deps)
      else begin
        let r1 = Bdd.cofactor man ~lvl:v ~value:true r in
        let r0 = Bdd.cofactor man ~lvl:v ~value:false r in
        if Bdd.is_false (Bdd.band man r1 r0) then begin
          let care = Bdd.bor man r0 r1 in
          let func =
            if Bdd.is_false care then Bdd.fls man else Bdd.restrict man r1 care
          in
          let mentions_dep f =
            List.exists
              (fun l -> List.exists (fun d -> d.lvl = l) deps)
              (Bdd.support f)
          in
          if mentions_dep func || mentions_dep care then (r, deps)
          else (care, { lvl = v; func } :: deps)
        end
        else (r, deps)
      end)
    (r, deps) candidates

(* R /\ extra-conjuncts /\ not c, built with early bail-out; used for the
   violation check and for trace reconstruction. *)
let conjoin_with_deps man parts =
  List.fold_left
    (fun acc p -> if Bdd.is_false acc then acc else Bdd.band man acc p)
    (Bdd.tru man) parts

let run ?limits model =
  let man = Model.man model in
  let trans = model.Model.trans in
  let property = Ici.Clist.of_list man (Model.property model) in
  let find_violation r dconjs =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None ->
          let bad =
            conjoin_with_deps man ((Bdd.bnot man c) :: r :: dconjs)
          in
          if Bdd.is_false bad then None else Some bad)
      None
      (Ici.Clist.to_list property)
  in
  (* rings: (reduced set, dependency conjuncts) per iteration, newest
     first; membership and predecessors are taken against the reduced
     set plus its dependencies. *)
  let trace_of rings bad_set =
    Trace.forward trans
      ~mem:(fun env (r, dconjs) ->
        Bdd.eval man env r && List.for_all (Bdd.eval man env) dconjs)
      ~within:(fun preds (r, dconjs) ->
        conjoin_with_deps man (preds :: r :: dconjs))
      ~rings:(List.rev rings) ~bad:(Trace.pick trans bad_set)
  in
  Fixpoint.run ?limits ~meth:"FD" model (fun fx ->
      let r0, deps0 = detect man model.Model.init [] model.Model.fd_candidates in
      let rec iterate r deps rings =
        Fixpoint.iteration fx (r :: List.map (fun d -> d.func) deps);
        let dconjs = List.map (dep_conjunct man) deps in
        match find_violation r dconjs with
        | Some bad -> Report.Violated (trace_of ((r, dconjs) :: rings) bad)
        | None ->
          Fixpoint.advance fx;
          let img = Fsm.Trans.image ~extra:dconjs trans r in
          (* Keep only the dependencies the new states still respect. *)
          let kept, broken =
            List.partition
              (fun d -> Bdd.implies man img (dep_conjunct man d))
              deps
          in
          let r =
            List.fold_left
              (fun r d -> Bdd.band man r (dep_conjunct man d))
              r broken
          in
          let kept_levels = Bdd.varset man (List.map (fun d -> d.lvl) kept) in
          let img_red = Bdd.exists man kept_levels img in
          let r' = Bdd.bor man r img_red in
          if Bdd.equal r' r && broken = [] then Report.Proved
          else begin
            let r'', deps' = detect man r' kept model.Model.fd_candidates in
            iterate r'' deps' ((r, dconjs) :: rings)
          end
      in
      iterate r0 deps0 [])
