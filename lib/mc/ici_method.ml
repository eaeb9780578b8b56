(* The original implicitly-conjoined-invariants method (Hu & Dill,
   CAV'93), reconstructed per its summary in Section II.C: the property
   must be supplied as an implicit conjunction; the list keeps its shape
   across iterations (conjunct j of G_{i+1} is G_0[j] /\
   BackImage(delta, G_i[j]), by Theorem 1), conjuncts are
   Restrict-simplified by each other, and termination is the fast but
   structure-dependent POINTWISE comparison the paper criticises: it can
   fail to detect convergence (we then report iteration-limit
   exhaustion rather than looping forever). *)

let run ?limits
    ?(cfg =
      { Ici.Policy.default with evaluation = Ici.Policy.No_evaluation })
    model =
  let man = Model.man model in
  let trans = model.Model.trans in
  Fixpoint.run ?limits ~meth:"ICI" model (fun fx ->
      let l0 = Ici.Clist.of_list man (Model.property model) in
      (* Simplify each BackImage by every property conjunct (smallest
         care sets first) before combining.  Sound: every G_0 conjunct
         is a factor of the new list, so it is a valid care set; a
         BackImage that coincides with (or is implied by) a property
         conjunct collapses to TRUE, which is what lets the
         shape-preserving policy reach a pointwise fixpoint on examples
         like the typed FIFO, where BackImage permutes the conjuncts,
         and the assisted moving-average filter, where the layer lemmas
         subsume the BackImages of the output bits.  The care sets and
         their order are fixed for the run: sizes are taken once, and
         the stable sort keeps equal sizes in property order. *)
      let care_sets =
        if cfg.Ici.Policy.simplifier = Ici.Policy.No_simplify then []
        else
          List.map (fun g -> (Bdd.size g, g)) l0
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
          |> List.filter_map (fun (_, g) ->
                 if Bdd.is_const g then None else Some g)
      in
      let simplify_back b =
        List.fold_left
          (fun b g -> if Bdd.is_const b then b else Bdd.restrict man b g)
          b care_sets
      in
      let rec iterate l gs =
        Fixpoint.iteration fx l;
        match Fixpoint.violation fx l ~history:gs with
        | Some violated -> violated
        | None ->
          Fixpoint.advance fx;
          let back = List.map (Fsm.Trans.back_image trans) l in
          let back = List.map simplify_back back in
          (* Keep the list length fixed: AND conjunct j of G_0 with the
             (simplified) BackImage of conjunct j. *)
          let l' = Ici.Clist.band_pointwise man l0 back in
          if List.for_all2 Bdd.equal l' l then Report.Proved
          else iterate l' (l' :: gs)
      in
      (* The original method iterates the user-supplied conjunction
         as-is; the list keeps its shape throughout. *)
      iterate l0 [ l0 ])
