(* Conventional forward traversal (Section II.B): R_0 = S,
   R_{i+1} = R_i \/ Image(delta, R_i), with the violation check
   decomposed over the property conjuncts.  The image is computed from
   the frontier (new states only), a standard optimisation that does not
   change R_i or the iteration count. *)

let run ?limits model =
  let man = Model.man model in
  let trans = model.Model.trans in
  let property = Ici.Clist.of_list man (Model.property model) in
  let violation reached rings =
    match Ici.Clist.find_unimplied man reached property with
    | None -> None
    | Some c ->
      let bad = Trace.pick trans (Bdd.band man reached (Bdd.bnot man c)) in
      Some
        (Trace.forward trans ~mem:(Bdd.eval man) ~within:(Bdd.band man)
           ~rings:(List.rev rings) ~bad)
  in
  Fixpoint.run ?limits ~meth:"Fwd" model (fun fx ->
      let rec iterate reached frontier rings =
        Fixpoint.iteration fx [ reached ];
        match violation frontier rings with
        | Some tr -> Report.Violated tr
        | None ->
          let img =
            Obs.Tracer.with_span (Obs.Tracer.global ()) ~cat:"mc"
              ~args:(fun () ->
                [ ("iteration", Obs.Json.Int (Fixpoint.iterations fx)) ])
              "fwd.image"
              (fun () -> Fsm.Trans.image trans frontier)
          in
          let reached' = Bdd.bor man reached img in
          if Bdd.equal reached' reached then Report.Proved
          else begin
            Fixpoint.advance fx;
            let frontier' = Bdd.band man img (Bdd.bnot man reached) in
            iterate reached' frontier' (reached' :: rings)
          end
      in
      iterate model.Model.init model.Model.init [ model.Model.init ])
