(* Conventional backward traversal (Section II.B): G_0 = G (one
   monolithic BDD -- this is where the exponential blowups of Tables 1-3
   come from), G_{i+1} = G_0 /\ BackImage(delta, G_i); violation when the
   start states escape G_i, convergence when G_{i+1} = G_i (constant-time
   by canonicity). *)

let run ?limits ?image_via model =
  let man = Model.man model in
  let trans = model.Model.trans in
  Fixpoint.run ?limits ~meth:"Bkwd" model (fun fx ->
      let g0 = Bdd.conj man (Model.property model) in
      Fixpoint.check fx;
      (* [gs] is G_i ... G_0 as one-conjunct lists, for the trace. *)
      let rec iterate g gs =
        Fixpoint.iteration fx [ g ];
        match Fixpoint.violation fx [ g ] ~history:gs with
        | Some violated -> violated
        | None ->
          Fixpoint.advance fx;
          let g' =
            Obs.Tracer.with_span (Obs.Tracer.global ()) ~cat:"mc"
              ~args:(fun () ->
                [ ("iteration", Obs.Json.Int (Fixpoint.iterations fx)) ])
              "bkwd.back_image"
              (fun () ->
                Bdd.band man g0 (Fsm.Trans.back_image ?via:image_via trans g))
          in
          (* Converged when the last BackImage did not shrink the set. *)
          if Bdd.equal g' g then Report.Proved else iterate g' ([ g' ] :: gs)
      in
      iterate g0 [ [ g0 ] ])
