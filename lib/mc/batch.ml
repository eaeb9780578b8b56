(* Multi-property verification with a shared invariant pool.

   One model, properties P1..Pn, two sharing channels (see the .mli for
   the soundness argument):

   - all runs share the model's manager, so computed-table entries
     (back images above all) carry across properties;
   - everything established unconditionally -- proved goods and
     converged XICI conjunctions, which are inductive and implied by
     init no matter what property seeded them -- pools up and reaches
     later runs as assisting conjuncts.

   One sweep in the given order; Violated and Exceeded verdicts are
   final as they come. *)

type property = { pname : string; goods : Bdd.t list }

let of_goods ?(names = []) (model : Model.t) =
  List.mapi
    (fun i g ->
      let pname =
        match List.nth_opt names i with
        | Some n -> n
        | None -> Printf.sprintf "p%d" i
      in
      { pname; goods = [ g ] })
    model.Model.good

type item = { prop : property; report : Report.t }
type stats = { invariants_shared : int }

type result = {
  items : item list;
  stats : stats;
  domains_used : int;
  wall_time_s : float;
}

(* The assisting pool is re-proved by every run it is injected into, so
   an unbounded pool would eventually drown the traversal in conjuncts;
   keep the oldest (most battle-tested) prefix. *)
let max_pool = 64

(* Verify one subset of the batch sequentially on [model]'s manager.
   [props] pairs each property with its index in the caller's original
   list, which is passed through so parallel parts can be merged back
   into order. *)
let run_seq ?limits ~meth ?xici_cfg ?termination ?var_choice
    (model : Model.t) props =
  let man = Model.man model in
  let shared = ref 0 in
  let pool = ref [] in
  let pool_add gs =
    pool := Ici.Clist.of_list man (!pool @ gs);
    if List.length !pool > max_pool then
      pool := List.filteri (fun k _ -> k < max_pool) !pool
  in
  let run_one (idx, prop) =
    let extra = !pool in
    shared := !shared + List.length extra;
    let sub =
      Model.make
        ~assisting:(model.Model.assisting @ extra)
        ~fd_candidates:model.Model.fd_candidates ~name:model.Model.name
        ~space:model.Model.space ~trans:model.Model.trans
        ~init:model.Model.init ~good:prop.goods ()
    in
    let report, derived =
      match meth with
      | Runner.Xici ->
        Xici.run_full ?limits ?cfg:xici_cfg ?termination ?var_choice sub
      | m -> (Runner.run ?limits ?xici_cfg ?termination m sub, None)
    in
    if Report.is_proved report then begin
      Option.iter (fun d -> pool_add (Ici.Clist.to_list d)) derived;
      pool_add prop.goods
    end;
    let report =
      Report.relabel report ~method_name:(Runner.name meth ^ "@" ^ prop.pname)
    in
    (idx, { prop; report })
  in
  (* List.map applies [run_one] front to back, so the pool grows in
     the given order. *)
  let items = List.map run_one props in
  if !shared > 0 then
    Obs.Registry.add
      (Obs.Registry.counter Obs.Registry.default "batch.invariants_shared")
      !shared;
  (items, { invariants_shared = !shared })

let run ?limits ?(meth = Runner.Xici) ?xici_cfg ?termination ?var_choice
    ?(speculate = false) ?(domains = 1) (model : Model.t) props =
  if speculate then
    invalid_arg "Batch.run: ~speculate:true is not supported";
  let t0 = Monotonic.now () in
  let finish ~domains_used items stats =
    { items; stats; domains_used; wall_time_s = Monotonic.now () -. t0 }
  in
  let n = List.length props in
  if n = 0 then finish ~domains_used:0 [] { invariants_shared = 0 }
  else if domains <= 1 || n = 1 then begin
    let items, stats =
      run_seq ?limits ~meth ?xici_cfg ?termination ?var_choice model
        (List.mapi (fun i p -> (i, p)) props)
    in
    finish ~domains_used:1 (List.map snd items) stats
  end
  else begin
    (* Ship the whole batch as one frozen model whose good list
       concatenates every property's conjuncts (freeze/thaw preserves
       the list exactly), and let each worker domain slice its share
       back out of its private thawed copy. *)
    let lens = List.map (fun p -> List.length p.goods) props in
    let names = List.map (fun p -> p.pname) props in
    let combined =
      Model.make ~assisting:model.Model.assisting
        ~fd_candidates:model.Model.fd_candidates ~name:model.Model.name
        ~space:model.Model.space ~trans:model.Model.trans
        ~init:model.Model.init
        ~good:(List.concat_map (fun p -> p.goods) props)
        ()
    in
    let frozen = Parallel.freeze combined in
    let d = min domains n in
    let buckets = Array.make d [] in
    List.iteri (fun i _ -> buckets.(i mod d) <- i :: buckets.(i mod d)) props;
    let work bucket () =
      let local = Parallel.thaw frozen in
      let local_props =
        let rec split goods lens names acc =
          match (lens, names) with
          | [], [] -> List.rev acc
          | l :: lens, pname :: names ->
            let rec take k gs acc' =
              if k = 0 then (List.rev acc', gs)
              else
                match gs with
                | g :: tl -> take (k - 1) tl (g :: acc')
                | [] -> invalid_arg "Batch: thawed good list too short"
            in
            let mine, rest = take l goods [] in
            split rest lens names ({ pname; goods = mine } :: acc)
          | _ -> invalid_arg "Batch: length mismatch"
        in
        Array.of_list (split local.Model.good lens names [])
      in
      run_seq ?limits ~meth ?xici_cfg ?termination ?var_choice local
        (List.map (fun i -> (i, local_props.(i))) bucket)
    in
    (* Re-install the spawning domain's tracer and ambient attributes
       (domain-local state) so batch-worker spans keep their job's
       trace id — see the matching note in Parallel.portfolio. *)
    let tracer = Obs.Tracer.global () in
    let span_attrs = Obs.Tracer.current_attrs () in
    let doms =
      Array.map
        (fun b ->
          Domain.spawn (fun () ->
              Obs.Tracer.with_global tracer (fun () ->
                  Obs.Tracer.with_attrs span_attrs (work (List.rev b)))))
        buckets
    in
    let parts = Array.to_list (Array.map Domain.join doms) in
    (* A worker's items name its private manager's copy of their
       property; hand back the caller's own. *)
    let props = Array.of_list props in
    let items =
      List.concat_map fst parts
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (idx, it) -> { it with prop = props.(idx) })
    in
    let stats =
      {
        invariants_shared =
          List.fold_left (fun acc (_, s) -> acc + s.invariants_shared) 0 parts;
      }
    in
    finish ~domains_used:d items stats
  end
