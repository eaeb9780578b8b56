(* Partitioned transition relations and the image operators of the
   paper's Section II (Definition 1).

   The machine is deterministic given its inputs: every state bit b has
   exactly one next-state function f_b over current-state and input
   levels, giving the conjunct (b' <-> f_b).  Nondeterminism comes from
   free input variables, optionally restricted by an input constraint
   C(state, inputs); C must leave at least one legal input in every
   state for the transition relation to be total (checked by
   [is_total]).

   Images never build the monolithic relation: they interleave
   conjunction with existential quantification (early quantification in
   the style of Burch-Clarke-Long), quantifying each variable right
   after the last conjunct mentioning it. *)

type conjunct = {
  relation : Bdd.t; (* next <-> f, or an extra relational constraint *)
  supp : int list;
}

type t = {
  space : Space.t;
  assigns : (Space.bit * Bdd.t) list; (* per-bit next-state functions *)
  conjuncts : conjunct list; (* in quantification-schedule order *)
  input_constraint : Bdd.t;
  forward_quant : Bdd.varset; (* current-state + input levels *)
  backward_quant : Bdd.varset; (* next-state + input levels *)
  input_quant : Bdd.varset;
  subst : Bdd.t option array; (* cur level -> its next-state function *)
  next_to_cur : int array;
  cur_to_next : int array;
  mutable lead : image_path; (* the path the last [`Auto] call won with *)
  mutable lead_cost : int; (* nodes that winning attempt created *)
}

and image_path = [ `Compose | `Relational ]

type image_via = [ `Auto | image_path ]

let space t = t.space
let man t = Space.man t.space
let assigns t = t.assigns

let make ?input_constraint space ~assigns =
  let man = Space.man space in
  let declared = Space.state_bits space in
  let assigned = List.map (fun (b, _) -> b) assigns in
  if List.length declared <> List.length assigns
     || not (List.for_all (fun b -> List.memq b assigned) declared)
  then
    invalid_arg
      "Trans.make: every declared state bit needs exactly one next-state \
       function";
  let conjuncts =
    List.map
      (fun ((b : Space.bit), f) ->
        let relation = Bdd.biff man (Bdd.var man b.Space.next) f in
        { relation; supp = Bdd.support relation })
      assigns
  in
  let input_constraint =
    match input_constraint with None -> Bdd.tru man | Some c -> c
  in
  let subst = Array.make (max 1 (Bdd.num_vars man)) None in
  List.iter
    (fun ((b : Space.bit), f) -> subst.(b.Space.cur) <- Some f)
    assigns;
  {
    space;
    assigns;
    conjuncts;
    input_constraint;
    forward_quant =
      Bdd.varset man (Space.current_levels space @ Space.input_levels space);
    backward_quant =
      Bdd.varset man (Space.next_levels space @ Space.input_levels space);
    input_quant = Bdd.varset man (Space.input_levels space);
    subst;
    next_to_cur = Space.next_to_cur_perm space;
    cur_to_next = Space.cur_to_next_perm space;
    lead = `Compose;
    lead_cost = 0;
  }

(* Conjoin [parts] with the transition conjuncts, existentially
   quantifying every level of [quant] as soon as no remaining conjunct
   mentions it.  [progress] is the share of the conjuncts conjoined so
   far, so an abandoned product still tells how far it got. *)
let relational_product ?(progress = ref 0.) man ~quant ~conjuncts parts =
  let quantifiable = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace quantifiable l 0) (Bdd.varset_levels quant);
  (* Last conjunct index (1-based) mentioning each quantifiable level. *)
  List.iteri
    (fun j c ->
      List.iter
        (fun l ->
          if Hashtbl.mem quantifiable l then Hashtbl.replace quantifiable l (j + 1))
        c.supp)
    conjuncts;
  let levels_due j =
    Hashtbl.fold (fun l last acc -> if last = j then l :: acc else acc)
      quantifiable []
  in
  let n = List.length conjuncts in
  let base = Bdd.conj man parts in
  let acc = ref (Bdd.exists man (Bdd.varset man (levels_due 0)) base) in
  List.iteri
    (fun j c ->
      let vs = Bdd.varset man (levels_due (j + 1)) in
      acc := Bdd.and_exists man vs !acc c.relation;
      progress := float_of_int (j + 1) /. float_of_int n)
    conjuncts;
  !acc

(* [extra] lets callers conjoin additional constraints over current-state
   variables into the quantification schedule without ever building the
   full conjunction -- the functional-dependency method feeds its
   dependency relations (v <-> f_v) through here. *)
let image ?(extra = []) t z =
  let man = man t in
  let extra_conjuncts =
    List.map (fun f -> { relation = f; supp = Bdd.support f }) extra
  in
  let shifted =
    relational_product man ~quant:t.forward_quant
      ~conjuncts:(extra_conjuncts @ t.conjuncts)
      [ z; t.input_constraint ]
  in
  Bdd.rename man t.next_to_cur shifted

(* PreImage.  The [`Compose] path substitutes the next-state functions
   directly into Z ([Bdd.vector_compose]) and quantifies the inputs:
   PreImage(delta, Z) = exists inp [C /\ Z(f(s, inp))].  The
   [`Relational] path runs the early-quantification relational product.
   All paths compute the same set (tested against each other and
   against explicit-state enumeration). *)
let pre_image_compose t z =
  let man = man t in
  let zf = Bdd.vector_compose man t.subst z in
  Bdd.and_exists man t.input_quant t.input_constraint zf

let pre_image_relational ?progress t z =
  let man = man t in
  let z' = Bdd.rename man t.cur_to_next z in
  (* Only the conjuncts for bits in the support of [z'] matter: the
     machine is deterministic and total per bit, so for any other bit
     exists n_i (n_i <-> f_i) is TRUE and the conjunct drops out.  This
     is what makes BackImage of a small conjunct cheap (Theorem 1's
     whole point). *)
  let support = Bdd.support z' in
  let conjuncts =
    (* assigns and conjuncts were built in the same order *)
    List.filter_map
      (fun (((b : Space.bit), _), c) ->
        if List.mem b.Space.next support then Some c else None)
      (List.combine t.assigns t.conjuncts)
  in
  relational_product ?progress man ~quant:t.backward_quant ~conjuncts
    [ z'; t.input_constraint ]

(* Process-wide race outcomes ("fsm.image.*" in Obs.Registry.default):
   which path each [`Auto] call ended with, and the nodes that
   collecting the abandoned attempts freed. *)
module M = struct
  let reg = Obs.Registry.default
  let compose_wins = Obs.Registry.counter reg "fsm.image.compose_wins"
  let relational_wins = Obs.Registry.counter reg "fsm.image.relational_wins"
  let reclaimed_nodes = Obs.Registry.counter reg "fsm.image.reclaimed_nodes"
end

let run_path ?progress t z = function
  | `Compose -> pre_image_compose t z
  | `Relational -> pre_image_relational ?progress t z

let other = function `Compose -> `Relational | `Relational -> `Compose

(* Neither path dominates: composition wins on control-heavy machines
   (network-6's back image: 1.08M nodes against 4.78M), early
   quantification on wide-datapath sums (avg-filter-8's last XICI back
   image: 16.9K against 363K).  So [`Auto] races them, paying in full
   only for the winner:
   - the path that won this relation's last [`Auto] call (composition
     on the first) runs under max(F, 2 x that win's nodes), F being one
     progress-hook period;
   - if it is abandoned, the other path runs once under twice that
     budget;
   - if both are abandoned, composition runs under what the relational
     product is projected to cost in all: the nodes its attempt created
     over the share of its conjuncts it got through (no budget if it got
     through none; no attempt if composition already lost under more);
   - if composition is abandoned there, the relational product finishes
     with no budget of its own, so only the caller's guard can stop it.
   A relational attempt that got through none of its conjuncts is stuck
   in its first step, as on the network models, where composition is
   4-5x cheaper.  One that got through half of them, as on the filter
   models, where composition blows up past any budget, is projected at
   twice its attempt, and composition may spend no more than that: what
   the race wastes stays near what the relational product costs, also
   in live nodes.
   Node budgets only, never a clock, so which path wins -- and every
   node count -- is the same on every machine.  An abandoned attempt's
   nodes are garbage, and every value a caller still needs is a held
   handle (the tag-keyed caches of [Ici] drop themselves when
   [Bdd.gc_events] moves), so a [Bdd.gc] before the next attempt
   reclaims them, along with whatever else the caller has let go of
   since the last collection.  A call whose first attempt wins collects
   nothing. *)
let race t z =
  let man = man t in
  let progress = ref 0. in
  let run path budget =
    let before = Bdd.created_nodes man in
    match
      Bdd.with_node_budget man ~max_new_nodes:budget (fun () ->
          run_path ~progress t z path)
    with
    | Some r ->
      t.lead <- path;
      t.lead_cost <- Bdd.created_nodes man - before;
      Obs.Registry.incr
        (match path with
        | `Compose -> M.compose_wins
        | `Relational -> M.relational_wins);
      Some r
    | None ->
      let live = Bdd.live_nodes man in
      Bdd.gc man;
      Obs.Registry.add M.reclaimed_nodes (live - Bdd.live_nodes man);
      None
  in
  let first = t.lead in
  let probe = max Bdd.progress_period (2 * t.lead_cost) in
  match run first probe with
  | Some r -> r
  | None -> (
    match run (other first) (2 * probe) with
    | Some r -> r
    | None -> (
      let compose_spent, relational_spent =
        if first = `Compose then (probe, 2 * probe) else (2 * probe, probe)
      in
      let projected = float_of_int relational_spent /. !progress in
      let composed =
        if projected <= float_of_int compose_spent then None
        else
          run `Compose
            (if projected < float_of_int max_int then int_of_float projected
             else max_int)
      in
      match composed with
      | Some r -> r
      | None -> Option.get (run `Relational max_int)))

let pre_image ?(via = `Auto) t z =
  match via with
  | #image_path as path -> run_path t z path
  | `Auto -> race t z

let race_leader t = t.lead

let reset_race t =
  t.lead <- `Compose;
  t.lead_cost <- 0

(* BackImage(delta, Z) = not PreImage(delta, not Z): the states all of
   whose successors lie in Z (Definition 1 / Theorem 1 of the paper). *)
let back_image ?via t z =
  Bdd.bnot (man t) (pre_image ?via t (Bdd.bnot (man t) z))

(* Totality: every state admits at least one legal input.  Necessary for
   the PreImage/BackImage duality to mean what the paper intends. *)
let is_total t =
  let man = man t in
  let inputs = Bdd.varset man (Space.input_levels t.space) in
  Bdd.is_true (Bdd.exists man inputs t.input_constraint)

(* Successors of one concrete state: used for counterexample traces. *)
let successors_of_state t env =
  let man = man t in
  let cube =
    Bdd.conj man
      (List.map
         (fun l -> if env.(l) then Bdd.var man l else Bdd.nvar man l)
         (Space.current_levels t.space))
  in
  image t cube

let input_constraint t = t.input_constraint

(* Concrete simulation against the same next-state functions the
   symbolic images use: lets test suites and applications cross-check
   symbolic results against hand-written reference models. *)
let legal_input t env = Bdd.eval (man t) env t.input_constraint

let step t env =
  assert (legal_input t env);
  let man = man t in
  let env' = Array.copy env in
  List.iter
    (fun ((b : Space.bit), f) -> env'.(b.Space.cur) <- Bdd.eval man env f)
    t.assigns;
  (* Inputs and next-levels are dead in the successor assignment. *)
  List.iter (fun l -> env'.(l) <- false) (Space.input_levels t.space);
  env'
