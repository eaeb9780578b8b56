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
}

type image_via = [ `Auto | `Compose | `Relational ]

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
  }

(* Conjoin [parts] with the transition conjuncts, existentially
   quantifying every level of [quant] as soon as no remaining conjunct
   mentions it. *)
let relational_product man ~quant ~conjuncts parts =
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
  let base = Bdd.conj man parts in
  let acc = ref (Bdd.exists man (Bdd.varset man (levels_due 0)) base) in
  List.iteri
    (fun j c ->
      let vs = Bdd.varset man (levels_due (j + 1)) in
      acc := Bdd.and_exists man vs !acc c.relation)
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
   Neither dominates (composition wins on control-heavy machines,
   early quantification on wide-datapath sums), so the default [`Auto]
   tries composition under a node budget and falls back; all paths
   compute the same set (tested against each other and against
   explicit-state enumeration). *)
let pre_image_compose t z =
  let man = man t in
  let zf = Bdd.vector_compose man t.subst z in
  Bdd.and_exists man t.input_quant t.input_constraint zf

let pre_image_relational t z =
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
  relational_product man ~quant:t.backward_quant ~conjuncts
    [ z'; t.input_constraint ]

let pre_image ?(via = `Auto) t z =
  match via with
  | `Compose -> pre_image_compose t z
  | `Relational -> pre_image_relational t z
  | `Auto ->
    let size_z = Bdd.size z in
    let node_budget = 1_000_000 + (64 * size_z) in
    let step_budget = 4_000_000 + (256 * size_z) in
    (match
       Bdd.with_node_budget (man t) ~max_new_nodes:node_budget
         ~max_steps:step_budget (fun () -> pre_image_compose t z)
     with
    | Some r -> r
    | None -> pre_image_relational t z)

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
