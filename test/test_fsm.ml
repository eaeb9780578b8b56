(* FSM substrate tests.  The central check compares the symbolic image
   operators against explicit-state enumeration on randomly generated
   small machines, so Image / PreImage / BackImage semantics (paper
   Definition 1) are validated bit-for-bit. *)

let n_state = 3
let n_input = 2

(* A random machine: next-state expressions over 5 "variables"
   (3 current-state + 2 inputs), an input-constraint expression, and a
   target-set expression over the 3 state variables. *)
type machine_spec = {
  nexts : Testutil.expr array; (* length n_state *)
  constr : Testutil.expr;
  target : Testutil.expr; (* over state vars only *)
}

let gen_spec =
  let open QCheck2.Gen in
  let e = Testutil.gen_expr ~nvars:(n_state + n_input) in
  let es = Testutil.gen_expr ~nvars:n_state in
  map3
    (fun a (b, c) (d, t) ->
      { nexts = [| a; b; c |]; constr = d; target = t })
    e (pair e e) (pair e es)

let print_spec s =
  Format.asprintf "next0=%a next1=%a next2=%a constr=%a target=%a"
    Testutil.pp_expr s.nexts.(0) Testutil.pp_expr s.nexts.(1)
    Testutil.pp_expr s.nexts.(2) Testutil.pp_expr s.constr Testutil.pp_expr
    s.target

(* Build the symbolic machine.  Variable order: state bits first (their
   cur/next pairs), then inputs.  Expression variable i < n_state maps
   to state bit i's current level; i >= n_state maps to input i-n_state. *)
let build spec =
  let sp = Fsm.Space.create () in
  let bits = Array.init n_state (fun _ -> Fsm.Space.state_bit sp) in
  let inputs = Array.init n_input (fun _ -> Fsm.Space.input_bit sp) in
  let vars =
    Array.append
      (Array.map (fun (b : Fsm.Space.bit) -> b.cur) bits)
      inputs
  in
  let man = Fsm.Space.man sp in
  let assigns =
    List.init n_state (fun i ->
        (bits.(i), Testutil.build_bdd man vars spec.nexts.(i)))
  in
  let input_constraint = Testutil.build_bdd man vars spec.constr in
  let trans = Fsm.Trans.make ~input_constraint sp ~assigns in
  let state_vars = Array.sub vars 0 n_state in
  let target = Testutil.build_bdd man state_vars spec.target in
  (sp, man, bits, trans, target, vars)

(* Explicit-state reference semantics. *)
let explicit_successors spec s =
  let succs = ref [] in
  for inp = 0 to (1 lsl n_input) - 1 do
    let env =
      Array.init (n_state + n_input) (fun i ->
          if i < n_state then (s lsr i) land 1 = 1
          else (inp lsr (i - n_state)) land 1 = 1)
    in
    if Testutil.eval_expr env spec.constr then begin
      let s' = ref 0 in
      for b = 0 to n_state - 1 do
        if Testutil.eval_expr env spec.nexts.(b) then s' := !s' lor (1 lsl b)
      done;
      if not (List.mem !s' !succs) then succs := !s' :: !succs
    end
  done;
  !succs

let in_target spec s =
  let env = Array.init n_state (fun i -> (s lsr i) land 1 = 1) in
  Testutil.eval_expr env spec.target

(* Decode a symbolic state set over current levels into an int set. *)
let decode man bits set =
  List.filter
    (fun s ->
      let n = Bdd.num_vars man in
      let env = Array.make n false in
      Array.iteri
        (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (s lsr i) land 1 = 1)
        bits;
      Bdd.eval man env set)
    (List.init (1 lsl n_state) (fun s -> s))

let states_of_pred p = List.filter p (List.init (1 lsl n_state) (fun s -> s))

let prop_image spec =
  let _, man, bits, trans, target, _ = build spec in
  let z_states = states_of_pred (in_target spec) in
  let image = Fsm.Trans.image trans target in
  let expect =
    states_of_pred (fun s' ->
        List.exists (fun s -> List.mem s' (explicit_successors spec s)) z_states)
  in
  decode man bits image = expect

let prop_pre_image spec =
  let _, man, bits, trans, target, _ = build spec in
  let pre = Fsm.Trans.pre_image trans target in
  let expect =
    states_of_pred (fun s ->
        List.exists (in_target spec) (explicit_successors spec s))
  in
  decode man bits pre = expect

let prop_back_image spec =
  let _, man, bits, trans, target, _ = build spec in
  let back = Fsm.Trans.back_image trans target in
  let expect =
    states_of_pred (fun s ->
        List.for_all (in_target spec) (explicit_successors spec s))
  in
  decode man bits back = expect

let prop_image_methods_agree spec =
  (* The compose-based and relational backward images must coincide. *)
  let _, _, _, trans, target, _ = build spec in
  Bdd.equal
    (Fsm.Trans.pre_image ~via:`Compose trans target)
    (Fsm.Trans.pre_image ~via:`Relational trans target)
  && Bdd.equal
       (Fsm.Trans.back_image ~via:`Compose trans target)
       (Fsm.Trans.back_image ~via:`Relational trans target)

let prop_back_image_theorem1 spec =
  (* Theorem 1: BackImage distributes over conjunction. *)
  let _, man, _, trans, target, vars = build spec in
  let x0 = Bdd.var man vars.(0) in
  let a = Bdd.bor man target x0 in
  let b = Bdd.bor man target (Bdd.bnot man x0) in
  (* a /\ b = target \/ (x0 /\ ~x0) = target *)
  Bdd.equal
    (Fsm.Trans.back_image trans (Bdd.band man a b))
    (Bdd.band man (Fsm.Trans.back_image trans a) (Fsm.Trans.back_image trans b))

let prop_is_total spec =
  let _, _, _, trans, _, _ = build spec in
  let expect =
    List.for_all
      (fun s -> explicit_successors spec s <> [])
      (List.init (1 lsl n_state) (fun s -> s))
  in
  Fsm.Trans.is_total trans = expect

let prop_successors_of_state spec =
  let _, man, bits, trans, _, _ = build spec in
  List.for_all
    (fun s ->
      let n = Bdd.num_vars man in
      let env = Array.make n false in
      Array.iteri
        (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (s lsr i) land 1 = 1)
        bits;
      let succ = Fsm.Trans.successors_of_state trans env in
      List.sort compare (decode man bits succ)
      = List.sort compare (explicit_successors spec s))
    (List.init (1 lsl n_state) (fun s -> s))

let prop_step_in_image spec =
  (* Every concrete [Trans.step] successor lies in the symbolic image
     of its source state. *)
  let _, man, bits, trans, _, vars = build spec in
  List.for_all
    (fun s ->
      List.for_all
        (fun inp ->
          let env = Array.make (Bdd.num_vars man) false in
          Array.iteri
            (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (s lsr i) land 1 = 1)
            bits;
          for k = 0 to n_input - 1 do
            env.(vars.(n_state + k)) <- (inp lsr k) land 1 = 1
          done;
          (not (Fsm.Trans.legal_input trans env))
          ||
          let succ = Fsm.Trans.step trans env in
          let img = Fsm.Trans.successors_of_state trans env in
          Bdd.eval man succ img)
        (List.init (1 lsl n_input) Fun.id))
    (List.init (1 lsl n_state) Fun.id)

let prop_image_with_extra spec =
  (* image ~extra:[e] z = image (z /\ e) for constraints over current
     state -- the contract the FD method relies on. *)
  let _, man, _, trans, target, vars = build spec in
  let extra =
    Bdd.bor man (Bdd.var man vars.(1)) (Bdd.bnot man (Bdd.var man vars.(2)))
  in
  Bdd.equal
    (Fsm.Trans.image ~extra:[ extra ] trans target)
    (Fsm.Trans.image trans (Bdd.band man target extra))

(* --- unit tests on a tiny hand-built machine: a 2-bit counter that
   increments when the input says so. *)
let counter () =
  let sp = Fsm.Space.create () in
  let b0 = Fsm.Space.state_bit ~name:"c0" sp in
  let b1 = Fsm.Space.state_bit ~name:"c1" sp in
  let tick = Fsm.Space.input_bit ~name:"tick" sp in
  let man = Fsm.Space.man sp in
  let c0 = Bdd.var man b0.cur and c1 = Bdd.var man b1.cur in
  let t = Bdd.var man tick in
  let n0 = Bdd.bxor man c0 t in
  let n1 = Bdd.bxor man c1 (Bdd.band man c0 t) in
  let trans = Fsm.Trans.make sp ~assigns:[ (b0, n0); (b1, n1) ] in
  (sp, man, (b0, b1), trans)

let test_counter_image () =
  let _, man, (b0, b1), trans = counter () in
  (* From state 0 (c1c0=00) we can reach 0 (no tick) and 1 (tick). *)
  let zero =
    Bdd.band man (Bdd.nvar man b0.cur) (Bdd.nvar man b1.cur)
  in
  let img = Fsm.Trans.image trans zero in
  let expect =
    Bdd.bor man zero (Bdd.band man (Bdd.var man b0.cur) (Bdd.nvar man b1.cur))
  in
  Alcotest.(check bool) "image of {0} = {0,1}" true (Bdd.equal img expect)

let test_counter_total () =
  let _, _, _, trans = counter () in
  Alcotest.(check bool) "counter is total" true (Fsm.Trans.is_total trans)

let test_missing_assign_rejected () =
  let sp = Fsm.Space.create () in
  let b0 = Fsm.Space.state_bit sp in
  let _b1 = Fsm.Space.state_bit sp in
  let man = Fsm.Space.man sp in
  Alcotest.(check bool) "partial assignment rejected" true
    (try
       ignore (Fsm.Trans.make sp ~assigns:[ (b0, Bdd.tru man) ]);
       false
     with Invalid_argument _ -> true)

let test_interleaved_words () =
  let sp = Fsm.Space.create () in
  let words = Fsm.Space.interleaved_words sp ~count:3 ~width:2 in
  (* Bit 0 of all words allocated before bit 1 of any word. *)
  let max_bit0 =
    Array.fold_left (fun acc w -> max acc w.(0).Fsm.Space.cur) 0 words
  in
  let min_bit1 =
    Array.fold_left (fun acc w -> min acc w.(1).Fsm.Space.cur) max_int words
  in
  Alcotest.(check bool) "bit-slice major order" true (max_bit0 < min_bit1)

let test_cur_next_adjacent () =
  let sp = Fsm.Space.create () in
  let b = Fsm.Space.state_bit sp in
  Alcotest.(check int) "next level adjacent to cur" (b.cur + 1) b.next

(* The [`Auto] image race on a call whose first attempt is abandoned:
   on the assisted depth-8 moving-average filter, the back image of its
   second and fourth property conjuncts costs composition about 1.46M
   nodes and the relational product about 51K, so the composition probe
   (one progress period) is abandoned, collected, and the relational
   attempt wins. *)
let race_counter name =
  Obs.Registry.count (Obs.Registry.counter Obs.Registry.default name)

let filter8_assisted () =
  Models.Avg_filter.make
    { Models.Avg_filter.default with depth = 8; assisted = true }

let test_race_abandoned_attempt () =
  let model = filter8_assisted () in
  let man = Mc.Model.man model and trans = model.Mc.Model.trans in
  let property = Mc.Model.property model in
  let z = Bdd.band man (List.nth property 1) (List.nth property 3) in
  let held = z :: property in
  (* The caller's handles, evaluated on fixed random states before the
     call and again after it. *)
  let rng = Random.State.make [| 27 |] in
  let envs =
    List.init 64 (fun _ ->
        Array.init (Bdd.num_vars man) (fun _ -> Random.State.bool rng))
  in
  let meaning () =
    List.map (fun h -> (Bdd.size h, List.map (fun e -> Bdd.eval man e h) envs))
      held
  in
  let before = meaning () in
  let gcs = Bdd.gc_events man in
  let reclaimed = race_counter "fsm.image.reclaimed_nodes" in
  let relational_wins = race_counter "fsm.image.relational_wins" in
  Alcotest.(check bool) "composition leads a fresh relation" true
    (Fsm.Trans.race_leader trans = `Compose);
  let auto = Fsm.Trans.back_image trans z in
  Alcotest.(check int) "the abandoned attempt was collected once" (gcs + 1)
    (Bdd.gc_events man);
  Alcotest.(check bool) "the collection freed nodes" true
    (race_counter "fsm.image.reclaimed_nodes" > reclaimed);
  Alcotest.(check int) "the relational product won" (relational_wins + 1)
    (race_counter "fsm.image.relational_wins");
  Bdd.check_invariants man;
  Alcotest.(check bool) "the caller's handles mean the same" true
    (meaning () = before);
  Alcotest.(check bool) "same BDD as the relational path" true
    (Bdd.equal auto (Fsm.Trans.back_image ~via:`Relational trans z));
  Alcotest.(check bool) "same BDD as the composition path" true
    (Bdd.equal auto (Fsm.Trans.back_image ~via:`Compose trans z))

(* After a relational win, the next [`Auto] call on the same relation
   starts relational: it wins with no collection and no composition
   attempt, even on a target where composition is the cheaper path. *)
let test_race_remembers_winner () =
  let model = filter8_assisted () in
  let man = Mc.Model.man model and trans = model.Mc.Model.trans in
  let property = Mc.Model.property model in
  ignore
    (Fsm.Trans.back_image trans
       (Bdd.band man (List.nth property 1) (List.nth property 3)));
  Alcotest.(check bool) "the relational product leads" true
    (Fsm.Trans.race_leader trans = `Relational);
  let gcs = Bdd.gc_events man in
  let compose_wins = race_counter "fsm.image.compose_wins" in
  let relational_wins = race_counter "fsm.image.relational_wins" in
  let z = List.nth property 0 in
  let auto = Fsm.Trans.back_image trans z in
  Alcotest.(check int) "no attempt abandoned" gcs (Bdd.gc_events man);
  Alcotest.(check int) "no composition win" compose_wins
    (race_counter "fsm.image.compose_wins");
  Alcotest.(check int) "a relational win" (relational_wins + 1)
    (race_counter "fsm.image.relational_wins");
  Alcotest.(check bool) "still the relational product" true
    (Fsm.Trans.race_leader trans = `Relational);
  Alcotest.(check bool) "same BDD as the composition path" true
    (Bdd.equal auto (Fsm.Trans.back_image ~via:`Compose trans z))

(* A job attempt starts the race afresh: after a relational win has
   made the relational product lead, an XICI attempt on the same model
   starts its first back image with composition, which wins it, as on a
   fresh model. *)
let test_race_reset_per_attempt () =
  let model = filter8_assisted () in
  let man = Mc.Model.man model and trans = model.Mc.Model.trans in
  let property = Mc.Model.property model in
  ignore
    (Fsm.Trans.back_image trans
       (Bdd.band man (List.nth property 1) (List.nth property 3)));
  Alcotest.(check bool) "the relational product leads" true
    (Fsm.Trans.race_leader trans = `Relational);
  let compose_wins = race_counter "fsm.image.compose_wins" in
  let limits man = Mc.Limits.start ~max_created_nodes:4_000_000 man in
  let r = Mc.Job.attempt ~limits (Mc.Job.Method Mc.Runner.Xici) model in
  Alcotest.(check string) "proved" "proved"
    (Mc.Report.status_string r.Mc.Job.report);
  Alcotest.(check bool) "composition won a call" true
    (race_counter "fsm.image.compose_wins" > compose_wins)

(* When both probes are abandoned, composition runs under the
   relational product's projected cost, and the relational product
   finishes if composition cannot beat it.  On the assisted depth-8
   filter's first backward image the relational probe gets through
   about half its conjuncts, so composition, which blows up past any
   budget, is abandoned a second time, and the relational product
   finishes with about 400K nodes.  A guard that bounds only the nodes
   created does not stop the race: everything the race spends fits in
   1M nodes. *)
let test_race_projection () =
  let model = filter8_assisted () in
  let man = Mc.Model.man model and trans = model.Mc.Model.trans in
  let bad = Bdd.bnot man (Bdd.conj man (Mc.Model.property model)) in
  let limits = Mc.Limits.start ~max_created_nodes:1_000_000 man in
  let gcs = Bdd.gc_events man in
  let relational_wins = race_counter "fsm.image.relational_wins" in
  let auto =
    Mc.Limits.with_guard limits man (fun () -> Fsm.Trans.pre_image trans bad)
  in
  Alcotest.(check int) "three attempts abandoned and collected" (gcs + 3)
    (Bdd.gc_events man);
  Alcotest.(check int) "the relational product finished"
    (relational_wins + 1)
    (race_counter "fsm.image.relational_wins");
  Alcotest.(check bool) "the relational product leads" true
    (Fsm.Trans.race_leader trans = `Relational);
  Bdd.check_invariants man;
  Alcotest.(check bool) "same BDD as the relational path" true
    (Bdd.equal auto (Fsm.Trans.pre_image ~via:`Relational trans bad));
  Fsm.Trans.reset_race trans;
  Alcotest.(check bool) "a reset race starts with composition" true
    (Fsm.Trans.race_leader trans = `Compose)

(* The other way round: on the network models' backward image the
   relational product is 4-5x dearer than composition.  With five
   processes its probe gets through about a third of its conjuncts,
   and composition wins under the projection; with six it gets through
   none, and composition finishes with no budget of its own. *)
let test_race_composition_finishes () =
  List.iter
    (fun procs ->
      let model = Models.Network.make { Models.Network.procs; bug = false } in
      let man = Mc.Model.man model and trans = model.Mc.Model.trans in
      let bad = Bdd.bnot man (Bdd.conj man (Mc.Model.property model)) in
      let gcs = Bdd.gc_events man in
      let compose_wins = race_counter "fsm.image.compose_wins" in
      let auto = Fsm.Trans.pre_image trans bad in
      let name = Printf.sprintf "network-%d: " procs in
      Alcotest.(check int) (name ^ "both probes abandoned") (gcs + 2)
        (Bdd.gc_events man);
      Alcotest.(check int) (name ^ "composition won") (compose_wins + 1)
        (race_counter "fsm.image.compose_wins");
      Bdd.check_invariants man;
      Alcotest.(check bool) (name ^ "same BDD as the composition path") true
        (Bdd.equal auto (Fsm.Trans.pre_image ~via:`Compose trans bad)))
    [ 5; 6 ]

let qtest name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name ~print:print_spec gen_spec prop)

let () =
  Alcotest.run "fsm"
    [
      ( "unit",
        [
          Alcotest.test_case "counter image" `Quick test_counter_image;
          Alcotest.test_case "counter totality" `Quick test_counter_total;
          Alcotest.test_case "partial assigns rejected" `Quick
            test_missing_assign_rejected;
          Alcotest.test_case "interleaved allocation" `Quick
            test_interleaved_words;
          Alcotest.test_case "cur/next adjacency" `Quick
            test_cur_next_adjacent;
        ] );
      ( "image race",
        [
          Alcotest.test_case "abandoned attempt reclaimed" `Quick
            test_race_abandoned_attempt;
          Alcotest.test_case "winner remembered" `Quick
            test_race_remembers_winner;
          Alcotest.test_case "a job attempt starts afresh" `Quick
            test_race_reset_per_attempt;
          Alcotest.test_case "the relational product finishes" `Quick
            test_race_projection;
          Alcotest.test_case "composition finishes" `Quick
            test_race_composition_finishes;
        ] );
      ( "vs explicit-state",
        [
          qtest "image" prop_image;
          qtest "pre_image" prop_pre_image;
          qtest "back_image" prop_back_image;
          qtest "theorem 1 (backimage distributes)" prop_back_image_theorem1;
          qtest "compose vs relational images" prop_image_methods_agree;
          qtest "is_total" prop_is_total;
          qtest "successors_of_state" prop_successors_of_state;
          qtest "image with extra conjuncts" prop_image_with_extra;
          qtest "concrete step lies in symbolic image" prop_step_in_image;
        ] );
    ]
