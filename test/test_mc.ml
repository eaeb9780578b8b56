(* Model-checker tests.

   The load-bearing checks are the agreement properties: on random small
   machines every method's verdict must equal the explicit-state
   reference, and every Violated verdict must come with a validated
   counterexample trace. *)

let limits man =
  Mc.Limits.start ~max_iterations:100 ~max_created_nodes:2_000_000 man

let qtest ?(count = 120) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:Testmachines.print_spec
       Testmachines.gen_spec prop)

let verdict_matches spec (report : Mc.Report.t) =
  let model_ok = Testmachines.reference_verdict spec in
  match report.status with
  | Mc.Report.Proved -> model_ok
  | Mc.Report.Violated _ -> not model_ok
  | Mc.Report.Exceeded _ -> false

let trace_valid model (report : Mc.Report.t) =
  match report.status with
  | Mc.Report.Violated tr ->
    let man = Mc.Model.man model in
    Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init
      ~good:(Ici.Clist.of_list man (Mc.Model.property model))
      tr
    (* ...and independently of any BDD image computation: every step
       must be realisable by some concrete legal input. *)
    && Fuzz.Oracle.replay model tr = Ok ()
  | Mc.Report.Proved | Mc.Report.Exceeded _ -> true

let check_method ?(allow_nonconvergence = false) meth spec =
  let model = Testmachines.build_model spec in
  let report = Mc.Runner.run ~limits meth model in
  (match report.status with
  | Mc.Report.Exceeded _ when allow_nonconvergence -> true
  | _ -> verdict_matches spec report)
  && trace_valid model report

let prop_forward spec = check_method Mc.Runner.Forward spec
let prop_backward spec = check_method Mc.Runner.Backward spec
let prop_fd spec = check_method Mc.Runner.Fd spec

let prop_ici spec =
  (* The original ICI termination test is not guaranteed to detect
     convergence; nonconvergence (reported as Exceeded) is acceptable,
     a wrong verdict is not. *)
  check_method ~allow_nonconvergence:true Mc.Runner.Ici spec

let prop_xici spec = check_method Mc.Runner.Xici spec

let prop_idi spec = check_method Mc.Runner.Idi spec

let prop_explicit spec = check_method Mc.Runner.Explicit spec

let prop_explicit_state_count spec =
  (* The hash-table search must visit exactly the reference's reachable
     state count. *)
  let model = Testmachines.build_model spec in
  let _, states = Mc.Explicit.run_full ~limits model in
  let expected = Testmachines.reference_reachable_count spec in
  (not (Testmachines.reference_verdict spec)) || states = expected

let prop_xici_variants spec =
  let model = Testmachines.build_model spec in
  let expected = Testmachines.reference_verdict spec in
  List.for_all
    (fun termination ->
      let report = Mc.Xici.run ~limits ~termination model in
      match report.status with
      | Mc.Report.Proved -> expected
      | Mc.Report.Violated _ -> not expected
      | Mc.Report.Exceeded _ -> termination = `Pointwise)
    [ `Exact_equal; `Exact_implication; `Pointwise ]

let prop_xici_configs spec =
  let expected = Testmachines.reference_verdict spec in
  List.for_all
    (fun cfg ->
      let model = Testmachines.build_model spec in
      let report = Mc.Xici.run ~limits ~cfg model in
      match report.status with
      | Mc.Report.Proved -> expected
      | Mc.Report.Violated _ -> not expected
      | Mc.Report.Exceeded _ -> false)
    [
      Ici.Policy.default;
      { Ici.Policy.default with simplifier = Ici.Policy.Constrain };
      { Ici.Policy.default with evaluation = Ici.Policy.Optimal_cover };
      { Ici.Policy.default with evaluation = Ici.Policy.No_evaluation };
      { Ici.Policy.default with grow_threshold = 1.0 };
      { Ici.Policy.default with simplifier = Ici.Policy.Multi_restrict };
      { Ici.Policy.default with pair_step_factor = None };
    ]

(* --- unit tests on a 2-bit counter ------------------------------------- *)

(* Counter increments when the input ticks; init = 0. *)
let counter_model ~good_limit =
  let sp = Fsm.Space.create () in
  let w = Fsm.Space.state_word ~name:"c" sp ~width:2 in
  let tick = Fsm.Space.input_bit ~name:"tick" sp in
  let man = Fsm.Space.man sp in
  let c = Fsm.Space.cur_vec sp w in
  let t = Bdd.var man tick in
  let inc = Bvec.add man c (Bvec.const man ~width:2 1) in
  let nextv = Bvec.mux man t inc c in
  let assigns = [ (w.(0), nextv.(0)); (w.(1), nextv.(1)) ] in
  let trans = Fsm.Trans.make sp ~assigns in
  let init = Bvec.eq man c (Bvec.const man ~width:2 0) in
  let good = [ Bvec.ule_const man c good_limit ] in
  Mc.Model.make ~name:"counter" ~space:sp ~trans ~init ~good ()

let test_counter_proved () =
  let model = counter_model ~good_limit:3 in
  List.iter
    (fun meth ->
      let r = Mc.Runner.run ~limits meth model in
      Alcotest.(check bool)
        (Mc.Runner.name meth ^ " proves c<=3")
        true (Mc.Report.is_proved r))
    Mc.Runner.all

let test_counter_violated () =
  let model = counter_model ~good_limit:2 in
  List.iter
    (fun meth ->
      let r = Mc.Runner.run ~limits meth model in
      match r.Mc.Report.status with
      | Mc.Report.Violated tr ->
        let man = Mc.Model.man model in
        Alcotest.(check bool)
          (Mc.Runner.name meth ^ " trace validates")
          true
          (Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init
             ~good:(Ici.Clist.of_list man (Mc.Model.property model))
             tr);
        (* Shortest violation: 0 -> 1 -> 2 -> 3, four states. *)
        Alcotest.(check int)
          (Mc.Runner.name meth ^ " trace length")
          4 (List.length tr)
      | Mc.Report.Proved | Mc.Report.Exceeded _ ->
        Alcotest.fail (Mc.Runner.name meth ^ " should find the violation"))
    Mc.Runner.all

let test_counter_iterations () =
  (* Forward reaches the fixpoint in 3 image steps (counter saturates
     its 4 values after 3 increments). *)
  let model = counter_model ~good_limit:3 in
  let r = Mc.Forward.run ~limits model in
  Alcotest.(check int) "forward iterations" 3 r.Mc.Report.iterations;
  (* Backward: G_0 = true (property covers all states) is inductive. *)
  let r = Mc.Backward.run ~limits model in
  Alcotest.(check bool) "backward converges fast" true
    (r.Mc.Report.iterations <= 1)

let test_limits_node_budget () =
  let model = counter_model ~good_limit:3 in
  let tight man = Mc.Limits.start ~max_created_nodes:1 man in
  let r = Mc.Forward.run ~limits:tight model in
  match r.Mc.Report.status with
  | Mc.Report.Exceeded _ -> ()
  | Mc.Report.Proved | Mc.Report.Violated _ ->
    Alcotest.fail "node budget should trip"

(* A run bounded only by the nodes it creates: the image race's losing
   attempts must leave the winner room.  On the assisted depth-8 filter
   composition blows up on the first back image, which the relational
   product finishes in about 400K nodes; the whole proof creates about
   1.6M. *)
let test_created_budget_leaves_race_room () =
  let model =
    Models.Avg_filter.make
      { Models.Avg_filter.default with depth = 8; assisted = true }
  in
  let limits man = Mc.Limits.start ~max_created_nodes:5_000_000 man in
  let r = Mc.Backward.run ~limits model in
  Alcotest.(check string) "proved" "proved" (Mc.Report.status_string r)

let test_report_strings () =
  let model = counter_model ~good_limit:3 in
  let r = Mc.Forward.run ~limits model in
  Alcotest.(check string) "status string" "proved" (Mc.Report.status_string r);
  Alcotest.(check string) "uniform conjunct annotation" " (3 x 9 nodes)"
    (Mc.Report.conjuncts_string [ 9; 9; 9 ]);
  Alcotest.(check string) "mixed conjunct annotation" " (102, 45)"
    (Mc.Report.conjuncts_string [ 102; 45 ]);
  Alcotest.(check string) "singleton not annotated" ""
    (Mc.Report.conjuncts_string [ 42 ])

let test_induction () =
  (* The counter's property c <= 3 is trivially inductive (it is TRUE
     over 2 bits); c <= 2 is implied initially but not preserved; and
     c >= 1 is not even implied by init. *)
  let model = counter_model ~good_limit:2 in
  let man = Mc.Model.man model in
  let full = Mc.Model.property (counter_model ~good_limit:3) in
  (match Mc.Induction.check model full with
  | Mc.Induction.Inductive -> ()
  | Mc.Induction.Not_implied_by_init _ | Mc.Induction.Not_preserved _ ->
    Alcotest.fail "c<=3 should be inductive");
  (match Mc.Induction.check model (Mc.Model.property model) with
  | Mc.Induction.Not_preserved [ f ] ->
    (* The CTI must satisfy the invariant and step outside it. *)
    Alcotest.(check bool) "cti state inside" true
      (Bdd.eval man f.Mc.Induction.state f.Mc.Induction.conjunct);
    Alcotest.(check bool) "cti successor outside" false
      (Bdd.eval man f.Mc.Induction.successor f.Mc.Induction.conjunct)
  | Mc.Induction.Inductive | Mc.Induction.Not_implied_by_init _
  | Mc.Induction.Not_preserved _ ->
    Alcotest.fail "c<=2 should fail induction with one CTI");
  let c_ge_1 =
    Bdd.bnot man
      (Bdd.band man
         (Bdd.bnot man (Bdd.var man 0))
         (Bdd.bnot man (Bdd.var man 2)))
  in
  (match Mc.Induction.check model [ c_ge_1 ] with
  | Mc.Induction.Not_implied_by_init [ _ ] -> ()
  | Mc.Induction.Inductive | Mc.Induction.Not_implied_by_init _
  | Mc.Induction.Not_preserved _ ->
    Alcotest.fail "c>=1 should fail the init check");
  (* Derived XICI invariants establish the property (by construction). *)
  let proved = counter_model ~good_limit:3 in
  (match Mc.Xici.run_full ~limits proved with
  | _, Some derived ->
    Alcotest.(check bool) "derived list establishes property" true
      (Mc.Induction.establishes proved derived)
  | _, None -> Alcotest.fail "expected a derived fixpoint")

let test_concrete_replay_on_models () =
  (* Every method that finds a planted bug in the library models must
     report a trace that replays concretely through [Fsm.Trans.step]:
     starting in an initial state, each step realisable by some legal
     input, ending in a bad state. *)
  let limits man =
    (* The cpu model's forward run needs more node headroom than the
       random-machine default (same budget as test_models). *)
    Mc.Limits.start ~max_iterations:60 ~max_created_nodes:4_000_000 man
  in
  let cases =
    [
      ( "fifo",
        (fun () ->
          Models.Typed_fifo.make
            { Models.Typed_fifo.depth = 3; width = 4; bound = 9; bug = true }),
        Mc.Runner.all );
      ( "network",
        (fun () -> Models.Network.make { Models.Network.procs = 2; bug = true }),
        [ Mc.Runner.Forward; Mc.Runner.Backward; Mc.Runner.Xici ] );
      ( "filter",
        (fun () ->
          Models.Avg_filter.make
            { Models.Avg_filter.depth = 2; sample_width = 3; assisted = false;
              bug = true }),
        [ Mc.Runner.Forward; Mc.Runner.Xici ] );
      ( "cpu",
        (fun () ->
          Models.Pipeline_cpu.make
            { Models.Pipeline_cpu.regs = 2; width = 1; assisted = false;
              bug = true }),
        [ Mc.Runner.Forward; Mc.Runner.Xici ] );
      ( "abp",
        (fun () -> Models.Abp.make { Models.Abp.width = 2; bug = true }),
        [ Mc.Runner.Forward; Mc.Runner.Backward; Mc.Runner.Xici;
          Mc.Runner.Idi ] );
    ]
  in
  List.iter
    (fun (name, make, meths) ->
      List.iter
        (fun meth ->
          let model = make () in
          let label = name ^ "/" ^ Mc.Runner.name meth in
          let r = Mc.Runner.run ~limits meth model in
          match r.Mc.Report.status with
          | Mc.Report.Violated tr -> (
            match Fuzz.Oracle.replay model tr with
            | Ok () -> ()
            | Error e -> Alcotest.fail (label ^ ": " ^ e))
          | Mc.Report.Proved | Mc.Report.Exceeded _ ->
            Alcotest.fail (label ^ " should find the violation"))
        meths)
    cases

(* --- good set collapsing to [false] (xici.ml's empty-core branch) ---- *)

(* One state bit that toggles every step; init and the property are both
   "b".  The first back image is ~b, so improve([b; ~b]) collapses the
   good set to [false] while init is nonempty: the reconstruction branch
   under test must synthesise a violation trace, and that trace must
   replay concretely through [Fsm.Trans.step]. *)
let toggle_model () =
  let sp = Fsm.Space.create () in
  let b = Fsm.Space.state_bit ~name:"b" sp in
  let man = Fsm.Space.man sp in
  let cur = Fsm.Space.cur sp b in
  let trans = Fsm.Trans.make sp ~assigns:[ (b, Bdd.bnot man cur) ] in
  Mc.Model.make ~name:"toggle" ~space:sp ~trans ~init:cur ~good:[ cur ] ()

(* The fixpoint frame's contract: a run's reported peak is the largest
   set its iteration log recorded, and every row it logged was counted
   in "mc.iterations".  Checked for every symbolic method on a model
   that proves and one that is violated. *)
let test_frame_contract () =
  let counter = Obs.Registry.counter Obs.Registry.default "mc.iterations" in
  let filter bug () =
    Models.Avg_filter.make
      { Models.Avg_filter.depth = 2; sample_width = 3; assisted = false; bug }
  in
  List.iter
    (fun (make, expect_proved) ->
      List.iter
        (fun meth ->
          let model = make () in
          let name = Mc.Runner.name meth in
          Obs.Iterlog.clear ();
          let before = Obs.Registry.count counter in
          let r = Mc.Runner.run ~limits meth model in
          let rows = Obs.Iterlog.rows () in
          Alcotest.(check bool)
            (name ^ " verdict") expect_proved (Mc.Report.is_proved r);
          Alcotest.(check bool)
            (name ^ " decided") true (Mc.Report.decided r);
          Alcotest.(check bool) (name ^ " logged rows") true (rows <> []);
          Alcotest.(check bool)
            (name ^ " peak is not empty") true (r.Mc.Report.peak_set_nodes > 0);
          Alcotest.(check int)
            (name ^ " peak is the largest logged set")
            (List.fold_left
               (fun m (row : Obs.Iterlog.row) -> max m row.Obs.Iterlog.nodes)
               0 rows)
            r.Mc.Report.peak_set_nodes;
          Alcotest.(check int)
            (name ^ " every row counted")
            (List.length rows)
            (Obs.Registry.count counter - before))
        Mc.Runner.[ Backward; Forward; Fd; Ici; Xici; Idi ])
    [ (filter false, true); (filter true, false) ]

let test_collapse_counterexample () =
  List.iter
    (fun termination ->
      let model = toggle_model () in
      let man = Mc.Model.man model in
      let r = Mc.Xici.run ~limits ~termination model in
      match r.Mc.Report.status with
      | Mc.Report.Violated tr ->
        Alcotest.(check bool) "trace validates" true
          (Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init
             ~good:(Ici.Clist.of_list man (Mc.Model.property model))
             tr);
        (match Fuzz.Oracle.replay model tr with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("trace does not replay: " ^ e));
        (* Shortest violation: b=1 then b=0, two states. *)
        Alcotest.(check int) "trace length" 2 (List.length tr)
      | Mc.Report.Proved | Mc.Report.Exceeded _ ->
        Alcotest.fail "collapsed good set should yield a violation")
    [ `Exact_equal; `Exact_implication; `Pointwise ]

(* --- batch verification ----------------------------------------------- *)

(* Counter with one good conjunct per limit, so [Mc.Batch.of_goods]
   yields one property per limit.  With [saturate = s] the counter stops
   at [s], so limits [>= s] hold without being tautologies. *)
let multi_counter_model ?saturate limits_list =
  let sp = Fsm.Space.create () in
  let w = Fsm.Space.state_word ~name:"c" sp ~width:2 in
  let tick = Fsm.Space.input_bit ~name:"tick" sp in
  let man = Fsm.Space.man sp in
  let c = Fsm.Space.cur_vec sp w in
  let t = Bdd.var man tick in
  let t =
    match saturate with
    | None -> t
    | Some s -> Bdd.band man t (Bvec.ule_const man c (s - 1))
  in
  let inc = Bvec.add man c (Bvec.const man ~width:2 1) in
  let nextv = Bvec.mux man t inc c in
  let assigns = [ (w.(0), nextv.(0)); (w.(1), nextv.(1)) ] in
  let trans = Fsm.Trans.make sp ~assigns in
  let init = Bvec.eq man c (Bvec.const man ~width:2 0) in
  let good = List.map (fun l -> Bvec.ule_const man c l) limits_list in
  Mc.Model.make ~name:"counter" ~space:sp ~trans ~init ~good ()

let batch_item_replays model (it : Mc.Batch.item) =
  (* Validate each counterexample against a model holding only that
     property's goods: batch traces must be genuine for the property as
     given (not for the pool-assisted model it ran on), realisable step
     by step through [Fsm.Trans.step]. *)
  match it.Mc.Batch.report.Mc.Report.status with
  | Mc.Report.Violated tr ->
    let sub =
      Mc.Model.make ~name:model.Mc.Model.name ~space:model.Mc.Model.space
        ~trans:model.Mc.Model.trans ~init:model.Mc.Model.init
        ~good:it.Mc.Batch.prop.Mc.Batch.goods ()
    in
    (match Fuzz.Oracle.replay sub tr with
    | Ok () -> true
    | Error _ -> false)
  | Mc.Report.Proved | Mc.Report.Exceeded _ -> true

let batch_matches_sequential ?(domains = 1) meth limits_list =
  let model = multi_counter_model limits_list in
  let props = Mc.Batch.of_goods model in
  let res = Mc.Batch.run ~limits ~meth ~domains model props in
  List.iteri
    (fun i (it : Mc.Batch.item) ->
      let sub =
        Mc.Model.make ~name:model.Mc.Model.name ~space:model.Mc.Model.space
          ~trans:model.Mc.Model.trans ~init:model.Mc.Model.init
          ~good:(List.nth props i).Mc.Batch.goods ()
      in
      let seq = Mc.Runner.run ~limits meth sub in
      Alcotest.(check string)
        (Printf.sprintf "%s/p%d verdict" (Mc.Runner.name meth) i)
        (Mc.Report.status_string seq)
        (Mc.Report.status_string it.Mc.Batch.report);
      Alcotest.(check bool)
        (Printf.sprintf "%s/p%d trace replays" (Mc.Runner.name meth) i)
        true (batch_item_replays model it))
    res.Mc.Batch.items

let test_batch_matches_sequential_all_methods () =
  List.iter
    (fun meth ->
      batch_matches_sequential meth [ 2; 1 ];
      batch_matches_sequential meth [ 3; 3 ];
      batch_matches_sequential meth [ 3; 1; 2 ])
    Mc.Runner.all

let test_batch_parallel_domains () =
  let model = multi_counter_model [ 3; 1; 2; 3 ] in
  let res = Mc.Batch.run ~limits ~domains:2 model (Mc.Batch.of_goods model) in
  Alcotest.(check int) "two domains used" 2 res.Mc.Batch.domains_used;
  batch_matches_sequential ~domains:2 Mc.Runner.Xici [ 3; 1; 2; 3 ]

let test_batch_shortest_violations () =
  (* Violated verdicts are final in the sweep: each property keeps the
     shortest violation of its own goods, and nothing is pooled. *)
  let model = multi_counter_model [ 2; 1 ] in
  let res = Mc.Batch.run ~limits model (Mc.Batch.of_goods model) in
  List.iter2
    (fun (it : Mc.Batch.item) len ->
      let name = it.Mc.Batch.prop.Mc.Batch.pname in
      (match it.Mc.Batch.report.Mc.Report.status with
      | Mc.Report.Violated tr ->
        Alcotest.(check int) (name ^ " shortest violation") len
          (List.length tr)
      | Mc.Report.Proved | Mc.Report.Exceeded _ ->
        Alcotest.fail (name ^ " should be Violated"));
      Alcotest.(check bool) (name ^ " trace replays concretely") true
        (batch_item_replays model it))
    res.Mc.Batch.items [ 4; 3 ];
  Alcotest.(check int) "violated properties are not pooled" 0
    res.Mc.Batch.stats.Mc.Batch.invariants_shared

let test_batch_pools_proved_goods () =
  (* The counter saturates at 2, so c<=2 holds and c<=1 fails.  A proved
     property feeds the pool of every later run; a violated one does
     not. *)
  let shared limits_list =
    let model = multi_counter_model ~saturate:2 limits_list in
    let res = Mc.Batch.run ~limits model (Mc.Batch.of_goods model) in
    ( List.map
        (fun (it : Mc.Batch.item) ->
          Mc.Report.status_string it.Mc.Batch.report)
        res.Mc.Batch.items,
      res.Mc.Batch.stats.Mc.Batch.invariants_shared )
  in
  let verdicts, n = shared [ 2; 1 ] in
  Alcotest.(check bool) "first property proved" true
    (List.hd verdicts = "proved");
  Alcotest.(check bool) "proved goods reach the later run" true (n >= 1);
  let verdicts, n = shared [ 1; 2 ] in
  Alcotest.(check bool) "second property proved" true
    (List.nth verdicts 1 = "proved");
  Alcotest.(check int) "a violated property adds nothing to the pool" 0 n

let test_batch_rejects_speculate () =
  let model = multi_counter_model [ 3; 1 ] in
  let props = Mc.Batch.of_goods model in
  Alcotest.(check bool) "~speculate:true raises Invalid_argument" true
    (match Mc.Batch.run ~limits ~speculate:true model props with
    | (_ : Mc.Batch.result) -> false
    | exception Invalid_argument _ -> true);
  let verdicts res =
    List.map
      (fun (it : Mc.Batch.item) -> Mc.Report.status_string it.Mc.Batch.report)
      res.Mc.Batch.items
  in
  Alcotest.(check (list string)) "~speculate:false is the default run"
    (verdicts (Mc.Batch.run ~limits model props))
    (verdicts (Mc.Batch.run ~limits ~speculate:false model props))

let prop_batch_agreement spec =
  (* Every conjunct of a random machine's property verified as its own
     property: all must prove exactly when the explicit-state reference
     says the conjunction holds, and every trace must replay. *)
  let model = Testmachines.build_model spec in
  let res = Mc.Batch.run ~limits model (Mc.Batch.of_goods model) in
  let decided =
    List.for_all
      (fun (it : Mc.Batch.item) ->
        match it.Mc.Batch.report.Mc.Report.status with
        | Mc.Report.Exceeded _ -> false
        | Mc.Report.Proved | Mc.Report.Violated _ -> true)
      res.Mc.Batch.items
  in
  let all_proved =
    List.for_all
      (fun (it : Mc.Batch.item) -> Mc.Report.is_proved it.Mc.Batch.report)
      res.Mc.Batch.items
  in
  decided
  && all_proved = Testmachines.reference_verdict spec
  && List.for_all (batch_item_replays model) res.Mc.Batch.items

(* --- freeze / thaw ---------------------------------------------------- *)

let test_freeze_thaw_roundtrip () =
  List.iter
    (fun good_limit ->
      let model = counter_model ~good_limit in
      let copy = Mc.Parallel.thaw (Mc.Parallel.freeze model) in
      Alcotest.(check string) "name survives" model.Mc.Model.name
        copy.Mc.Model.name;
      Alcotest.(check (list int))
        "state levels survive"
        (Fsm.Space.current_levels model.Mc.Model.space)
        (Fsm.Space.current_levels copy.Mc.Model.space);
      let r0 = Mc.Runner.run ~limits Mc.Runner.Xici model in
      let r1 = Mc.Runner.run ~limits Mc.Runner.Xici copy in
      Alcotest.(check string) "verdict survives"
        (Mc.Report.status_string r0) (Mc.Report.status_string r1);
      Alcotest.(check int) "iteration count survives" r0.Mc.Report.iterations
        r1.Mc.Report.iterations;
      match r1.Mc.Report.status with
      | Mc.Report.Violated tr -> (
        match Fuzz.Oracle.replay copy tr with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("thawed trace does not replay: " ^ e))
      | Mc.Report.Proved | Mc.Report.Exceeded _ -> ())
    [ 2; 3 ]

let test_freeze_thaw_corrupt () =
  let frozen = Mc.Parallel.freeze (counter_model ~good_limit:3) in
  Alcotest.(check bool) "corrupt input raises" true
    (match Mc.Parallel.thaw ("garbage " ^ frozen) with
    | (_ : Mc.Model.t) -> false
    | exception Mc.Parallel.Corrupt _ -> true)

(* --- portfolio vs sequential ------------------------------------------ *)

let test_portfolio_matches_sequential () =
  List.iter
    (fun good_limit ->
      let seq = Mc.Runner.run ~limits Mc.Runner.Xici (counter_model ~good_limit) in
      let res =
        Mc.Parallel.portfolio ~domains:2 ~limits (counter_model ~good_limit)
      in
      Alcotest.(check bool) "at least two domains" true
        (res.Mc.Parallel.domains_used = 2);
      match res.Mc.Parallel.winner with
      | None -> Alcotest.fail "portfolio should decide"
      | Some (_, r) ->
        Alcotest.(check bool) "winner is decided" true (Mc.Report.decided r);
        Alcotest.(check bool) "verdict agrees with sequential" true
          (Mc.Report.is_proved r = Mc.Report.is_proved seq))
    [ 2; 3 ]

let prop_portfolio_agreement spec =
  (* The racing configs are all sound, so whichever wins must agree with
     the explicit-state reference. *)
  let model = Testmachines.build_model spec in
  let res = Mc.Parallel.portfolio ~domains:2 ~limits model in
  match res.Mc.Parallel.winner with
  | Some (_, r) -> (
    let expected = Testmachines.reference_verdict spec in
    match r.Mc.Report.status with
    | Mc.Report.Proved -> expected
    | Mc.Report.Violated _ -> not expected
    | Mc.Report.Exceeded _ -> false)
  | None -> false

let test_portfolio_liveness_hooks () =
  (* All portfolio work happens on private managers in child domains,
     so hooks a supervised caller installed on its own manager never
     fire.  The optional callbacks are how a supervisor's heartbeat
     reaches the run -- they must actually be invoked from the worker
     domains, else every long portfolio job reads as hung. *)
  let rows = Atomic.make 0 in
  let res =
    Mc.Parallel.portfolio ~domains:2 ~limits
      ~on_progress:(fun ~live:_ -> ())
      ~iter_sink:(fun _ -> Atomic.incr rows)
      (counter_model ~good_limit:3)
  in
  (match res.Mc.Parallel.winner with
  | Some (_, r) ->
    Alcotest.(check bool) "hooks do not perturb the verdict" true
      (Mc.Report.decided r)
  | None -> Alcotest.fail "portfolio should still decide");
  Alcotest.(check bool) "iteration rows streamed from worker domains" true
    (Atomic.get rows > 0)

let test_portfolio_external_cancel () =
  (* A caller-supplied cancel must stop the run: no new config starts
     and no verdict is produced, mirroring how a pool supervisor aborts
     a job it has declared hung. *)
  let res =
    Mc.Parallel.portfolio ~domains:2 ~limits
      ~should_cancel:(fun () -> true)
      (counter_model ~good_limit:3)
  in
  Alcotest.(check bool) "no winner under external cancel" true
    (res.Mc.Parallel.winner = None);
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "nothing decided under external cancel" true
        (not (Mc.Report.decided r)))
    res.Mc.Parallel.reports

let test_validate_rejects_bogus () =
  let model = counter_model ~good_limit:2 in
  let man = Mc.Model.man model in
  let good = Ici.Clist.of_list man (Mc.Model.property model) in
  let nv = Bdd.num_vars man in
  (* A "trace" that starts outside init. *)
  let bogus = [ Array.make nv true ] in
  Alcotest.(check bool) "bogus trace rejected" false
    (Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init ~good
       bogus);
  Alcotest.(check bool) "empty trace rejected" false
    (Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init ~good [])

(* Node counts are a function of the sequence of BDD operations alone:
   the same solve under very different OCaml GC settings (minor heap
   size, space overhead) must create, hold and step through exactly the
   same nodes.  A kernel that frees nodes when the OCaml GC collects
   them fails this. *)
let test_node_counts_ignore_gc_settings () =
  let solve meth model_of =
    let model = model_of () in
    let man = Mc.Model.man model in
    let r = Mc.Runner.run ~limits meth model in
    ( Mc.Report.status_string r,
      r.nodes_created,
      r.peak_live_nodes,
      Bdd.steps man )
  in
  let under settings f =
    let saved = Gc.get () in
    Fun.protect
      ~finally:(fun () -> Gc.set saved)
      (fun () ->
        Gc.set (settings saved);
        f ())
  in
  List.iter
    (fun (label, meth, model_of) ->
      let small =
        under
          (fun g -> { g with Gc.minor_heap_size = 4096; space_overhead = 20 })
          (fun () -> solve meth model_of)
      in
      let large =
        under
          (fun g ->
            { g with Gc.minor_heap_size = 1 lsl 20; space_overhead = 400 })
          (fun () -> solve meth model_of)
      in
      let status, created, peak, steps = small in
      let status', created', peak', steps' = large in
      Alcotest.(check string) (label ^ ": verdict") status status';
      Alcotest.(check int) (label ^ ": created_nodes") created created';
      Alcotest.(check int) (label ^ ": peak_live_nodes") peak peak';
      Alcotest.(check int) (label ^ ": steps") steps steps')
    [
      ( "network-4 Bkwd",
        Mc.Runner.Backward,
        fun () ->
          Models.Network.make { Models.Network.procs = 4; bug = false } );
      ( "filter-4 XICI",
        Mc.Runner.Xici,
        fun () ->
          Models.Avg_filter.make
            { Models.Avg_filter.depth = 4; sample_width = 8; assisted = true;
              bug = false } );
    ]

let () =
  Alcotest.run "mc"
    [
      ( "counter",
        [
          Alcotest.test_case "all methods prove" `Quick test_counter_proved;
          Alcotest.test_case "all methods find violation + valid traces"
            `Quick test_counter_violated;
          Alcotest.test_case "iteration counts" `Quick
            test_counter_iterations;
          Alcotest.test_case "node budget" `Quick test_limits_node_budget;
          Alcotest.test_case "created-node budget leaves the race room"
            `Quick test_created_budget_leaves_race_room;
          Alcotest.test_case "node counts ignore GC settings" `Quick
            test_node_counts_ignore_gc_settings;
          Alcotest.test_case "report formatting" `Quick test_report_strings;
          Alcotest.test_case "trace validation rejects bogus" `Quick
            test_validate_rejects_bogus;
          Alcotest.test_case "bug-model traces replay concretely" `Quick
            test_concrete_replay_on_models;
          Alcotest.test_case "inductiveness checker" `Quick test_induction;
          Alcotest.test_case "collapsed good set reconstructs a trace" `Quick
            test_collapse_counterexample;
          Alcotest.test_case "frame peak and counter match the iteration log"
            `Quick test_frame_contract;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch matches sequential for every method"
            `Quick test_batch_matches_sequential_all_methods;
          Alcotest.test_case "parallel batch matches sequential" `Quick
            test_batch_parallel_domains;
          Alcotest.test_case "violations are final and not pooled" `Quick
            test_batch_shortest_violations;
          Alcotest.test_case "proved goods are pooled for later runs" `Quick
            test_batch_pools_proved_goods;
          Alcotest.test_case "speculation is rejected" `Quick
            test_batch_rejects_speculate;
          qtest ~count:20 "pooled batch agrees with explicit-state reference"
            prop_batch_agreement;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "freeze/thaw round-trip" `Quick
            test_freeze_thaw_roundtrip;
          Alcotest.test_case "thaw rejects corrupt input" `Quick
            test_freeze_thaw_corrupt;
          Alcotest.test_case "portfolio verdict matches sequential" `Quick
            test_portfolio_matches_sequential;
          Alcotest.test_case "portfolio liveness hooks reach workers" `Quick
            test_portfolio_liveness_hooks;
          Alcotest.test_case "portfolio external cancel" `Quick
            test_portfolio_external_cancel;
          qtest ~count:20 "portfolio agrees with explicit-state reference"
            prop_portfolio_agreement;
        ] );
      ( "agreement with explicit-state reference",
        [
          qtest "forward" prop_forward;
          qtest "backward" prop_backward;
          qtest "functional dependencies" prop_fd;
          qtest "original ICI" prop_ici;
          qtest "XICI" prop_xici;
          qtest "implicitly disjoined forward (IDI)" prop_idi;
          qtest "explicit-state (hash table)" prop_explicit;
          qtest ~count:80 "explicit-state reachable count"
            prop_explicit_state_count;
          qtest ~count:60 "XICI termination variants" prop_xici_variants;
          qtest ~count:60 "XICI policy configurations" prop_xici_configs;
        ] );
    ]
