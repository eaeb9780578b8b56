(* Tests for the implicit-conjunction engine: list normalisation, the
   evaluation/simplification policy (semantics preservation under every
   configuration), the Theorem-2 cover, and the exact termination test
   checked against explicitly built disjunctions. *)

let nvars = 5

let gen_list =
  QCheck2.Gen.(list_size (int_range 1 6) (Testutil.gen_expr ~nvars))

let print_list es =
  String.concat " /\\ " (List.map (Format.asprintf "%a" Testutil.pp_expr) es)

let qtest ?(count = 200) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_list gen_list prop)

let build_all es =
  let man, vars = Testutil.fresh_man nvars in
  (man, vars, List.map (Testutil.build_bdd man vars) es)

(* --- Clist ------------------------------------------------------------ *)

let test_clist_normalise () =
  let man, vars = Testutil.fresh_man 2 in
  let x = Bdd.var man vars.(0) in
  let xs = Ici.Clist.of_list man [ Bdd.tru man; x; x ] in
  Alcotest.(check int) "true and dup dropped" 1 (Ici.Clist.length xs);
  let ys = Ici.Clist.of_list man [ x; Bdd.fls man ] in
  Alcotest.(check bool) "false collapses" true (Ici.Clist.is_false ys);
  Alcotest.(check bool) "empty list is true" true
    (Ici.Clist.is_true (Ici.Clist.of_list man [ Bdd.tru man ]))

let test_clist_eval () =
  let man, vars = Testutil.fresh_man 3 in
  let xs =
    Ici.Clist.of_list man [ Bdd.var man vars.(0); Bdd.nvar man vars.(2) ]
  in
  Alcotest.(check bool) "eval true case" true
    (Ici.Clist.eval man [| true; false; false |] xs);
  Alcotest.(check bool) "eval false case" false
    (Ici.Clist.eval man [| true; false; true |] xs)

let test_clist_implied_by () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0) and y = Bdd.var man vars.(1) in
  let xs = Ici.Clist.of_list man [ x; y ] in
  Alcotest.(check bool) "x&y implies list" true
    (Ici.Clist.implied_by man (Bdd.band man x y) xs);
  Alcotest.(check bool) "x alone does not" false
    (Ici.Clist.implied_by man x xs);
  (match Ici.Clist.find_unimplied man x xs with
  | Some w -> Alcotest.(check bool) "witness is y" true (Bdd.equal w y)
  | None -> Alcotest.fail "expected a witness")

(* --- Policy ------------------------------------------------------------ *)

let improve_preserves cfg es =
  let man, _, xs = build_all es in
  let before = Bdd.conj man xs in
  let after = Ici.Policy.improve man cfg (Ici.Clist.of_list man xs) in
  Bdd.equal before (Ici.Clist.force man after)

let prop_improve_default es = improve_preserves Ici.Policy.default es

let prop_improve_constrain es =
  improve_preserves
    { Ici.Policy.default with simplifier = Ici.Policy.Constrain }
    es

let prop_improve_cover es =
  improve_preserves
    { Ici.Policy.default with evaluation = Ici.Policy.Optimal_cover }
    es

let prop_improve_multi es =
  improve_preserves
    { Ici.Policy.default with simplifier = Ici.Policy.Multi_restrict }
    es

let prop_improve_no_simplify es =
  improve_preserves
    { Ici.Policy.default with simplifier = Ici.Policy.No_simplify }
    es

let all_configs =
  (* The full simplifier x evaluation cross product, at the default
     threshold and with the pair-step budget both on and off. *)
  List.concat_map
    (fun simplifier ->
      List.concat_map
        (fun evaluation ->
          [
            { Ici.Policy.default with simplifier; evaluation };
            { Ici.Policy.default with simplifier; evaluation;
              pair_step_factor = None };
          ])
        [ Ici.Policy.Greedy; Ici.Policy.Optimal_cover;
          Ici.Policy.No_evaluation ])
    [ Ici.Policy.Restrict; Ici.Policy.Constrain; Ici.Policy.Multi_restrict;
      Ici.Policy.No_simplify ]

let prop_improve_all_configs es =
  (* Soundness across the whole configuration space: the implied
     conjunction never changes. *)
  List.for_all (fun cfg -> improve_preserves cfg es) all_configs

let prop_greedy_size_guarantee es =
  (* The per-step acceptance test (Figure 1) bounds each accepted
     replacement: size(xi /\ xj) <= t * shared_size(xi, xj), and the
     pair's shared size is at most the whole list's.  So across k
     accepted steps the total shared size grows by at most (1 + t) per
     step (the new conjunct adds at most t * before nodes on top of
     what is already shared):

       shared_size(after) <= shared_size(before) * (1 + t)^k

     with k = length(before) - length(after).  A violation means the
     greedy loop accepted a pair the threshold should have rejected. *)
  let man, _, xs = build_all es in
  List.for_all
    (fun grow_threshold ->
      let before = Ici.Clist.of_list man xs in
      let after =
        Ici.Policy.greedy_evaluate man ~grow_threshold before
      in
      let steps = Ici.Clist.length before - Ici.Clist.length after in
      steps >= 0
      && float_of_int (Ici.Clist.shared_size after)
         <= (float_of_int (Ici.Clist.shared_size before)
             *. ((1.0 +. grow_threshold) ** float_of_int steps))
            +. 1e-9)
    [ 0.5; 1.0; 1.5; 3.0 ]

let prop_simplify_pass es =
  let man, _, xs = build_all es in
  let before = Bdd.conj man xs in
  let after =
    Ici.Policy.simplify_pass man Ici.Policy.default (Ici.Clist.of_list man xs)
  in
  Bdd.equal before (Ici.Clist.force man after)

let prop_huge_threshold_collapses es =
  (* With an unbounded threshold the greedy loop must fully evaluate the
     list down to (at most) one conjunct. *)
  let man, _, xs = build_all es in
  let after =
    Ici.Policy.greedy_evaluate man ~grow_threshold:infinity
      (Ici.Clist.of_list man xs)
  in
  Ici.Clist.length after <= 1

let prop_threshold_zero_keeps es =
  (* A threshold below any possible ratio performs no evaluation. *)
  let man, _, xs = build_all es in
  let normalised = Ici.Clist.of_list man xs in
  let after = Ici.Policy.greedy_evaluate man ~grow_threshold:0.0 normalised in
  Ici.Clist.length after = Ici.Clist.length normalised

let test_pair_cache_persists () =
  (* The Figure-1 pair table is caller-held state: scores computed in
     one [improve] call (one traversal iteration) must be reused by the
     next call when the conjuncts did not change -- and must be dropped
     after a gc moves the manager's generation, since cached BDD values
     may be dead. *)
  let man, vars = Testutil.fresh_man 4 in
  let xs = List.init 4 (fun i -> Bdd.var man vars.(i)) in
  let before_conj = Bdd.conj man xs in
  (* Threshold 0: every pair gets scored, none merged, so the list is
     stable across iterations and every pair key recurs. *)
  let cfg = { Ici.Policy.default with grow_threshold = 0.0 } in
  let st = Ici.Policy.create_state () in
  let hits =
    Obs.Registry.counter Obs.Registry.default "policy.pair_cache_hits"
  in
  let run () =
    Ici.Policy.improve man ~state:st cfg (Ici.Clist.of_list man xs)
  in
  let r1 = run () in
  let h0 = Obs.Registry.count hits in
  let r2 = run () in
  let h1 = Obs.Registry.count hits in
  Alcotest.(check bool) "second improve hits the persisted pair cache" true
    (h1 > h0);
  Alcotest.(check bool) "semantics preserved" true
    (Bdd.equal before_conj (Ici.Clist.force man r1)
    && Bdd.equal before_conj (Ici.Clist.force man r2));
  (* After a gc the cached BDDs may be dead: the table must invalidate,
     so the next call re-scores instead of hitting. *)
  Bdd.gc man;
  ignore (run ());
  let h2 = Obs.Registry.count hits in
  Alcotest.(check int) "gc invalidates the pair cache" h1 h2

(* --- Matching ----------------------------------------------------------- *)

(* Brute-force reference written independently of the DP. *)
let rec brute_cover n covered single_cost pair_cost =
  match List.find_opt (fun i -> not (List.mem i covered)) (List.init n Fun.id) with
  | None -> 0
  | Some i ->
    let best = ref (single_cost i + brute_cover n (i :: covered) single_cost pair_cost) in
    for j = 0 to n - 1 do
      if j <> i then begin
        let c =
          pair_cost (min i j) (max i j)
          + brute_cover n (i :: j :: covered) single_cost pair_cost
        in
        if c < !best then best := c
      end
    done;
    !best

let prop_matching_optimal (costs : (int * int list) list) =
  let n = min (List.length costs) 5 in
  n >= 1
  && begin
       let arr = Array.of_list costs in
       let single_cost i = 1 + abs (fst arr.(i)) mod 50 in
       let pair_cost i j =
         let row = snd arr.(i) in
         let v = try List.nth row (j mod max 1 (List.length row)) with _ -> 7 in
         1 + abs v mod 50
       in
       let pair_cost i j = pair_cost (min i j) (max i j) in
       let cover = Ici.Matching.min_cost_pair_cover ~n ~single_cost ~pair_cost in
       (* Validity: all covered. *)
       let covered = Hashtbl.create 8 in
       List.iter
         (function
           | Ici.Matching.Single i -> Hashtbl.replace covered i ()
           | Ici.Matching.Pair (i, j) ->
             Hashtbl.replace covered i ();
             Hashtbl.replace covered j ())
         cover;
       List.for_all (Hashtbl.mem covered) (List.init n Fun.id)
       && Ici.Matching.cover_cost ~single_cost ~pair_cost cover
          = brute_cover n [] single_cost pair_cost
     end

(* --- Tautology ----------------------------------------------------------- *)

let tautology_reference man ds = Bdd.is_true (Bdd.disj man ds)

let prop_tautology_exact es =
  let man, _, ds = build_all es in
  List.for_all
    (fun var_choice ->
      List.for_all
        (fun simplify ->
          List.for_all
            (fun memo ->
              Ici.Tautology.check ~var_choice ~simplify ~memo man ds
              = tautology_reference man ds)
            [ true; false ])
        [ true; false ])
    [ Ici.Tautology.First_top; Ici.Tautology.Lowest_level;
      Ici.Tautology.Most_common ]

let prop_implies_exact (es1, es2) =
  let man, vars = Testutil.fresh_man nvars in
  let xs = List.map (Testutil.build_bdd man vars) es1 in
  let ys = List.map (Testutil.build_bdd man vars) es2 in
  let expect = Bdd.implies man (Bdd.conj man xs) (Bdd.conj man ys) in
  Ici.Tautology.implies man xs ys = expect

let prop_equal_exact (es1, es2) =
  let man, vars = Testutil.fresh_man nvars in
  let xs = List.map (Testutil.build_bdd man vars) es1 in
  let ys = List.map (Testutil.build_bdd man vars) es2 in
  let expect = Bdd.equal (Bdd.conj man xs) (Bdd.conj man ys) in
  Ici.Tautology.equal man xs ys = expect

let test_tautology_units () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0) in
  Alcotest.(check bool) "x or ~x" true
    (Ici.Tautology.check man [ x; Bdd.bnot man x ]);
  Alcotest.(check bool) "x alone" false (Ici.Tautology.check man [ x ]);
  Alcotest.(check bool) "empty disjunction" false (Ici.Tautology.check man []);
  Alcotest.(check bool) "true member" true
    (Ici.Tautology.check man [ x; Bdd.tru man ])

let test_tautology_fuel () =
  let man, vars = Testutil.fresh_man 4 in
  (* A disjunction that is a tautology but needs expansions when the
     Theorem-3 step is disabled: pairwise ors of xors. *)
  let x = Bdd.var man vars.(0)
  and y = Bdd.var man vars.(1)
  and z = Bdd.var man vars.(2) in
  let ds =
    [ Bdd.band man x y; Bdd.band man x (Bdd.bnot man y); Bdd.bnot man x;
      Bdd.band man y z ]
  in
  let stats = Ici.Tautology.fresh_stats () in
  let r = Ici.Tautology.check ~simplify:false ~stats man ds in
  Alcotest.(check bool) "tautology detected" true r;
  Alcotest.(check bool) "expansions counted" true (stats.expansions >= 1);
  Alcotest.check_raises "fuel exhausts" Ici.Tautology.Out_of_fuel (fun () ->
      ignore (Ici.Tautology.check ~simplify:false ~fuel:0 man ds))

let test_stats_simplifications () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0) and y = Bdd.var man vars.(1) in
  let stats = Ici.Tautology.fresh_stats () in
  ignore (Ici.Tautology.check ~stats man [ x; y; Bdd.bnot man (Bdd.band man x y) ]);
  Alcotest.(check bool) "theorem-3 restricts counted" true
    (stats.simplifications >= 1)

let test_memo_survives_fuel_retry () =
  (* Caller-held memo table across fuel retries: verdicts settled by a
     starved attempt must survive its [Out_of_fuel] escape, so a retry
     at the SAME fuel converges (a fresh table at that fuel provably
     cannot) and its stats record hits on the survived entries.

     The "staircase" family makes that deterministic: block i is a
     2-variable tautology guarded by "x_i is the first true x", so the
     Shannon recursion burns one expansion per x going down, then
     completes (and memoises) one staircase tail per expansion coming
     back up.  Cold cost is 2k expansions; a starved attempt at k+2
     stores the deepest tails, and the retry hits them instead of
     re-descending. *)
  let man = Bdd.create () in
  let k = 6 in
  let blocks =
    List.init k (fun _ ->
        let x = Bdd.new_var man in
        let u = Bdd.new_var man in
        let v = Bdd.new_var man in
        (x, u, v))
  in
  let members =
    let rec go prefix = function
      | [] -> [ prefix ] (* the all-x-false leftover *)
      | (x, u, v) :: rest ->
        let xi = Bdd.var man x and ui = Bdd.var man u and vi = Bdd.var man v in
        let here = Bdd.band man prefix xi in
        [ Bdd.band man here (Bdd.band man ui vi);
          Bdd.band man here (Bdd.band man ui (Bdd.bnot man vi));
          Bdd.band man here (Bdd.bnot man ui) ]
        @ go (Bdd.band man prefix (Bdd.bnot man xi)) rest
    in
    go (Bdd.tru man) blocks
  in
  let starved = k + 2 in
  Alcotest.check_raises "fresh table at starved fuel dies"
    Ici.Tautology.Out_of_fuel (fun () ->
      ignore (Ici.Tautology.check ~simplify:false ~fuel:starved man members));
  let table = Ici.Tautology.create_memo () in
  let exhausted = ref 0 in
  let rec retry rounds =
    if rounds > 50 then
      Alcotest.fail "shared memo table never accumulated enough progress"
    else begin
      (* Fresh stats per attempt: [fuel] bounds a single attempt's
         expansions, and we want the converging attempt's own hits. *)
      let stats = Ici.Tautology.fresh_stats () in
      match
        Ici.Tautology.check ~simplify:false ~fuel:starved ~memo_table:table
          ~stats man members
      with
      | v -> (v, stats)
      | exception Ici.Tautology.Out_of_fuel ->
        incr exhausted;
        retry (rounds + 1)
    end
  in
  let verdict, stats = retry 0 in
  Alcotest.(check bool) "verdict correct" true verdict;
  Alcotest.(check bool) "at least one starved attempt preceded" true
    (!exhausted >= 1);
  Alcotest.(check bool) "memo hits grew across the retry" true
    (stats.Ici.Tautology.memo_hits > 0)

(* The memo is keyed by tags, and a gc may hand a freed node's index to
   a different function.  Here x0 | x1 and ~x0 | ~x1 (a tautology) are
   checked, dropped and collected; rebuilding the same shapes with AND
   reuses the freed indices in the same order, so x0 & x1 and
   ~x0 & ~x1 (not a tautology) carry the very same tags.  A memo that
   outlived the gc would answer the second check from the first. *)
let test_memo_dropped_across_gc () =
  let man, vars = Testutil.fresh_man 2 in
  let memo = Ici.Tautology.create_memo () in
  let x i = Bdd.var man vars.(i) and nx i = Bdd.nvar man vars.(i) in
  let first () =
    let a = Bdd.bor man (x 0) (x 1) and b = Bdd.bor man (nx 0) (nx 1) in
    Alcotest.(check bool) "x0|x1 | ~x0|~x1 is a tautology" true
      (Ici.Tautology.check ~memo_table:memo man [ a; b ]);
    (Bdd.tag a, Bdd.tag b)
  in
  let tags = (Sys.opaque_identity first) () in
  Bdd.gc man;
  Alcotest.(check int) "nothing is held" 0 (Bdd.live_nodes man);
  let a = Bdd.band man (x 0) (x 1) and b = Bdd.band man (nx 0) (nx 1) in
  Alcotest.(check (pair int int)) "the new functions reuse the tags" tags
    (Bdd.tag a, Bdd.tag b);
  Alcotest.(check bool) "x0&x1 | ~x0&~x1 is not a tautology" false
    (Ici.Tautology.check ~memo_table:memo man [ a; b ])

let qtest2 ?(count = 150) name prop =
  let gen = QCheck2.Gen.pair gen_list gen_list in
  let print (a, b) = print_list a ^ " // " ^ print_list b in
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let qtest_costs name prop =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (pair small_int (list_size (int_range 1 5) small_int)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name gen prop)

let () =
  Alcotest.run "ici"
    [
      ( "clist",
        [
          Alcotest.test_case "normalisation" `Quick test_clist_normalise;
          Alcotest.test_case "eval" `Quick test_clist_eval;
          Alcotest.test_case "implied_by / witness" `Quick
            test_clist_implied_by;
        ] );
      ( "policy",
        [
          qtest "improve preserves conjunction (default)" prop_improve_default;
          qtest "improve preserves conjunction (constrain)"
            prop_improve_constrain;
          qtest "improve preserves conjunction (optimal cover)"
            prop_improve_cover;
          qtest "improve preserves conjunction (no simplify)"
            prop_improve_no_simplify;
          qtest "improve preserves conjunction (multi-restrict)"
            prop_improve_multi;
          qtest ~count:100 "improve preserves conjunction (all 24 configs)"
            prop_improve_all_configs;
          qtest "greedy evaluation respects the growth bound"
            prop_greedy_size_guarantee;
          qtest "simplify_pass preserves conjunction" prop_simplify_pass;
          qtest "infinite threshold collapses to one conjunct"
            prop_huge_threshold_collapses;
          qtest "zero threshold evaluates nothing" prop_threshold_zero_keeps;
          Alcotest.test_case "pair cache persists across improve calls"
            `Quick test_pair_cache_persists;
        ] );
      ( "matching",
        [ qtest_costs "optimal pairwise cover vs brute force"
            prop_matching_optimal ] );
      ( "tautology",
        [
          Alcotest.test_case "unit cases" `Quick test_tautology_units;
          Alcotest.test_case "fuel and stats" `Quick test_tautology_fuel;
          Alcotest.test_case "simplification stats" `Quick
            test_stats_simplifications;
          Alcotest.test_case "memo survives fuel retries" `Quick
            test_memo_survives_fuel_retry;
          Alcotest.test_case "memo dropped across gc" `Quick
            test_memo_dropped_across_gc;
          qtest "exact vs built disjunction (all strategies)"
            prop_tautology_exact;
          qtest2 "implication exact" prop_implies_exact;
          qtest2 "equality exact" prop_equal_exact;
        ] );
    ]
