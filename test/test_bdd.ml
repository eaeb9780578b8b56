(* Test suite for the BDD package: unit tests for each operation plus
   qcheck properties checked against brute-force truth tables. *)

let nvars = 5

let print_expr e = Format.asprintf "%a" Testutil.pp_expr e

let qtest ?(count = 300) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_expr
       (Testutil.gen_expr ~nvars) prop)

let qtest2 ?(count = 200) name prop =
  let gen = QCheck2.Gen.pair (Testutil.gen_expr ~nvars) (Testutil.gen_expr ~nvars) in
  let print (a, b) = print_expr a ^ " // " ^ print_expr b in
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

(* --- Unit tests ------------------------------------------------------ *)

let test_constants () =
  let man = Bdd.create () in
  Alcotest.(check bool) "true is true" true (Bdd.is_true (Bdd.tru man));
  Alcotest.(check bool) "false is false" true (Bdd.is_false (Bdd.fls man));
  Alcotest.(check bool) "not true = false" true
    (Bdd.equal (Bdd.bnot man (Bdd.tru man)) (Bdd.fls man));
  Alcotest.(check int) "size of constants" 1 (Bdd.size (Bdd.tru man))

let test_var_basic () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0) in
  Alcotest.(check int) "size of a variable" 2 (Bdd.size x);
  Alcotest.(check bool) "x and not x" true
    (Bdd.is_false (Bdd.band man x (Bdd.bnot man x)));
  Alcotest.(check bool) "x or not x" true
    (Bdd.is_true (Bdd.bor man x (Bdd.bnot man x)));
  Alcotest.(check bool) "double negation physical" true
    (Bdd.equal x (Bdd.bnot man (Bdd.bnot man x)))

let test_canonicity_hashcons () =
  let man, vars = Testutil.fresh_man 4 in
  let x = Bdd.var man vars.(0) and y = Bdd.var man vars.(1) in
  let a = Bdd.band man x y in
  let b = Bdd.bnot man (Bdd.bor man (Bdd.bnot man x) (Bdd.bnot man y)) in
  Alcotest.(check bool) "De Morgan physically equal" true (Bdd.equal a b)

let test_type_constraint_size () =
  (* The 8-bit "value <= 128" type constraint of the FIFO example must
     need 9 nodes (8 internal + terminal), matching the paper's
     "(5 x 9 nodes)" annotation in Table 1. *)
  let man = Bdd.create () in
  let bits = Array.init 8 (fun i -> Bdd.new_var ~name:(Printf.sprintf "b%d" i) man) in
  (* bits.(7) is the MSB (weight 128): v <= 128 iff b7 => all others 0. *)
  let low_zero =
    Bdd.conj man (List.init 7 (fun i -> Bdd.nvar man bits.(i)))
  in
  let constr = Bdd.bimp man (Bdd.var man bits.(7)) low_zero in
  Alcotest.(check int) "nodes for v<=128" 9 (Bdd.size constr)

let test_exists_unit () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0)
  and y = Bdd.var man vars.(1)
  and z = Bdd.var man vars.(2) in
  let f = Bdd.band man x (Bdd.bor man y z) in
  let vs = Bdd.varset man [ vars.(1) ] in
  (* exists y. x /\ (y \/ z) = x *)
  Alcotest.(check bool) "exists drops y" true
    (Bdd.equal (Bdd.exists man vs f) x);
  (* forall y. x /\ (y \/ z) = x /\ z *)
  Alcotest.(check bool) "forall keeps z" true
    (Bdd.equal (Bdd.forall man vs f) (Bdd.band man x z))

let test_rename_unit () =
  let man, vars = Testutil.fresh_man 6 in
  let x = Bdd.var man vars.(1) and y = Bdd.var man vars.(3) in
  let f = Bdd.band man x y in
  let perm = Array.init 6 (fun i -> i) in
  perm.(1) <- 0;
  perm.(3) <- 2;
  let g = Bdd.rename man perm f in
  let expect = Bdd.band man (Bdd.var man vars.(0)) (Bdd.var man vars.(2)) in
  Alcotest.(check bool) "renamed conjunction" true (Bdd.equal g expect)

let test_rename_not_monotone () =
  let man, vars = Testutil.fresh_man 4 in
  let f = Bdd.band man (Bdd.var man vars.(0)) (Bdd.var man vars.(2)) in
  let perm = Array.init 4 (fun i -> i) in
  perm.(0) <- 3;
  (* maps level 0 above level 2: order not preserved on the support *)
  Alcotest.check_raises "non-monotone rename rejected" Bdd.Not_monotone
    (fun () -> ignore (Bdd.rename man perm f))

let test_restrict_unit () =
  let man, vars = Testutil.fresh_man 2 in
  let x = Bdd.var man vars.(0) and y = Bdd.var man vars.(1) in
  let f = Bdd.band man x y in
  (* With care set x, f simplifies to y. *)
  Alcotest.(check bool) "restrict(x&y, x) = y" true
    (Bdd.equal (Bdd.restrict man f x) y);
  Alcotest.check_raises "empty care set rejected"
    (Invalid_argument "Bdd.restrict: empty care set") (fun () ->
      ignore (Bdd.restrict man f (Bdd.fls man)))

let test_sat_count_unit () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0) and y = Bdd.var man vars.(1) in
  let f = Bdd.bor man x y in
  Alcotest.(check (float 1e-9)) "sat_count (x|y) over 3 vars" 6.0
    (Bdd.sat_count ~nvars:3 f)

let test_pick_minterm_unit () =
  let man, vars = Testutil.fresh_man 3 in
  let f =
    Bdd.band man
      (Bdd.bnot man (Bdd.var man vars.(0)))
      (Bdd.var man vars.(2))
  in
  let env = Bdd.pick_minterm man ~vars:(Array.to_list vars) f in
  Alcotest.(check bool) "picked minterm satisfies f" true (Bdd.eval man env f);
  Alcotest.check_raises "pick on false" Not_found (fun () ->
      ignore (Bdd.pick_minterm man ~vars:[ 0 ] (Bdd.fls man)))

let test_stats () =
  let man, vars = Testutil.fresh_man 4 in
  let f = Bdd.conj man (List.init 4 (fun i -> Bdd.var man vars.(i))) in
  ignore f;
  Alcotest.(check bool) "created nodes counted" true (Bdd.created_nodes man >= 4);
  Alcotest.(check bool) "live <= created" true
    (Bdd.live_nodes man <= Bdd.created_nodes man);
  Bdd.gc man;
  Alcotest.(check bool) "peak recorded" true (Bdd.peak_live_nodes man >= 4)

(* Repeating an operation must hit its memo cache: the second run of
   each op re-asks the cache questions the first run answered. *)
let test_cache_stats () =
  let man, vars = Testutil.fresh_man 8 in
  let v i = Bdd.var man vars.(i) in
  let parity = List.init 8 v |> List.fold_left (Bdd.bxor man) (Bdd.fls man) in
  let vs = Bdd.varset man [ vars.(0); vars.(1) ] in
  let care = Bdd.bor man (v 2) (v 3) in
  let workload () =
    ignore (Bdd.band man parity (v 5));
    ignore (Bdd.exists man vs parity);
    ignore (Bdd.and_exists man vs parity (v 6));
    ignore (Bdd.restrict man parity care);
    ignore (Bdd.constrain man parity care);
    ignore (Bdd.cofactor man ~lvl:vars.(4) ~value:true parity)
  in
  workload ();
  workload ();
  let stats = Bdd.cache_stats man in
  Alcotest.(check int) "eight caches" 8 (List.length stats);
  List.iter
    (fun name ->
      let _, hits, misses = List.find (fun (n, _, _) -> n = name) stats in
      Alcotest.(check bool)
        (Printf.sprintf "%s cache hit (h=%d m=%d)" name hits misses)
        true (hits > 0))
    [ "ite"; "exists"; "and_exists"; "restrict"; "constrain"; "cofactor" ];
  (* The repeated ops themselves answer from cache without a miss. *)
  let hits_of n =
    let _, h, _ = List.find (fun (n', _, _) -> n' = n) stats in
    h
  in
  let before = hits_of "ite" in
  ignore (Bdd.band man parity (v 5));
  let _, after, _ =
    List.find (fun (n, _, _) -> n = "ite") (Bdd.cache_stats man)
  in
  Alcotest.(check bool) "repeat is pure hits" true (after > before)

let test_dot_output () =
  let man, vars = Testutil.fresh_man 2 in
  let f = Bdd.bxor man (Bdd.var man vars.(0)) (Bdd.var man vars.(1)) in
  let buf = Filename.temp_file "bdd" ".dot" in
  Bdd.Dot.to_file man buf [ f ];
  let ic = open_in buf in
  let line = input_line ic in
  close_in ic;
  Sys.remove buf;
  Alcotest.(check bool) "dot header" true
    (String.length line >= 7 && String.sub line 0 7 = "digraph")

let test_serialize_roundtrip () =
  let man, vars = Testutil.fresh_man 4 in
  let f =
    Bdd.bor man
      (Bdd.band man (Bdd.var man vars.(0)) (Bdd.var man vars.(2)))
      (Bdd.bxor man (Bdd.var man vars.(1)) (Bdd.var man vars.(3)))
  in
  let g = Bdd.bnot man f in
  let path = Filename.temp_file "bdd" ".txt" in
  Bdd.Serialize.to_file man path [ f; g; Bdd.fls man ];
  let man2 = Bdd.create () in
  let _ = List.init 4 (fun _ -> Bdd.new_var man2) in
  (match Bdd.Serialize.of_file man2 path with
  | [ f2; g2; z2 ] ->
    Alcotest.(check bool) "constant root" true (Bdd.is_false z2);
    Alcotest.(check bool) "complement preserved" true
      (Bdd.equal g2 (Bdd.bnot man2 f2));
    List.iter
      (fun env ->
        let by_level = Testutil.env_by_level vars env in
        Alcotest.(check bool) "semantics preserved"
          (Bdd.eval man by_level f)
          (Bdd.eval man2 by_level f2))
      (Testutil.all_envs 4)
  | _ -> Alcotest.fail "wrong number of roots");
  (* Reading into the SAME manager must reproduce physically equal
     BDDs (hash-consing through mk). *)
  (match Bdd.Serialize.of_file man path with
  | [ f2; g2; _ ] ->
    Alcotest.(check bool) "same-manager identity f" true (Bdd.equal f f2);
    Alcotest.(check bool) "same-manager identity g" true (Bdd.equal g g2)
  | _ -> Alcotest.fail "wrong number of roots");
  Sys.remove path

let test_serialize_relocation () =
  (* Reading with an order-preserving level map relocates the BDD. *)
  let man, vars = Testutil.fresh_man 3 in
  let f =
    Bdd.band man (Bdd.var man vars.(0)) (Bdd.bnot man (Bdd.var man vars.(2)))
  in
  let path = Filename.temp_file "bdd" ".txt" in
  Bdd.Serialize.to_file man path [ f ];
  let man2 = Bdd.create () in
  let _ = List.init 10 (fun _ -> Bdd.new_var man2) in
  (match Bdd.Serialize.of_file ~map:(fun l -> (2 * l) + 1) man2 path with
  | [ f2 ] ->
    let expect =
      Bdd.band man2 (Bdd.var man2 1) (Bdd.bnot man2 (Bdd.var man2 5))
    in
    Alcotest.(check bool) "relocated" true (Bdd.equal f2 expect)
  | _ -> Alcotest.fail "one root expected");
  Sys.remove path

let test_serialize_rejects_garbage () =
  let man = Bdd.create () in
  let path = Filename.temp_file "bdd" ".txt" in
  let oc = open_out path in
  output_string oc "not a bdd file\n";
  close_out oc;
  Alcotest.(check bool) "parse error raised" true
    (try
       ignore (Bdd.Serialize.of_file man path);
       false
     with Bdd.Serialize.Parse_error _ -> true);
  Sys.remove path

let test_serialize_error_paths () =
  (* Every malformed input must surface as [Parse_error] -- never as a
     leaked [End_of_file] or [Failure] -- so checkpoint recovery can
     rely on one exception to detect corruption. *)
  let man, _ = Testutil.fresh_man 2 in
  let path = Filename.temp_file "bdd" ".txt" in
  let rejects label contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Alcotest.(check bool) label true
      (try
         ignore (Bdd.Serialize.of_file man path);
         false
       with
      | Bdd.Serialize.Parse_error _ -> true
      | End_of_file -> false)
  in
  rejects "empty file" "";
  rejects "non-integer counts" "bdd x 1\n";
  rejects "negative counts" "bdd -1 0\n";
  rejects "truncated node section" "bdd 3 1\n1 0 0 0 0\n";
  rejects "missing roots" "bdd 1 1\n1 0 0 0 0\n";
  rejects "dangling node reference" "bdd 1 1\n1 0 7 0 0\nroot 1 0\n";
  rejects "dangling root reference" "bdd 0 1\nroot 3 0\n";
  Sys.remove path

let test_fault_hook () =
  (* The fault hook is consulted on every node creation, so a hook keyed
     on [created_nodes] fires at an exact, reproducible point. *)
  let man, vars = Testutil.fresh_man 8 in
  let target = Bdd.created_nodes man + 3 in
  Bdd.set_fault_hook man
    (Some
       (fun m -> if Bdd.created_nodes m >= target then raise Exit));
  let conj () =
    Bdd.conj man (Array.to_list (Array.map (Bdd.var man) vars))
  in
  Alcotest.(check bool) "fault raised" true
    (try
       ignore (conj ());
       false
     with Exit -> true);
  Alcotest.(check int) "raised at the exact creation count" target
    (Bdd.created_nodes man);
  Bdd.set_fault_hook man None;
  Alcotest.(check bool) "clean after hook removal" true
    (Bdd.size (conj ()) = 9)

let test_node_budget_exact () =
  (* The node budget is checked on every creation, not at the progress
     cadence: a computation creating thousands of nodes stops where the
     next creation would pass the budget.  An enclosing budget that runs
     out inside an inner region belongs to the enclosing region. *)
  let man, vars = Testutil.fresh_man 24 in
  let adder () =
    (* The carry out of a 12-bit ripple adder, rebuilt from scratch. *)
    Bdd.clear_caches man;
    let carry = ref (Bdd.fls man) in
    for i = 0 to 11 do
      let a = Bdd.var man vars.(i) and b = Bdd.var man vars.(23 - i) in
      carry :=
        Bdd.bor man (Bdd.band man a b) (Bdd.band man !carry (Bdd.bxor man a b))
    done;
    !carry
  in
  let start = Bdd.created_nodes man in
  Alcotest.(check bool) "abandoned" true
    (Bdd.with_node_budget man ~max_new_nodes:1000 adder = None);
  Alcotest.(check int) "stopped at the budget" (start + 1000)
    (Bdd.created_nodes man);
  let start = Bdd.created_nodes man in
  let inner_result = ref None in
  let outer =
    Bdd.with_node_budget man ~max_new_nodes:500 (fun () ->
        inner_result :=
          Some (Bdd.with_node_budget man ~max_new_nodes:1000 adder))
  in
  Alcotest.(check bool) "the enclosing region is abandoned" true (outer = None);
  Alcotest.(check bool) "the inner region did not claim it" true
    (!inner_result = None);
  Alcotest.(check int) "stopped at the enclosing budget" (start + 500)
    (Bdd.created_nodes man);
  Alcotest.(check bool) "no budget left behind" true
    (Bdd.size (adder ()) > 1)

let test_node_budget_nesting () =
  (* An enclosing progress hook must keep running inside a
     [with_node_budget] region and stay installed after the region
     aborts. *)
  let man, vars = Testutil.fresh_man 34 in
  (* The inner product of x = levels 0..16 and a rotation of
     y = levels 17..33: about 2^17 nodes under this order. *)
  let inner_product rot =
    let acc = ref (Bdd.fls man) in
    for i = 0 to 16 do
      let y = vars.(17 + ((i + rot) mod 17)) in
      acc :=
        Bdd.bxor man !acc (Bdd.band man (Bdd.var man vars.(i)) (Bdd.var man y))
    done;
    !acc
  in
  let fired = ref 0 in
  let outer (_ : Bdd.man) = incr fired in
  Bdd.set_progress_hook man (Some outer);
  let inner =
    Bdd.with_node_budget man ~max_new_nodes:100_000 (fun () ->
        inner_product 0)
  in
  Alcotest.(check bool) "inner budget aborted" true (inner = None);
  Alcotest.(check bool) "enclosing hook ran inside the region" true
    (!fired >= 1);
  (match Bdd.progress_hook man with
  | Some h ->
    Alcotest.(check bool) "enclosing hook restored after abort" true
      (h == outer)
  | None -> Alcotest.fail "progress hook dropped by with_node_budget");
  let before = !fired in
  ignore (inner_product 1);
  Alcotest.(check bool) "enclosing hook still fires after abort" true
    (!fired > before);
  Bdd.set_progress_hook man None

let test_cubes_unit () =
  let man, vars = Testutil.fresh_man 3 in
  let x = Bdd.var man vars.(0) and z = Bdd.var man vars.(2) in
  let f = Bdd.bor man x z in
  (* Paths: x=1 | x=0,z=1. *)
  Alcotest.(check int) "two cubes" 2 (Bdd.count_cubes f);
  Alcotest.(check int) "no cube of false" 0 (Bdd.count_cubes (Bdd.fls man));
  Alcotest.(check int) "one empty cube of true" 1
    (Bdd.count_cubes (Bdd.tru man))

let test_sift_recovers_grouped_order () =
  (* From a fully interleaved order, sifting must recover a grouped
     order for the two-word equality (adjacent swaps cannot: every
     single swap is size-neutral or worse). *)
  let man = Bdd.create () in
  let bits = List.init 8 (fun _ -> Bdd.new_var man) in
  let a = List.filteri (fun i _ -> i mod 2 = 0) bits in
  let b = List.filteri (fun i _ -> i mod 2 = 1) bits in
  (* equality of word a and word b with bits interleaved: 3w+2ish nodes;
     grouped order costs exponential... other way round: interleaved is
     GOOD for equality.  Use the FIFO-style conjunction instead: two
     slot constraints with bit-slice interleaving. *)
  ignore (a, b);
  let slot offset =
    (* v <= 8 over bits offset, offset+2, ... (MSB = last) *)
    let bs = List.filteri (fun i _ -> i mod 2 = offset) bits in
    match List.rev bs with
    | msb :: rest ->
      Bdd.bimp man (Bdd.var man msb)
        (Bdd.conj man (List.map (Bdd.nvar man) rest))
    | [] -> assert false
  in
  let g = Bdd.band man (slot 0) (slot 1) in
  let before = Bdd.size g in
  let perm = Bdd.Reorder.sift man [ g ] in
  let dst = Bdd.create () in
  let _ = List.init 8 (fun _ -> Bdd.new_var dst) in
  match Bdd.Reorder.apply ~dst man [ g ] perm with
  | [ g' ] ->
    Alcotest.(check bool)
      (Printf.sprintf "sift shrinks conjunction (%d -> %d)" before
         (Bdd.size g'))
      true
      (Bdd.size g' < before)
  | _ -> Alcotest.fail "one root expected"

let test_gc_keeps_roots () =
  (* [Bdd.gc] frees what no held handle reaches: after dropping
     references, dead nodes disappear, held roots stay canonical, and
     re-building a collected function (now on reused node slots) yields
     a BDD equal to the retained twin.  This is the torture test for
     hash-consing across collections. *)
  let man, vars = Testutil.fresh_man 8 in
  let build k =
    (* a k-dependent function over all 8 variables *)
    List.fold_left
      (fun acc i ->
        let v = Bdd.var man vars.(i) in
        let v = if (k lsr i) land 1 = 1 then Bdd.bnot man v else v in
        Bdd.bxor man acc (Bdd.band man v (Bdd.var man vars.((i + 1) mod 8))))
      (Bdd.of_bool man (k land 1 = 1))
      (List.init 8 Fun.id)
  in
  let keep = build 0xA5 in
  let keep_size = Bdd.size keep in
  (* Create a lot of garbage. *)
  for k = 0 to 499 do
    ignore (build k)
  done;
  let live_before = Bdd.live_nodes man in
  Bdd.gc man;
  let live_after = Bdd.live_nodes man in
  Alcotest.(check bool)
    (Printf.sprintf "gc reclaims garbage (%d -> %d)" live_before live_after)
    true
    (live_after < live_before);
  Alcotest.(check int) "retained root intact" keep_size (Bdd.size keep);
  (* Rebuilding after collection must hash-cons back onto the root. *)
  Alcotest.(check bool) "rebuild is canonical" true
    (Bdd.equal keep (build 0xA5));
  (* And semantics survive. *)
  Alcotest.(check bool) "semantics survive gc" true
    (Bdd.is_true (Bdd.biff man keep (build 0xA5)))

(* --- computed / unique table internals ------------------------------- *)

(* Basic integrity of the lossy computed table: a find answers with the
   exact value stored under that exact packed key or with [miss] --
   never with a value stored under a different key, however many
   collisions and evictions happened in between. *)
let test_computed_table_integrity () =
  let man, vars = Testutil.fresh_man 8 in
  let module C = Bdd.Computed_table in
  let tbl = C.create ~budget:64 in
  Alcotest.(check int) "budget caps slots" 64 (C.slots tbl);
  (* Overfill: 200 distinct keys into 64 slots, each with a distinct
     recognisable value (an edge, as the kernel stores). *)
  let value i = Bdd.tag (Bdd.var man vars.(i mod 8)) + (16 * i) in
  for i = 0 to 199 do
    C.store tbl 0 i (i * 7) (i * 13) (value i)
  done;
  let survivors = ref 0 in
  for i = 0 to 199 do
    let r = C.find tbl 0 i (i * 7) (i * 13) in
    if r <> C.miss then begin
      incr survivors;
      Alcotest.(check int)
        (Printf.sprintf "key %d answers with its own value" i)
        (value i) r
    end
  done;
  Alcotest.(check bool) "some entries survive" true (!survivors > 0);
  Alcotest.(check bool) "lossy: some entries evicted" true (!survivors < 200);
  let stat n = List.assoc n (C.stats tbl) in
  Alcotest.(check bool) "evictions counted" true (stat "evictions" > 0);
  Alcotest.(check bool) "occupancy bounded by slots" true
    (stat "occupied" <= C.slots tbl);
  (* Distinct op tags index disjoint key spaces: op 1 with the same
     operand triple is a miss. *)
  C.store tbl 0 1000 1001 1002 (value 0);
  Alcotest.(check bool) "same operands, other op misses" true
    (C.find tbl 1 1000 1001 1002 = C.miss)

let test_computed_table_generations () =
  let man, vars = Testutil.fresh_man 4 in
  let module C = Bdd.Computed_table in
  let tbl = C.create ~budget:256 in
  let v = Bdd.tag (Bdd.var man vars.(0)) in
  C.store tbl 2 10 20 30 v;
  Alcotest.(check int) "stored entry found" v (C.find tbl 2 10 20 30);
  C.trim tbl;
  Alcotest.(check int) "trim invalidates" C.miss (C.find tbl 2 10 20 30);
  (* Re-storing in the new generation works, and a dead-generation slot
     is recycled without an eviction having to be counted as data loss. *)
  C.store tbl 2 10 20 30 v;
  Alcotest.(check int) "restore after trim" v (C.find tbl 2 10 20 30);
  C.clear tbl;
  Alcotest.(check int) "clear invalidates" C.miss (C.find tbl 2 10 20 30);
  Alcotest.(check int) "clear empties occupancy" 0
    (List.assoc "occupied" (C.stats tbl));
  Alcotest.(check bool) "trims counted" true
    (List.assoc "trims" (C.stats tbl) >= 1)

let test_computed_table_resize () =
  let man, vars = Testutil.fresh_man 2 in
  let module C = Bdd.Computed_table in
  (* Budget far above the 8192-slot starting size, then enough distinct
     keys to push occupancy past half: the table must double (possibly
     repeatedly) rather than thrash. *)
  let tbl = C.create ~budget:100_000 in
  Alcotest.(check int) "starts small" 8192 (C.slots tbl);
  let v = Bdd.tag (Bdd.var man vars.(0)) in
  for i = 0 to 9_999 do
    C.store tbl 0 i (i lxor 0x5A5A) (i * 3) v
  done;
  let stat n = List.assoc n (C.stats tbl) in
  Alcotest.(check bool) "resized at least once" true (stat "resizes" >= 1);
  Alcotest.(check bool) "grew" true (C.slots tbl > 8192);
  Alcotest.(check bool)
    (Printf.sprintf "stays within budget (%d slots)" (C.slots tbl))
    true
    (C.slots tbl <= 100_000);
  (* Current-generation survivors must still answer correctly. *)
  let r = C.find tbl 0 9_999 (9_999 lxor 0x5A5A) (9_999 * 3) in
  Alcotest.(check int) "last store survives the resizes" v r

(* The third operand shares the tag word with the op and the
   generation, so operands near the top of its 32 bits must neither
   alias one another nor leak into the generation, and the generation
   counter must not wrap onto live entries. *)
let test_computed_table_wide_operand () =
  let module C = Bdd.Computed_table in
  let tbl = C.create ~budget:256 in
  let wide = [ (1 lsl 31) - 1; 1 lsl 31; (1 lsl 32) - 1 ] in
  List.iteri (fun i c -> C.store tbl 3 7 9 c (100 + i)) wide;
  List.iteri
    (fun i c ->
      let r = C.find tbl 3 7 9 c in
      if r <> C.miss then
        Alcotest.(check int) (Printf.sprintf "operand %#x answers its own" c)
          (100 + i) r)
    wide;
  let c = (1 lsl 31) + 5 in
  C.store tbl 3 1 2 c 42;
  Alcotest.(check int) "wide operand found" 42 (C.find tbl 3 1 2 c);
  Alcotest.(check int) "one bit lower misses" C.miss
    (C.find tbl 3 1 2 (c lxor (1 lsl 31)));
  Alcotest.(check int) "another op misses" C.miss (C.find tbl 4 1 2 c);
  C.trim tbl;
  Alcotest.(check int) "generation bump invalidates" C.miss
    (C.find tbl 3 1 2 c);
  C.store tbl 3 1 2 c 43;
  Alcotest.(check int) "stored again in the new generation" 43
    (C.find tbl 3 1 2 c);
  Alcotest.check_raises "operand of 2^32 rejected"
    (Invalid_argument "Bdd.Computed_table: third operand outside [0, 2^32)")
    (fun () -> ignore (C.find tbl 3 1 2 (1 lsl 32)));
  Alcotest.check_raises "negative operand rejected"
    (Invalid_argument "Bdd.Computed_table: third operand outside [0, 2^32)")
    (fun () -> C.store tbl 3 1 2 (-1) 0);
  (* 2^25 bumps bring a 25-bit generation back to where the entry was
     stored: the table must have been emptied on the way. *)
  C.store tbl 3 5 6 c 44;
  for _ = 1 to 1 lsl 25 do
    C.trim tbl
  done;
  Alcotest.(check int) "no stale hit after the generation wraps" C.miss
    (C.find tbl 3 5 6 c);
  Alcotest.(check int) "wrapping emptied the table" 0 (C.occupied tbl);
  C.store tbl 3 5 6 c 45;
  Alcotest.(check int) "entries work after the wrap" 45 (C.find tbl 3 5 6 c)

(* A manager on a tiny computed table evicts constantly; canonicity
   must make recomputed results physically identical, so semantics
   never change. *)
let test_tiny_cache_semantics () =
  let big = Bdd.create () in
  let tiny = Bdd.create ~cache_budget:64 () in
  let build man =
    let vars = Array.init 10 (fun _ -> Bdd.new_var man) in
    let v i = Bdd.var man vars.(i) in
    let parity =
      List.init 10 v |> List.fold_left (Bdd.bxor man) (Bdd.fls man)
    in
    let majority_ish =
      Bdd.disj man
        (List.init 8 (fun i -> Bdd.band man (v i) (v ((i + 3) mod 10))))
    in
    let vs = Bdd.varset man [ vars.(0); vars.(4); vars.(7) ] in
    Bdd.sat_count ~nvars:10
      (Bdd.band man
         (Bdd.exists man vs (Bdd.band man parity majority_ish))
         (Bdd.restrict man majority_ish parity))
  in
  Alcotest.(check (float 0.0)) "tiny cache computes the same function"
    (build big) (build tiny);
  let evictions = List.assoc "evictions" (Bdd.computed_table_stats tiny) in
  Alcotest.(check bool)
    (Printf.sprintf "tiny cache actually evicted (%d)" evictions)
    true (evictions > 0)

(* Regression: the peak-live sample used to be taken only every 64K
   creations, so short runs reported a peak of 0.  The O(1) live
   counter now seeds it on every creation. *)
let test_peak_seeded_on_short_runs () =
  let man, vars = Testutil.fresh_man 4 in
  let f = Bdd.conj man (List.init 4 (fun i -> Bdd.var man vars.(i))) in
  ignore f;
  (* No gc, no live_nodes query: the peak must already be non-zero. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak seeded without a scan (%d)" (Bdd.peak_live_nodes man))
    true
    (Bdd.peak_live_nodes man >= 4)

(* The O(1) live counter vs. reality: it counts every node interned
   since the last [Bdd.gc] (nothing is freed in between), and right
   after one it is exactly the nodes the held handles reach. *)
let test_unique_table_counters () =
  let man, vars = Testutil.fresh_man 6 in
  let v i = Bdd.var man vars.(i) in
  let keep = List.fold_left (Bdd.band man) (Bdd.tru man) (List.init 6 v) in
  for k = 1 to 100 do
    ignore
      (Bdd.bxor man keep
         (Bdd.band man (v (k mod 6)) (Bdd.of_bool man (k land 1 = 0))))
  done;
  let counted = Bdd.live_nodes man in
  Alcotest.(check int) "nothing freed before gc" (Bdd.created_nodes man)
    counted;
  Bdd.gc man;
  let exact = Bdd.live_nodes man in
  Alcotest.(check bool)
    (Printf.sprintf "pre-gc count is an upper bound (%d >= %d)" counted exact)
    true (counted >= exact);
  Alcotest.(check int) "exact after gc: the nodes [keep] reaches"
    (Bdd.size keep - 1) exact;
  Alcotest.(check int) "stats agree with live_nodes" exact
    (List.assoc "live" (Bdd.unique_table_stats man));
  Alcotest.(check bool) "sweeps counted" true
    (List.assoc "sweeps" (Bdd.unique_table_stats man) >= 1);
  (* each structure's bytes follow from its size alone *)
  let stat tbl name = List.assoc name tbl in
  let unique = Bdd.unique_table_stats man
  and computed = Bdd.computed_table_stats man
  and nodes = Bdd.node_store_stats man in
  Alcotest.(check int) "unique bytes" (8 * stat unique "slots")
    (stat unique "bytes");
  Alcotest.(check int) "computed bytes" (32 * stat computed "slots")
    (stat computed "bytes");
  Alcotest.(check int) "node store bytes" (16 * stat nodes "capacity")
    (stat nodes "bytes");
  Alcotest.(check bool) "node store holds the live nodes" true
    (stat nodes "capacity" > exact)

(* A walk marks the nodes it visits in their second word, next to the
   THEN edge.  Building the same function again after walks must find
   every node as it was: the mark must not take part in hash-consing. *)
let test_walk_leaves_hashcons () =
  let man, vars = Testutil.fresh_man 8 in
  let build () =
    let v i = Bdd.var man vars.(i) in
    List.fold_left
      (fun acc i -> Bdd.bxor man acc (Bdd.band man (v i) (v ((i + 3) mod 8))))
      (Bdd.fls man) (List.init 8 Fun.id)
  in
  let f = build () in
  let made = Bdd.created_nodes man in
  let size = Bdd.size f and support = Bdd.support f in
  Alcotest.(check (list int)) "support" (Array.to_list vars) support;
  (* the memo cache would answer the rebuild without a lookup *)
  Bdd.clear_caches man;
  let g = build () in
  Alcotest.(check int) "same tag" (Bdd.tag f) (Bdd.tag g);
  Alcotest.(check int) "no node created again" made (Bdd.created_nodes man);
  Alcotest.(check int) "same size" size (Bdd.size g);
  Bdd.check_invariants man

(* The walk stamp has 30 bits; the walk after the last one clears every
   node's stamp and starts again.  [g]'s nodes are stamped with the
   last stamp before the wrap, so if the wrap left them stamped, the
   next walk to reach that stamp again would skip them. *)
let test_walk_stamp_wrap () =
  let man, vars = Testutil.fresh_man 6 in
  let v i = Bdd.var man vars.(i) in
  let f = Bdd.bor man (Bdd.band man (v 0) (v 1)) (v 2) in
  let g = Bdd.bxor man (v 3) (Bdd.bxor man (v 4) (v 5)) in
  let sf = Bdd.size f and sg = Bdd.size g in
  Alcotest.(check (pair int int)) "sizes" (4, 4) (sf, sg);
  Alcotest.check_raises "no stepping back"
    (Invalid_argument "Bdd.Walk_stamp.advance: stamp outside [current, max]")
    (fun () -> Bdd.Walk_stamp.advance man 0);
  Bdd.Walk_stamp.advance man (Bdd.Walk_stamp.max - 1);
  Alcotest.(check int) "size g at the last stamp" sg (Bdd.size g);
  Alcotest.(check int) "at the last stamp" Bdd.Walk_stamp.max
    (Bdd.Walk_stamp.current man);
  Alcotest.(check int) "size f across the wrap" sf (Bdd.size f);
  Alcotest.(check int) "the counter starts again" 1
    (Bdd.Walk_stamp.current man);
  Bdd.Walk_stamp.advance man (Bdd.Walk_stamp.max - 1);
  Alcotest.(check int) "size g at the last stamp again" sg (Bdd.size g);
  Alcotest.(check (list int)) "support after the wrap"
    [ vars.(3); vars.(4); vars.(5) ] (Bdd.support g);
  Alcotest.(check int) "shared size after the wrap" (sf + sg - 1)
    (Bdd.size_list [ f; g ]);
  Bdd.check_invariants man;
  Bdd.gc man;
  Alcotest.(check int) "gc's mark keeps both" (sf + sg - 2)
    (Bdd.live_nodes man);
  Bdd.check_invariants man;
  (* still held, so the collection above had to keep them *)
  Alcotest.(check (pair int int)) "sizes after gc" (sf, sg)
    (Bdd.size f, Bdd.size g)

(* Every [Bdd.t] a caller holds is a handle in the manager's weak
   registry; [node_store_stats] reports the registry's slots, which
   must cover every handle held. *)
let test_handle_stats () =
  let man, vars = Testutil.fresh_man 1 in
  let slots () = List.assoc "handles" (Bdd.node_store_stats man) in
  let before = slots () in
  Alcotest.(check bool) "a fresh registry has slots" true (before > 0);
  let held = Array.init (4 * before) (fun _ -> Bdd.var man vars.(0)) in
  Alcotest.(check bool) "slots cover every held handle" true
    (slots () >= Array.length held);
  Alcotest.(check bool) "constants take no slot" true
    (let n = slots () in
     for _ = 1 to 4 * before do
       ignore (Sys.opaque_identity (Bdd.tru man))
     done;
     slots () = n);
  ignore (Sys.opaque_identity held)

(* A registry of 2^14 slots or more collects before it doubles: once
   the handles that filled it are dropped, churning through many more
   short-lived ones reuses its slots instead of doubling it on dead
   entries the major GC has not cleared yet. *)
let test_dead_handles_do_not_grow_registry () =
  let man, vars = Testutil.fresh_man 1 in
  let slots () = List.assoc "handles" (Bdd.node_store_stats man) in
  let fill n =
    let held = Array.init n (fun _ -> Bdd.var man vars.(0)) in
    ignore (Sys.opaque_identity held);
    slots ()
  in
  let size = fill 9_000 in
  Alcotest.(check bool) "filled past 2^14 slots" true (size >= 1 lsl 14);
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (Bdd.var man vars.(0)))
  done;
  Alcotest.(check int) "no doubling on dead handles" size (slots ())

let test_reorder_interleaves () =
  (* Equality of two 4-bit words declared far apart costs ~2^w nodes;
     a good order interleaves them and costs ~3w.  The greedy search
     must find a strictly (and substantially) better order. *)
  let man = Bdd.create () in
  let a = List.init 4 (fun _ -> Bdd.new_var man) in
  let b = List.init 4 (fun _ -> Bdd.new_var man) in
  let eq =
    Bdd.conj man
      (List.map2 (fun x y -> Bdd.biff man (Bdd.var man x) (Bdd.var man y)) a b)
  in
  let before = Bdd.size eq in
  let perm = Bdd.Reorder.greedy_adjacent ~passes:4 man [ eq ] in
  let dst = Bdd.create () in
  let _ = List.init 8 (fun _ -> Bdd.new_var dst) in
  (match Bdd.Reorder.apply ~dst man [ eq ] perm with
  | [ eq' ] ->
    Alcotest.(check bool)
      (Printf.sprintf "reorder shrinks equality (%d -> %d)" before
         (Bdd.size eq'))
      true
      (Bdd.size eq' < before)
  | _ -> Alcotest.fail "one root expected")

let test_reorder_apply_validates () =
  (* [apply] checks the permutation against the SOURCE manager (the
     formerly unused parameter): every source level must map to an
     allocated, distinct target level, instead of failing deep inside
     node construction or silently aliasing two levels. *)
  let man, vars = Testutil.fresh_man 4 in
  let f = Bdd.band man (Bdd.var man vars.(0)) (Bdd.var man vars.(3)) in
  let small = Bdd.create () in
  let _ = List.init 2 (fun _ -> Bdd.new_var small) in
  Alcotest.check_raises "unallocated target level"
    (Invalid_argument "Reorder.apply: level 2 maps to 2, not allocated in dst")
    (fun () ->
      ignore (Bdd.Reorder.apply ~dst:small man [ f ] (Array.init 4 Fun.id)));
  let dst = Bdd.create () in
  let _ = List.init 4 (fun _ -> Bdd.new_var dst) in
  Alcotest.check_raises "non-injective permutation"
    (Invalid_argument
       "Reorder.apply: permutation not injective (levels 0 and 1 both map \
        to 0)")
    (fun () -> ignore (Bdd.Reorder.apply ~dst man [ f ] [| 0; 0; 2; 3 |]));
  (* A valid non-monotone (reversing) permutation passes validation and
     preserves semantics. *)
  let rev = Array.init 4 (fun i -> 3 - i) in
  match Bdd.Reorder.apply ~dst man [ f ] rev with
  | [ f' ] ->
    Alcotest.(check bool) "reversal preserves semantics" true
      (List.for_all
         (fun env ->
           let permuted = Array.make 4 false in
           Array.iteri (fun l v -> permuted.(rev.(l)) <- v) env;
           Bdd.eval dst permuted f'
           = (env.(vars.(0)) && env.(vars.(3))))
         (List.map Array.of_list
            [
              [ false; false; false; false ]; [ true; false; false; false ];
              [ true; false; false; true ]; [ false; true; true; false ];
              [ true; true; true; true ]; [ false; true; false; true ];
            ]))
  | _ -> Alcotest.fail "one root expected"

(* --- Properties ------------------------------------------------------ *)

let with_expr e k =
  let man, vars = Testutil.fresh_man nvars in
  k man vars (Testutil.build_bdd man vars e)

let prop_semantics e =
  with_expr e (fun man vars f -> Testutil.semantically_equal man nvars f e vars)

let prop_negation e =
  with_expr e (fun man _ f -> Bdd.equal f (Bdd.bnot man (Bdd.bnot man f)))

let prop_canonical (a, b) =
  (* If two expressions agree on all assignments their BDDs must be
     physically equal (and conversely). *)
  let man, vars = Testutil.fresh_man nvars in
  let fa = Testutil.build_bdd man vars a in
  let fb = Testutil.build_bdd man vars b in
  let same_sem =
    List.for_all
      (fun env -> Testutil.eval_expr env a = Testutil.eval_expr env b)
      (Testutil.all_envs nvars)
  in
  Bdd.equal fa fb = same_sem

let prop_exists (a, _) =
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let lvl = vars.(1) in
  let vs = Bdd.varset man [ lvl ] in
  let quant = Bdd.exists man vs f in
  let expect =
    Bdd.bor man
      (Bdd.cofactor man ~lvl ~value:true f)
      (Bdd.cofactor man ~lvl ~value:false f)
  in
  Bdd.equal quant expect

let prop_and_exists (a, b) =
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let g = Testutil.build_bdd man vars b in
  let vs = Bdd.varset man [ vars.(0); vars.(2) ] in
  Bdd.equal (Bdd.and_exists man vs f g) (Bdd.exists man vs (Bdd.band man f g))

let prop_restrict_care (a, b) =
  (* restrict(f, c) agrees with f wherever c holds. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let c = Testutil.build_bdd man vars b in
  Bdd.is_false c
  || begin
       let r = Bdd.restrict man f c in
       List.for_all
         (fun env ->
           let env' = Testutil.env_by_level vars env in
           (not (Bdd.eval man env' c))
           || Bdd.eval man env' r = Bdd.eval man env' f)
         (Testutil.all_envs nvars)
     end

let prop_constrain_algebra (a, b) =
  (* constrain(f,c) /\ c = f /\ c -- the defining property. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let c = Testutil.build_bdd man vars b in
  Bdd.is_false c
  || Bdd.equal
       (Bdd.band man (Bdd.constrain man f c) c)
       (Bdd.band man f c)

let prop_multi_restrict_care (a, b) =
  (* multi_restrict agrees with f wherever every care conjunct holds;
     exercised with the care set split into two conjuncts. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let c = Testutil.build_bdd man vars b in
  let c1 = Bdd.bor man c (Bdd.var man vars.(0)) in
  let c2 = Bdd.bor man c (Bdd.bnot man (Bdd.var man vars.(0))) in
  (* c1 /\ c2 = c *)
  Bdd.is_false c1 || Bdd.is_false c2
  || begin
       let r = Bdd.multi_restrict man f [ c1; c2 ] in
       List.for_all
         (fun env ->
           let env' = Testutil.env_by_level vars env in
           (not (Bdd.eval man env' c1 && Bdd.eval man env' c2))
           || Bdd.eval man env' r = Bdd.eval man env' f)
         (Testutil.all_envs nvars)
     end

let prop_multi_restrict_single (a, b) =
  (* With a single care conjunct multi_restrict specialises to a sound
     simplification under the same care set as Restrict. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let c = Testutil.build_bdd man vars b in
  Bdd.is_false c
  || begin
       let r = Bdd.multi_restrict man f [ c ] in
       List.for_all
         (fun env ->
           let env' = Testutil.env_by_level vars env in
           (not (Bdd.eval man env' c)) || Bdd.eval man env' r = Bdd.eval man env' f)
         (Testutil.all_envs nvars)
     end

let prop_theorem3 (a, b) =
  (* Theorem 3 of the paper: a \/ b tautology iff restrict(a, ~b) is. *)
  let man, vars = Testutil.fresh_man nvars in
  let fa = Testutil.build_bdd man vars a in
  let fb = Testutil.build_bdd man vars b in
  Bdd.is_true fb
  || Bdd.is_true (Bdd.bor man fa fb)
     = Bdd.is_true (Bdd.restrict man fa (Bdd.bnot man fb))

let prop_sat_count e =
  with_expr e (fun _man vars f ->
      let expect =
        List.length
          (List.filter (fun env -> Testutil.eval_expr env e)
             (Testutil.all_envs nvars))
      in
      ignore vars;
      abs_float (Bdd.sat_count ~nvars f -. float_of_int expect) < 1e-6)

let prop_size_list_sharing (a, b) =
  (* Shared size is bounded by the sum and at least the max. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let g = Testutil.build_bdd man vars b in
  let s = Bdd.size_list [ f; g ] in
  s <= Bdd.size f + Bdd.size g && s >= max (Bdd.size f) (Bdd.size g)

let prop_support e =
  with_expr e (fun man vars f ->
      (* A variable is in the support iff the cofactors differ. *)
      List.for_all
        (fun lvl ->
          let dependent =
            not
              (Bdd.equal
                 (Bdd.cofactor man ~lvl ~value:true f)
                 (Bdd.cofactor man ~lvl ~value:false f))
          in
          List.mem lvl (Bdd.support f) = dependent)
        (Array.to_list vars))

let prop_compose (a, b) =
  (* compose x<-g f has the semantics of substitution. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let g = Testutil.build_bdd man vars b in
  let lvl = vars.(2) in
  let h = Bdd.compose man ~lvl ~by:g f in
  List.for_all
    (fun env ->
      let env' = Testutil.env_by_level vars env in
      let env2 = Array.copy env' in
      env2.(lvl) <- Bdd.eval man env' g;
      Bdd.eval man env' h = Bdd.eval man env2 f)
    (Testutil.all_envs nvars)

let prop_transfer_semantics e =
  (* Transfer under a random-ish permutation preserves semantics. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars e in
  (* reverse the variable order: a maximally non-monotone permutation *)
  let perm = Array.init nvars (fun i -> nvars - 1 - i) in
  let dst = Bdd.create () in
  let _ = List.init nvars (fun _ -> Bdd.new_var dst) in
  match Bdd.Reorder.transfer ~dst ~perm [ f ] with
  | [ f' ] ->
    List.for_all
      (fun env ->
        let direct = Testutil.eval_expr env e in
        let permuted = Array.make nvars false in
        Array.iteri (fun i lvl -> permuted.(perm.(lvl)) <- env.(i)) vars;
        Bdd.eval dst permuted f' = direct)
      (Testutil.all_envs nvars)
  | _ -> false

let prop_minterms e =
  (* minterms enumerates exactly the satisfying assignments. *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars e in
  let got =
    Bdd.minterms man ~vars:(Array.to_list vars) f
    |> Seq.map Array.to_list |> List.of_seq
    |> List.sort_uniq compare
  in
  let expect =
    Testutil.all_envs nvars
    |> List.filter (fun env -> Testutil.eval_expr env e)
    |> List.map (fun env -> Array.to_list (Testutil.env_by_level vars env))
    |> List.sort_uniq compare
  in
  got = expect

let prop_serialize e =
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars e in
  let path = Filename.temp_file "bdd" ".txt" in
  Bdd.Serialize.to_file man path [ f ];
  let man2 = Bdd.create () in
  let _ = List.init nvars (fun _ -> Bdd.new_var man2) in
  let ok =
    match Bdd.Serialize.of_file man2 path with
    | [ f2 ] ->
      List.for_all
        (fun env ->
          let by_level = Testutil.env_by_level vars env in
          Bdd.eval man2 by_level f2 = Testutil.eval_expr env e)
        (Testutil.all_envs nvars)
    | _ -> false
  in
  Sys.remove path;
  ok

let prop_serialize_structural (ea, eb) =
  (* The structural half of the round trip, beyond semantics: reading
     into the SAME manager reproduces the original nodes (canonicity
     through the unique table), a fresh manager reproduces the same
     sizes, and re-serializing from the fresh manager is byte-identical
     (the dense bottom-up renumbering is manager- and GC-independent). *)
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars ea in
  let g = Testutil.build_bdd man vars eb in
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let path = Filename.temp_file "bdd" ".txt" in
  let path2 = Filename.temp_file "bdd" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove path2)
    (fun () ->
      Bdd.Serialize.to_file man path [ f; g ];
      let same_manager =
        match Bdd.Serialize.of_file man path with
        | [ f2; g2 ] -> Bdd.equal f f2 && Bdd.equal g g2
        | _ -> false
      in
      let man2 = Bdd.create () in
      let _ = List.init nvars (fun _ -> Bdd.new_var man2) in
      match Bdd.Serialize.of_file man2 path with
      | [ f2; g2 ] ->
        let fresh_manager =
          Bdd.size f2 = Bdd.size f
          && Bdd.size g2 = Bdd.size g
          && Testutil.semantically_equal man2 nvars f2 ea vars
          && Testutil.semantically_equal man2 nvars g2 eb vars
        in
        Bdd.Serialize.to_file man2 path2 [ f2; g2 ];
        same_manager && fresh_manager && read_file path = read_file path2
      | _ -> false)

let prop_implies (a, b) =
  let man, vars = Testutil.fresh_man nvars in
  let f = Testutil.build_bdd man vars a in
  let g = Testutil.build_bdd man vars b in
  let expect =
    List.for_all
      (fun env ->
        (not (Testutil.eval_expr env a)) || Testutil.eval_expr env b)
      (Testutil.all_envs nvars)
  in
  Bdd.implies man f g = expect

(* --- rooting: the handle registry is the only root set ------------- *)

(* A random program over a small register file of held handles: build a
   [Fuzz.Expr] into a register, combine two registers, drop one, or run
   [Bdd.gc].  Every handle the program is handed is logged with the
   truth table of its node's regular function and the gc generation it
   was made in. *)
type rooting_instr =
  | Build of int * Testutil.expr
  | Combine of int * int * int * int (* op, dst, a, b *)
  | Drop of int
  | Collect

let rooting_regs = 6

let gen_rooting_program =
  let open QCheck2.Gen in
  let reg = int_bound (rooting_regs - 1) in
  list_size (int_range 1 40)
    (frequency
       [
         (4, map2 (fun r e -> Build (r, e)) reg (Testutil.gen_expr ~nvars));
         ( 4,
           map3
             (fun op d (a, b) -> Combine (op, d, a, b))
             (int_bound 3) reg (pair reg reg) );
         (2, map (fun r -> Drop r) reg);
         (1, return Collect);
       ])

let print_rooting_program prog =
  String.concat "; "
    (List.map
       (function
         | Build (r, e) -> Printf.sprintf "r%d := %s" r (print_expr e)
         | Combine (op, d, a, b) ->
           Printf.sprintf "r%d := op%d r%d r%d" d op a b
         | Drop r -> Printf.sprintf "drop r%d" r
         | Collect -> "gc")
       prog)

let prop_rooting prog =
  let man, vars = Testutil.fresh_man nvars in
  let envs = Testutil.all_envs nvars in
  let truth f =
    List.map (fun env -> Bdd.eval man (Testutil.env_by_level vars env) f) envs
  in
  (* held register: handle, its truth table, its tag when made *)
  let regs = Array.make rooting_regs None in
  (* node index -> (regular truth table, gc generation) of every handle
     ever made, to check that an index names another function only
     after a collection *)
  let made = Hashtbl.create 64 in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun m -> ok := false; prerr_endline m) fmt in
  let hold r f =
    let tt = truth f in
    let tag = Bdd.tag f in
    let regular = if tag land 1 = 1 then List.map not tt else tt in
    let gen = Bdd.gc_events man in
    List.iter
      (fun (tt', gen') ->
        if tt' <> regular && gen' = gen then
          fail "node %d reused for another function without a gc" (tag lsr 1))
      (Hashtbl.find_all made (tag lsr 1));
    Hashtbl.add made (tag lsr 1) (regular, gen);
    regs.(r) <- Some (f, tt, tag)
  in
  let get r =
    match regs.(r) with Some (f, _, _) -> f | None -> Bdd.fls man
  in
  List.iter
    (function
      | Build (r, e) -> hold r (Testutil.build_bdd man vars e)
      | Combine (op, d, a, b) ->
        let f = get a and g = get b in
        hold d
          (match op with
          | 0 -> Bdd.band man f g
          | 1 -> Bdd.bor man f g
          | 2 -> Bdd.bxor man f g
          | _ -> Bdd.exists man (Bdd.varset man [ vars.(0); vars.(2) ]) f)
      | Drop r -> regs.(r) <- None
      | Collect ->
        let gen = Bdd.gc_events man in
        Bdd.gc man;
        if Bdd.gc_events man <> gen + 1 then fail "gc_events did not move";
        (try Bdd.check_invariants man with Failure m -> fail "%s" m);
        let held = List.filter_map Fun.id (Array.to_list regs) in
        Array.iter
          (function
            | Some (f, tt, tag) ->
              if truth f <> tt then fail "a held handle changed function";
              if Bdd.tag f <> tag then fail "a held handle changed tag"
            | None -> ())
          regs;
        let reachable =
          match held with
          | [] -> 0
          | _ -> Bdd.size_list (List.map (fun (f, _, _) -> f) held) - 1
        in
        if Bdd.live_nodes man <> reachable then
          fail "live_nodes %d after gc, %d reachable from held handles"
            (Bdd.live_nodes man) reachable)
    (prog @ [ Collect ]);
  !ok

let test_rooting =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 20 |])
    (QCheck2.Test.make ~count:100 ~name:"gc keeps exactly the held handles"
       ~print:print_rooting_program gen_rooting_program prop_rooting)

(* --- growth: segments, table doublings and gc together ---------------- *)

(* Random programs that push one manager across at least three
   node-store segments (2^16 nodes each) and through several unique-
   and computed-table doublings, with [Bdd.gc] interleaved.  [Spread]
   XORs copies of a random [Fuzz.Expr] placed at every offset of a
   20-variable set, each copy's variables scattered by a stride, which
   builds thousands to tens of thousands of nodes.  Every program also
   holds one [Pressure] step at a random place: the same with a fixed
   kernel and three strides, about 400000 nodes, so the crossing does
   not hang on what the random expressions happen to be.  Every
   register carries its function's values on a fixed sample of
   assignments, computed from the expressions alone; after every step
   the held handles must still have those values and the store must
   pass [Bdd.check_invariants].  [Walk] takes a register's size and
   support; after every later step they are taken again and must not
   have changed while the register holds the same function, whatever
   was created or collected in between. *)
type growth_instr =
  | Spread of int * int * Testutil.expr (* dst, stride, window *)
  | Pressure of int
  | Mix of int * int * int * int (* op, dst, a, b *)
  | Release of int
  | Walk of int
  | Sweep

let growth_vars = 20
let growth_regs = 6
let growth_target = 3 * 65536

(* strides coprime with [growth_vars], so the copies of a window are
   rotations of one another *)
let growth_strides = [ 3; 7; 9; 11; 13; 17 ]

let growth_samples =
  let rand = Random.State.make [| 25 |] in
  Array.init 48 (fun i ->
      Array.init growth_vars (fun _ ->
          if i = 0 then false else if i = 1 then true else Random.State.bool rand))

let gen_growth_program =
  let open QCheck2.Gen in
  let reg = int_bound (growth_regs - 1) in
  let* prog =
    list_size (int_range 4 12)
      (frequency
         [
           ( 5,
             map3
               (fun r s e -> Spread (r, s, e))
               reg (oneofl growth_strides) (Testutil.gen_expr ~nvars:6) );
           ( 3,
             map3
               (fun op d (a, b) -> Mix (op, d, a, b))
               (int_bound 3) reg (pair reg reg) );
           (1, map (fun r -> Release r) reg);
           (2, map (fun r -> Walk r) reg);
           (2, return Sweep);
         ])
  in
  let* at = int_bound (List.length prog) in
  let* r = reg in
  return (List.filteri (fun i _ -> i < at) prog
          @ (Pressure r :: List.filteri (fun i _ -> i >= at) prog))

let print_growth_program prog =
  String.concat "; "
    (List.map
       (function
         | Spread (r, s, e) ->
           Printf.sprintf "r%d := spread/%d %s" r s (print_expr e)
         | Pressure r -> Printf.sprintf "r%d := pressure" r
         | Mix (op, d, a, b) -> Printf.sprintf "r%d := op%d r%d r%d" d op a b
         | Release r -> Printf.sprintf "drop r%d" r
         | Walk r -> Printf.sprintf "walk r%d" r
         | Sweep -> "gc")
       prog)

(* The copies of [window] at every offset, with stride [s]. *)
let spread_copies s window =
  List.init growth_vars (fun o ->
      Testutil.map_vars (fun i -> ((i * s) + o) mod growth_vars) window)

let prop_growth prog =
  let man = Bdd.create ~cache_budget:(1 lsl 16) () in
  let vars = Array.init growth_vars (fun _ -> Bdd.new_var man) in
  let regs = Array.make growth_regs None in
  (* each register's size and support, once walked *)
  let walked = Array.make growth_regs None in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun m -> ok := false; prerr_endline m) fmt in
  let get r =
    match regs.(r) with
    | Some held -> held
    | None -> (Bdd.fls man, Array.make (Array.length growth_samples) false)
  in
  (* the XOR of [copies], as a handle and as sample values *)
  let xor_of copies =
    ( List.fold_left
        (fun acc c -> Bdd.bxor man acc (Testutil.build_bdd man vars c))
        (Bdd.fls man) copies,
      Array.map
        (fun env ->
          List.fold_left (fun acc c -> acc <> Testutil.eval_expr env c) false
            copies)
        growth_samples )
  in
  let set r held =
    regs.(r) <- held;
    walked.(r) <- None
  in
  let step = function
    | Spread (r, s, e) -> set r (Some (xor_of (spread_copies s e)))
    | Pressure r ->
      let kernel = Testutil.(Or (And (V 0, V 1), And (V 2, V 5))) in
      set r
        (Some (xor_of (List.concat_map (fun s -> spread_copies s kernel) [ 7; 3; 9 ])))
    | Mix (op, d, a, b) ->
      let (f, fv), (g, gv) = (get a, get b) in
      let v = (a + (2 * b) + (3 * d)) mod growth_vars in
      let h, pick =
        match op with
        | 0 -> (Bdd.band man f g, fun _ x y -> x && y)
        | 1 -> (Bdd.bor man f g, fun _ x y -> x || y)
        | 2 -> (Bdd.bxor man f g, fun _ x y -> x <> y)
        | _ ->
          ( Bdd.ite man (Bdd.var man vars.(v)) f g,
            fun env x y -> if env.(v) then x else y )
      in
      set d
        (Some (h, Array.mapi (fun k env -> pick env fv.(k) gv.(k)) growth_samples))
    | Release r -> set r None
    | Walk r ->
      let f, _ = get r in
      walked.(r) <- Some (Bdd.size f, Bdd.support f)
    | Sweep -> Bdd.gc man
  in
  let check () =
    Array.iter
      (function
        | Some (f, values) ->
          Array.iteri
            (fun k env ->
              if Bdd.eval man (Testutil.env_by_level vars env) f <> values.(k)
              then fail "a held handle changed its value on sample %d" k)
            growth_samples
        | None -> ())
      regs;
    Array.iteri
      (fun r -> function
        | Some w ->
          let f, _ = get r in
          if (Bdd.size f, Bdd.support f) <> w then
            fail "r%d: size or support changed since its walk" r
        | None -> ())
      walked;
    try Bdd.check_invariants man with Failure m -> fail "%s" m
  in
  List.iter
    (fun i ->
      if !ok then begin
        step i;
        check ()
      end)
    (prog @ [ Sweep ]);
  let stat tbl name = List.assoc name tbl in
  if Bdd.peak_live_nodes man <= growth_target then
    fail "the program peaked at %d nodes, not past %d" (Bdd.peak_live_nodes man)
      growth_target;
  if stat (Bdd.unique_table_stats man) "resizes" < 3 then
    fail "fewer than 3 unique-table doublings";
  if stat (Bdd.computed_table_stats man) "resizes" < 2 then
    fail "fewer than 2 computed-table doublings";
  !ok

let test_growth =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 25 |])
    (QCheck2.Test.make ~count:4 ~name:"growth across segments and doublings"
       ~print:print_growth_program gen_growth_program prop_growth)

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "variables" `Quick test_var_basic;
          Alcotest.test_case "hash-consing canonicity" `Quick
            test_canonicity_hashcons;
          Alcotest.test_case "fifo type constraint is 9 nodes" `Quick
            test_type_constraint_size;
          Alcotest.test_case "exists/forall" `Quick test_exists_unit;
          Alcotest.test_case "rename" `Quick test_rename_unit;
          Alcotest.test_case "rename rejects non-monotone" `Quick
            test_rename_not_monotone;
          Alcotest.test_case "restrict" `Quick test_restrict_unit;
          Alcotest.test_case "sat_count" `Quick test_sat_count_unit;
          Alcotest.test_case "pick_minterm" `Quick test_pick_minterm_unit;
          Alcotest.test_case "stats counters" `Quick test_stats;
          Alcotest.test_case "cache hit/miss counters" `Quick
            test_cache_stats;
          Alcotest.test_case "dot export" `Quick test_dot_output;
          Alcotest.test_case "serialize roundtrip" `Quick
            test_serialize_roundtrip;
          Alcotest.test_case "serialize rejects garbage" `Quick
            test_serialize_rejects_garbage;
          Alcotest.test_case "serialize level relocation" `Quick
            test_serialize_relocation;
          Alcotest.test_case "serialize error paths" `Quick
            test_serialize_error_paths;
          Alcotest.test_case "fault hook fires exactly" `Quick
            test_fault_hook;
          Alcotest.test_case "node budget nests" `Quick
            test_node_budget_nesting;
          Alcotest.test_case "node budget is exact" `Quick
            test_node_budget_exact;
          Alcotest.test_case "cube counting" `Quick test_cubes_unit;
          Alcotest.test_case "reorder finds interleaving" `Quick
            test_reorder_interleaves;
          Alcotest.test_case "gc frees garbage and keeps held roots" `Quick
            test_gc_keeps_roots;
          Alcotest.test_case "sifting recovers grouped order" `Quick
            test_sift_recovers_grouped_order;
          Alcotest.test_case "apply validates against the source manager"
            `Quick test_reorder_apply_validates;
          Alcotest.test_case "computed table integrity under eviction"
            `Quick test_computed_table_integrity;
          Alcotest.test_case "computed table generation invalidation"
            `Quick test_computed_table_generations;
          Alcotest.test_case "computed table resize" `Quick
            test_computed_table_resize;
          Alcotest.test_case "computed table wide operand and wrap" `Quick
            test_computed_table_wide_operand;
          Alcotest.test_case "tiny cache preserves semantics" `Quick
            test_tiny_cache_semantics;
          Alcotest.test_case "peak seeded on short runs" `Quick
            test_peak_seeded_on_short_runs;
          Alcotest.test_case "unique table counters" `Quick
            test_unique_table_counters;
          Alcotest.test_case "walks leave hash-consing alone" `Quick
            test_walk_leaves_hashcons;
          Alcotest.test_case "walk stamp wrap" `Quick test_walk_stamp_wrap;
          Alcotest.test_case "handle stats cover held handles" `Quick
            test_handle_stats;
          Alcotest.test_case "dead handles do not grow the registry" `Quick
            test_dead_handles_do_not_grow_registry;
        ] );
      ( "properties",
        [
          qtest "semantics vs truth table" prop_semantics;
          qtest "double negation" prop_negation;
          qtest2 "canonicity" prop_canonical;
          qtest2 "exists = or of cofactors" prop_exists;
          qtest2 "and_exists = exists of and" prop_and_exists;
          qtest2 "restrict agrees on care set" prop_restrict_care;
          qtest2 "constrain defining identity" prop_constrain_algebra;
          qtest2 "theorem 3 (restrict tautology)" prop_theorem3;
          qtest2 "multi_restrict care agreement" prop_multi_restrict_care;
          qtest2 "multi_restrict single conjunct" prop_multi_restrict_single;
          qtest "sat_count" prop_sat_count;
          qtest2 "size_list sharing bounds" prop_size_list_sharing;
          qtest "support = dependent vars" prop_support;
          qtest2 "compose substitution" prop_compose;
          qtest2 "implies decision" prop_implies;
          qtest "minterm enumeration" prop_minterms;
          qtest ~count:150 "transfer preserves semantics" prop_transfer_semantics;
          qtest ~count:150 "serialization semantics" prop_serialize;
          qtest2 ~count:150 "serialization structural round trip"
            prop_serialize_structural;
          test_rooting;
          test_growth;
        ] );
    ]
