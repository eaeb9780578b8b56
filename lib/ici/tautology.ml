(* Exact tautology test for implicit disjunctions (Section III.B).

   Given BDDs d1..dn, decide whether d1 \/ ... \/ dn is a tautology
   without building the disjunction.  Steps, as in the paper:

   1. constant filtering: any TRUE member => tautology; drop FALSE;
   2. complement / duplicate detection (constant-time per pair thanks to
      complement edges: tag(not d) = tag(d) lxor 1);
   3. pairwise-disjunction filtering, obtained for free via Theorem 3 by
      Restrict-simplifying each member by the negations of the others and
      re-running steps 1-2;
   4. Shannon expansion on a chosen variable, recursing on both cofactor
      lists.

   The test is exponential in the worst case; [fuel] bounds the number of
   Shannon expansions so callers can observe and bound the cost.  The
   [stats] counters make the cost measurable for the benchmarks. *)

type var_choice =
  | First_top  (* top variable of the first BDD (the paper's choice) *)
  | Lowest_level  (* globally top-most variable in the list *)
  | Most_common  (* most frequent root variable in the list *)

type stats = {
  mutable expansions : int;  (* Shannon expansion count *)
  mutable simplifications : int;  (* restrict calls in step 3 *)
  mutable max_depth : int;
  mutable memo_hits : int;
  mutable checks : int;  (* top-level check calls *)
  mutable constant_hits : int;  (* step-1 TRUE-member short circuits *)
  mutable complement_hits : int;  (* step-2 complement-pair detections *)
  mutable duplicate_hits : int;  (* step-2 duplicates dropped *)
  mutable pairwise_tautologies : int;  (* step-3 Restrict found TRUE *)
  mutable fuel_exhausted : int;  (* Out_of_fuel raises (caller retries) *)
}

let fresh_stats () =
  {
    expansions = 0;
    simplifications = 0;
    max_depth = 0;
    memo_hits = 0;
    checks = 0;
    constant_hits = 0;
    complement_hits = 0;
    duplicate_hits = 0;
    pairwise_tautologies = 0;
    fuel_exhausted = 0;
  }

(* Registry mirrors: every filter that fires also bumps a process-wide
   counter, so [icv --stats] and bench snapshots see the per-filter
   breakdown without threading a stats record from the top.  Handles
   are resolved once here. *)
module M = struct
  let reg = Obs.Registry.default
  let checks = Obs.Registry.counter reg "taut.checks"
  let expansions = Obs.Registry.counter reg "taut.expansions"
  let simplifications = Obs.Registry.counter reg "taut.simplifications"
  let memo_hits = Obs.Registry.counter reg "taut.memo_hits"
  let constant_hits = Obs.Registry.counter reg "taut.constant_hits"
  let complement_hits = Obs.Registry.counter reg "taut.complement_hits"
  let duplicate_hits = Obs.Registry.counter reg "taut.duplicate_hits"
  let pairwise_tautologies = Obs.Registry.counter reg "taut.pairwise_tautologies"
  let fuel_exhausted = Obs.Registry.counter reg "taut.fuel_exhausted"
  let max_depth = Obs.Registry.gauge reg "taut.max_depth"
  let members = Obs.Registry.histogram reg "taut.check_members"
end

exception Out_of_fuel

(* Caller-held memo table (sorted-tag-list -> verdict).  Only verdicts
   of COMPLETED subproblems are ever stored, so a table that survives
   an [Out_of_fuel] escape is sound to reuse on the retry: the rerun
   skips every subtree it already settled instead of redoing all the
   expansions.  Entries are also valid across var_choice/simplify
   settings (the verdict is semantic), but only within the one manager
   whose tags keyed them, and only until its next [Bdd.gc]: a gc frees
   nodes whose indices later come back for other functions.  So the
   entries are dropped whenever the manager's gc generation moves, as
   [Policy]'s pair table is. *)
type memo_table = {
  verdicts : (int list, bool) Hashtbl.t;
  mutable gc_generation : int;
}

let create_memo () = { verdicts = Hashtbl.create 64; gc_generation = -1 }

let validate_memo man memo =
  let gen = Bdd.gc_events man in
  if memo.gc_generation <> gen then begin
    Hashtbl.reset memo.verdicts;
    memo.gc_generation <- gen
  end;
  memo.verdicts

let choose_var choice ds =
  match choice, ds with
  | _, [] -> invalid_arg "Tautology.choose_var: empty list"
  | First_top, d :: _ -> Bdd.level d
  | Lowest_level, _ ->
    List.fold_left (fun acc d -> min acc (Bdd.level d)) max_int ds
  | Most_common, _ ->
    let counts = Hashtbl.create 8 in
    List.iter
      (fun d ->
        let v = Bdd.level d in
        Hashtbl.replace counts v
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
      ds;
    let best, _ =
      Hashtbl.fold
        (fun v c ((_, bc) as acc) -> if c > bc then (v, c) else acc)
        counts (-1, 0)
    in
    best

(* Steps 1-2: constants, duplicates, complements.  Returns [None] when
   the disjunction is already known to be a tautology. *)
let filter_members stats ds =
  let seen = Hashtbl.create 16 in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | d :: rest ->
      if Bdd.is_true d then begin
        stats.constant_hits <- stats.constant_hits + 1;
        Obs.Registry.incr M.constant_hits;
        None
      end
      else if Bdd.is_false d then go acc rest
      else begin
        let t = Bdd.tag d in
        if Hashtbl.mem seen (t lxor 1) then begin
          (* complement present *)
          stats.complement_hits <- stats.complement_hits + 1;
          Obs.Registry.incr M.complement_hits;
          None
        end
        else if Hashtbl.mem seen t then begin
          (* duplicate *)
          stats.duplicate_hits <- stats.duplicate_hits + 1;
          Obs.Registry.incr M.duplicate_hits;
          go acc rest
        end
        else begin
          Hashtbl.add seen t ();
          go (d :: acc) rest
        end
      end
  in
  go [] ds

(* Step 3 via Theorem 3: d_i := Restrict(d_i, not d_j).  Each step is
   individually sound for the disjunction (where d_j holds the
   disjunction is true regardless of d_i), and if any member becomes
   constant TRUE the pairwise disjunction was a tautology. *)
let simplify_members man stats ds =
  let arr = Array.of_list ds in
  let n = Array.length arr in
  let tauto = ref false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if (not !tauto) && i <> j
         && (not (Bdd.is_const arr.(i)))
         && not (Bdd.is_const arr.(j))
      then begin
        stats.simplifications <- stats.simplifications + 1;
        Obs.Registry.incr M.simplifications;
        let r = Bdd.restrict man arr.(i) (Bdd.bnot man arr.(j)) in
        if Bdd.is_true r then begin
          stats.pairwise_tautologies <- stats.pairwise_tautologies + 1;
          Obs.Registry.incr M.pairwise_tautologies;
          tauto := true
        end
        else arr.(i) <- r
      end
    done
  done;
  if !tauto then None else Some (Array.to_list arr)

(* Memoisation of subproblems: the recursion often reaches the same
   implicit disjunction along exponentially many cofactor paths (e.g.
   lists of symmetric or counting functions).  By canonicity the sorted
   tag list identifies the disjunction exactly, so caching verdicts
   turns such cases polynomial.  An improvement over the paper's
   description (which has no memo); disable with [memo:false] to
   measure the difference (see the worst-case ablation benchmark). *)
let check ?(var_choice = First_top) ?(simplify = true) ?(memo = true) ?fuel
    ?memo_table ?stats man ds =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  (* [memo_table] lets the caller hold the table across calls -- in
     particular across an [Out_of_fuel] escape, which used to discard
     every accumulated verdict right when they were most needed. *)
  let table =
    validate_memo man
      (match memo_table with Some t -> t | None -> create_memo ())
  in
  let burn () =
    stats.expansions <- stats.expansions + 1;
    Obs.Registry.incr M.expansions;
    match fuel with
    | Some limit when stats.expansions > limit ->
      stats.fuel_exhausted <- stats.fuel_exhausted + 1;
      Obs.Registry.incr M.fuel_exhausted;
      raise Out_of_fuel
    | _ -> ()
  in
  let rec go depth ds =
    if depth > stats.max_depth then begin
      stats.max_depth <- depth;
      Obs.Registry.set_max M.max_depth (float_of_int depth)
    end;
    match filter_members stats ds with
    | None -> true
    | Some [] -> false
    | Some [ d ] -> Bdd.is_true d
    | Some ds -> (
      let key =
        if memo then Some (List.sort compare (List.map Bdd.tag ds)) else None
      in
      match Option.bind key (Hashtbl.find_opt table) with
      | Some verdict ->
        stats.memo_hits <- stats.memo_hits + 1;
        Obs.Registry.incr M.memo_hits;
        verdict
      | None ->
        let verdict = expand depth ds in
        (match key with
        | Some k -> Hashtbl.replace table k verdict
        | None -> ());
        verdict)
  and expand depth ds =
    let ds =
      if simplify then
        match simplify_members man stats ds with
        | None -> [ Bdd.tru man ]
        | Some ds' -> ds'
      else ds
    in
    match filter_members stats ds with
    | None -> true
    | Some [] -> false
    | Some [ d ] -> Bdd.is_true d
    | Some ds ->
      burn ();
      let v = choose_var var_choice ds in
      let cof value =
        List.map (fun d -> Bdd.cofactor man ~lvl:v ~value d) ds
      in
      go (depth + 1) (cof false) && go (depth + 1) (cof true)
  in
  stats.checks <- stats.checks + 1;
  Obs.Registry.incr M.checks;
  Obs.Registry.observe M.members (List.length ds);
  Obs.Tracer.with_span (Obs.Tracer.global ()) ~cat:"taut"
    ~args:(fun () -> [ ("members", Obs.Json.Int (List.length ds)) ])
    "taut.check"
    (fun () -> go 0 ds)

(* X => Y for implicit conjunctions X = /\ xs, Y = /\ ys: for every y_j,
   (not x1 \/ ... \/ not xn \/ y_j) must be a tautology. *)
let implies ?var_choice ?simplify ?memo ?fuel ?memo_table ?stats man xs ys =
  let negated = List.map (Bdd.bnot man) xs in
  List.for_all
    (fun y ->
      check ?var_choice ?simplify ?memo ?fuel ?memo_table ?stats man
        (y :: negated))
    ys

(* Exact equality of two implicit conjunctions (the paper's termination
   test): mutual implication. *)
let equal ?var_choice ?simplify ?memo ?fuel ?memo_table ?stats man xs ys =
  implies ?var_choice ?simplify ?memo ?fuel ?memo_table ?stats man xs ys
  && implies ?var_choice ?simplify ?memo ?fuel ?memo_table ?stats man ys xs
