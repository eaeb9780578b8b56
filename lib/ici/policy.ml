(* The paper's evaluation and simplification policy (Section III.A).

   Two phases applied to an implicitly conjoined list:

   1. cross-simplification: each conjunct is simplified, one individually
      sound step at a time, by conjuncts currently smaller than it, using
      Restrict (or Constrain, for the ablation);
   2. greedy conjunction evaluation (Figure 1): repeatedly evaluate the
      pairwise conjunction whose BDD is smallest relative to the shared
      size of its two operands, until the best ratio exceeds
      GrowThreshold (1.5 in the paper). *)

type simplifier = Restrict | Constrain | Multi_restrict | No_simplify

type evaluation = Greedy | Optimal_cover | No_evaluation

type config = {
  grow_threshold : float;
  simplifier : simplifier;
  evaluation : evaluation;
  pair_step_factor : int option;
      (* the paper's future-work size-bounded AND: abort a pairwise
         conjunction after factor * shared-size recursion steps and
         treat the pair as unprofitable (ratio infinity).  [None] builds
         every pair unconditionally, as the paper's implementation did. *)
}

let default =
  { grow_threshold = 1.5; simplifier = Restrict; evaluation = Greedy;
    pair_step_factor = Some 64 }

(* Process-wide policy metrics ("policy.*" in Obs.Registry.default).
   NOTE: [config] is serialized field-by-field into checkpoints, so
   stats must stay out of it; the registry carries them instead. *)
module M = struct
  let reg = Obs.Registry.default
  let pairs_scored = Obs.Registry.counter reg "policy.pairs_scored"
  let pairs_abandoned = Obs.Registry.counter reg "policy.pairs_abandoned"
  let pair_cache_hits = Obs.Registry.counter reg "policy.pair_cache_hits"
  let merges = Obs.Registry.counter reg "policy.merges"
  let restrict_wins = Obs.Registry.counter reg "policy.restrict_wins"
  let restrict_losses = Obs.Registry.counter reg "policy.restrict_losses"
  let collapses = Obs.Registry.counter reg "policy.collapses"

  (* Best-pair size ratios, in percent (so 150 = the default
     GrowThreshold); log2 buckets separate "free" merges (<100) from
     marginal and hopeless ones. *)
  let ratio_pct = Obs.Registry.histogram reg "policy.best_ratio_pct"
end

let apply_simplifier man simplifier f care =
  match simplifier with
  | Restrict | Multi_restrict -> Bdd.restrict man f care
  | Constrain -> Bdd.constrain man f care
  | No_simplify -> f

(* One pass of cross-simplification.  Every individual replacement
   x_i := Simplify(x_i, x_j) with x_j still in the list preserves the
   implied conjunction, so any sequence of such steps is sound.  We
   process conjuncts from smallest to largest and only simplify by
   strictly smaller conjuncts ("simplifying a small BDD by a large BDD,
   in our experience, does little good"). *)
let simplify_pass man cfg xs =
  match cfg.simplifier with
  | No_simplify -> Clist.of_list man xs
  | Multi_restrict ->
    (* Section V's simultaneous simplification: each conjunct is
       simplified under the conjoined care set of ALL the others, which
       is never built.  Each individual replacement is sound (the other
       conjuncts remain in the list), so the sequence is sound. *)
    let xs = Clist.of_list man xs in
    if Clist.is_false xs then xs
    else begin
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let collapsed = ref false in
      for i = 0 to n - 1 do
        if not !collapsed then begin
          let others =
            List.filteri (fun j _ -> j <> i) (Array.to_list arr)
          in
          let r = Bdd.multi_restrict man arr.(i) others in
          if Bdd.size r < Bdd.size arr.(i) then
            Obs.Registry.incr M.restrict_wins
          else Obs.Registry.incr M.restrict_losses;
          if Bdd.is_false r then begin
            Obs.Registry.incr M.collapses;
            collapsed := true
          end
          else arr.(i) <- r
        end
      done;
      if !collapsed then [ Bdd.fls man ]
      else Clist.of_list man (Array.to_list arr)
    end
  | (Restrict | Constrain) as s ->
    let xs = Clist.of_list man xs in
    if Clist.is_false xs then xs
    else begin
      let arr = Array.of_list xs in
      (* [sizes.(k)] is [Bdd.size arr.(k)], kept in step with [arr]:
         each conjunct is walked once, not once per comparison. *)
      let sizes = Array.map Bdd.size arr in
      let order =
        List.sort
          (fun i j -> compare sizes.(i) sizes.(j))
          (List.init (Array.length arr) (fun i -> i))
      in
      let collapsed = ref false in
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if (not !collapsed) && j <> i
                 && (not (Bdd.is_const arr.(j)))
                 && (not (Bdd.is_const arr.(i)))
                 && sizes.(j) < sizes.(i)
              then begin
                let r = apply_simplifier man s arr.(i) arr.(j) in
                let size_r = Bdd.size r in
                if size_r < sizes.(i) then
                  Obs.Registry.incr M.restrict_wins
                else Obs.Registry.incr M.restrict_losses;
                (* r = false means x_i /\ x_j is unsatisfiable. *)
                if Bdd.is_false r then begin
                  Obs.Registry.incr M.collapses;
                  collapsed := true
                end
                else begin
                  arr.(i) <- r;
                  sizes.(i) <- size_r
                end
              end)
            order)
        order;
      if !collapsed then [ Bdd.fls man ]
      else Clist.of_list man (Array.to_list arr)
    end

(* A scored pair: the conjunction with its size, and the shared size
   of its two operands.  BDD sizes are pure, so they are measured once,
   when the pair is scored, not on every merge round. *)
type pair = { conj : Bdd.t; conj_size : int; shared_size : int }

(* The pair table P of Figure 1, held by the caller so entries survive
   across [improve] calls (one traversal iteration each): pairs whose
   operands did not change between iterations keep their scored
   conjunction.  Keys are conjunct tags.  A [Bdd.gc] may free a node
   whose tag later comes back for a different function, so the table
   is invalidated whenever the manager's gc generation moves; until
   then no tag is reused, and a stale key cannot alias. *)
type state = {
  pairs : (int * int, pair option) Hashtbl.t;
  mutable gc_generation : int;
}

let create_state () = { pairs = Hashtbl.create 64; gc_generation = -1 }

let validate_state man st =
  let gen = Bdd.gc_events man in
  if st.gc_generation <> gen then begin
    Hashtbl.reset st.pairs;
    st.gc_generation <- gen
  end;
  st

(* Greedy pair evaluation, Figure 1 of the paper.  The pair table P is a
   cache keyed by conjunct tags; pass [state] (kept by the traversal
   loop) so entries survive across traversal iterations, not just
   across the merge loop below.  With [pair_step_factor = Some k] a
   pairwise conjunction is abandoned after k * shared-size recursion
   steps (and cached as hopeless), realising the size-bounded
   evaluation the paper proposes as future work. *)
let greedy_evaluate man ?state ?pair_step_factor ~grow_threshold xs =
  let state =
    validate_state man
      (match state with Some st -> st | None -> create_state ())
  in
  let pair_cache = state.pairs in
  let conjoin a b =
    let ka = Bdd.tag a and kb = Bdd.tag b in
    let key = if ka <= kb then (ka, kb) else (kb, ka) in
    match Hashtbl.find_opt pair_cache key with
    | Some p ->
      Obs.Registry.incr M.pair_cache_hits;
      p
    | None ->
      Obs.Registry.incr M.pairs_scored;
      let shared_size = Bdd.size_list [ a; b ] in
      let conj =
        match pair_step_factor with
        | None -> Some (Bdd.band man a b)
        | Some factor ->
          let max_steps = (factor * shared_size) + 1024 in
          Bdd.band_bounded man ~max_steps a b
      in
      let p =
        Option.map
          (fun conj -> { conj; conj_size = Bdd.size conj; shared_size })
          conj
      in
      if Option.is_none p then Obs.Registry.incr M.pairs_abandoned;
      Hashtbl.replace pair_cache key p;
      p
  in
  let rec loop xs =
    match xs with
    | [] | [ _ ] -> xs
    | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let best = ref None in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          match conjoin arr.(i) arr.(j) with
          | None -> () (* budget blown: ratio is effectively infinite *)
          | Some p ->
            let ratio =
              float_of_int p.conj_size /. float_of_int p.shared_size
            in
            (match !best with
            | Some (r, _, _, _) when r <= ratio -> ()
            | _ -> best := Some (ratio, i, j, p))
        done
      done;
      (match !best with
      | Some (r, _, _, _) ->
        Obs.Registry.observe M.ratio_pct (int_of_float (r *. 100.0))
      | None -> ());
      (match !best with
      | Some (r, i, j, p) when r <= grow_threshold ->
        Obs.Registry.incr M.merges;
        let rest =
          List.filteri (fun k _ -> k <> i && k <> j) (Array.to_list arr)
        in
        loop (Clist.of_list man (p.conj :: rest))
      | Some _ | None -> xs)
  in
  loop (Clist.of_list man xs)

(* Exact minimum-cost pairwise cover (Theorem 2), used as an ablation
   baseline for the greedy policy. *)
let cover_evaluate man xs =
  let xs = Clist.of_list man xs in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n <= 1 || n > Matching.max_exact then xs
  else begin
    let pair i j = Bdd.band man arr.(i) arr.(j) in
    let pair_cost i j = Bdd.size (pair i j) in
    let single_cost i = Bdd.size arr.(i) in
    let cover = Matching.min_cost_pair_cover ~n ~single_cost ~pair_cost in
    let parts =
      List.map
        (function
          | Matching.Single i -> arr.(i)
          | Matching.Pair (i, j) -> pair i j)
        cover
    in
    Clist.of_list man parts
  end

(* The full XICI list transformer: simplify, then evaluate.  Each phase
   is a span so traces show where policy time goes; args record the
   list length going in and out. *)
let improve man ?state cfg xs =
  let tracer = Obs.Tracer.global () in
  let span name n f =
    Obs.Tracer.with_span tracer ~cat:"policy"
      ~args:(fun () -> [ ("conjuncts", Obs.Json.Int n) ])
      name f
  in
  let xs =
    span "policy.simplify" (List.length xs) (fun () ->
        simplify_pass man cfg xs)
  in
  if Clist.is_false xs then xs
  else
    span "policy.evaluate" (List.length xs) (fun () ->
        match cfg.evaluation with
        | Greedy ->
          greedy_evaluate man ?state ?pair_step_factor:cfg.pair_step_factor
            ~grow_threshold:cfg.grow_threshold xs
        | Optimal_cover -> cover_evaluate man xs
        | No_evaluation -> xs)
