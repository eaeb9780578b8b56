(* Care-set simplification operators of Coudert, Berthet and Madre:
   Restrict (a.k.a. Reduce) and Constrain (the generalized cofactor).
   Both return a function that agrees with [f] wherever [c] holds; the
   value outside [c] is chosen to (heuristically) shrink the BDD.

   These operators carry most of the efficiency of implicitly conjoined
   invariants: every conjunct is a care set for the others. *)

open Repr

let rec restrict man f c =
  if is_true c || is_const f then f
  else if is_false c then invalid_arg "Bdd.restrict: empty care set"
  else if f = c then tru
  else if f = neg c then fls
  else begin
    let cache = man.Man.computed in
    let st = man.Man.store in
    let r = Computed.find cache Computed.op_restrict f c 0 in
    if r >= 0 then begin
      Man.hit man.Man.stat_restrict;
      r
    end
    else begin
      Man.miss man.Man.stat_restrict;
      Man.tick man;
      let lf = level st f and lc = level st c in
      let r =
        if lc < lf then
          (* f does not depend on c's top variable: drop it from the
             care set (Restrict(f, c_x \/ c_xbar)). *)
          restrict man f (Ops.bor man (low st c) (high st c))
        else begin
          let f0 = low st f and f1 = high st f in
          let c0 = cof0 st c lf and c1 = cof1 st c lf in
          if is_false c0 then restrict man f1 c1
          else if is_false c1 then restrict man f0 c0
          else begin
            let hi = restrict man f1 c1 in
            let lo = restrict man f0 c0 in
            Man.mk man lf ~low:lo ~high:hi
          end
        end
      in
      Computed.store cache Computed.op_restrict f c 0 r;
      r
    end
  end

(* Simultaneous multi-BDD Restrict: simplify [f] under the care set
   c1 /\ ... /\ ck WITHOUT building the conjunction.  This is the
   routine the paper's Section V asks for: simplifying by the c_i one
   at a time can blow f up at every step, while the conjoined care set
   -- which would shrink it -- is too big to build.

   The recursion mirrors Restrict.  Where Restrict tests its single
   care set's cofactors for emptiness, we test each c_i's cofactor
   individually; where Restrict existentially drops a care-set-only
   variable, we drop it from each c_i separately.  Both are sound
   relaxations: they can only enlarge the effective care set, and the
   result still agrees with [f] wherever every c_i holds.

   Keys are variable-length ((tag f, [tags of cs])), so this memoises
   through a per-call Hashtbl rather than the fixed-arity computed
   table; the call is not on the inner verification loop. *)
let multi_restrict man f cs =
  let cs = List.filter (fun c -> not (is_true c)) cs in
  if List.exists is_false cs then
    invalid_arg "Bdd.multi_restrict: empty care set";
  let st = man.Man.store in
  let memo : (int * int list, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go f cs =
    (* Keep only care conjuncts that can still prune something. *)
    let cs =
      List.filter (fun c -> not (is_true c)) (List.sort_uniq Int.compare cs)
    in
    if is_const f || cs = [] then f
    else if List.mem f cs then tru
    else if List.mem (neg f) cs then fls
    else begin
      let key = (f, cs) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        Man.tick man;
        let lf = level st f in
        let lc =
          List.fold_left (fun acc c -> Int.min acc (level st c)) max_int cs
        in
        let r =
          if lc < lf then begin
            (* Drop the care-only variable from every conjunct rooted
               there (c := c_x \/ c_xbar). *)
            let cs' =
              List.map
                (fun c ->
                  if level st c = lc then Ops.bor man (low st c) (high st c)
                  else c)
                cs
            in
            go f cs'
          end
          else begin
            let f0 = low st f and f1 = high st f in
            let c0s = List.map (fun c -> cof0 st c lf) cs in
            let c1s = List.map (fun c -> cof1 st c lf) cs in
            if List.exists is_false c0s then go f1 c1s
            else if List.exists is_false c1s then go f0 c0s
            else begin
              let hi = go f1 c1s in
              let lo = go f0 c0s in
              Man.mk man lf ~low:lo ~high:hi
            end
          end
        in
        Hashtbl.replace memo key r;
        r
    end
  in
  go f cs

let rec constrain man f c =
  if is_true c || is_const f then f
  else if is_false c then invalid_arg "Bdd.constrain: empty care set"
  else if f = c then tru
  else if f = neg c then fls
  else begin
    let cache = man.Man.computed in
    let st = man.Man.store in
    let r = Computed.find cache Computed.op_constrain f c 0 in
    if r >= 0 then begin
      Man.hit man.Man.stat_constrain;
      r
    end
    else begin
      Man.miss man.Man.stat_constrain;
      Man.tick man;
      let v = Int.min (level st f) (level st c) in
      let f0 = cof0 st f v and f1 = cof1 st f v in
      let c0 = cof0 st c v and c1 = cof1 st c v in
      let r =
        if is_false c1 then constrain man f0 c0
        else if is_false c0 then constrain man f1 c1
        else begin
          let hi = constrain man f1 c1 in
          let lo = constrain man f0 c0 in
          Man.mk man v ~low:lo ~high:hi
        end
      in
      Computed.store cache Computed.op_constrain f c 0 r;
      r
    end
  end
