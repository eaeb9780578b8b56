(* Boolean connectives, all built on a single memoised if-then-else.

   The ITE normalisation below follows Brace-Rudell-Bryant: terminal
   cases first, then rewrite so that the test edge is regular and the
   first branch is regular, which maximises cache hits and lets one
   cache entry serve an operation and its complement.

   Operands and results are int edges (see [Repr]).  Memoisation goes
   through the shared lossy computed table: the key is the packed
   (op, edge, edge, edge) quadruple, a hit is four int compares and a
   miss ([Computed.miss]) allocates nothing.

   Node numbers follow creation order, and computed-table placement,
   evictions and step counts follow node numbers.  So each recursion
   keeps a fixed order of its two branches (ITE: low first; the
   [Man.mk]-building recursions here and in [Quant], [Simplify] and
   [Rename]: high first), the order the committed node-count baselines
   were recorded with. *)

open Repr

let rec ite man f g h =
  (* Terminal cases. *)
  if is_true f then g
  else if is_false f then h
  else if g = h then g
  else if is_true g && is_false h then f
  else if is_false g && is_true h then neg f
  else if f = g then ite man f tru h (* f ? f : h  =  f \/ h *)
  else if f = neg g then ite man f fls h
  else if f = h then ite man f g fls
  else if f = neg h then ite man f g tru
  else if f land 1 = 1 then ite man (neg f) h g
  else if g land 1 = 1 then neg (ite man f (neg g) (neg h))
  else begin
    let cache = man.Man.computed in
    let r = Computed.find cache Computed.op_ite f g h in
    if r >= 0 then begin
      Man.hit man.Man.stat_ite;
      r
    end
    else begin
      Man.miss man.Man.stat_ite;
      Man.tick man;
      let st = man.Man.store in
      let v = Int.min (level st f) (Int.min (level st g) (level st h)) in
      let f0 = cof0 st f v and f1 = cof1 st f v in
      let g0 = cof0 st g v and g1 = cof1 st g v in
      let h0 = cof0 st h v and h1 = cof1 st h v in
      let lo = ite man f0 g0 h0 in
      let hi = ite man f1 g1 h1 in
      let r = Man.mk man v ~low:lo ~high:hi in
      Computed.store cache Computed.op_ite f g h r;
      r
    end
  end

let band man f g = ite man f g fls

exception Step_budget_exhausted

(* AND with a recursion-step budget: returns [None] if the computation
   needs more than [max_steps] non-cached recursive calls.  This is the
   "compute the size of a result without building it / abort if it
   exceeds a bound" capability the paper lists as future work; the
   greedy evaluation policy uses it to skip hopeless pairwise
   conjunctions.  Results live under their own op tag ([op_band]) so
   completed sub-results are shared across calls; hits and misses are
   accounted to the "ite" statistic it conceptually belongs to. *)
let band_bounded man ~max_steps f g =
  let cache = man.Man.computed in
  let steps = ref 0 in
  let rec go f g =
    if is_false f || is_false g then fls
    else if is_true f then g
    else if is_true g then f
    else if f = g then f
    else if f = neg g then fls
    else begin
      let f, g = if f <= g then (f, g) else (g, f) in
      let r = Computed.find cache Computed.op_band f g 0 in
      if r >= 0 then begin
        Man.hit man.Man.stat_ite;
        r
      end
      else begin
        Man.miss man.Man.stat_ite;
        incr steps;
        if !steps > max_steps then raise Step_budget_exhausted;
        let st = man.Man.store in
        let v = Int.min (level st f) (level st g) in
        let f0 = cof0 st f v and f1 = cof1 st f v in
        let g0 = cof0 st g v and g1 = cof1 st g v in
        let hi = go f1 g1 in
        let lo = go f0 g0 in
        let r = Man.mk man v ~low:lo ~high:hi in
        Computed.store cache Computed.op_band f g 0 r;
        r
      end
    end
  in
  try Some (go f g) with Step_budget_exhausted -> None

let bor man f g = ite man f tru g
let bxor man f g = ite man f (neg g) g
let biff man f g = ite man f g (neg g)
let bimp man f g = ite man f g tru

(* f => g as a decision procedure: no new nodes beyond the AND. *)
let implies man f g = is_false (band man f (neg g))

(* Restriction of [f] by fixing the variable at [lvl] to [value]. *)
let cofactor man ~lvl ~value f =
  let cache = man.Man.computed in
  let st = man.Man.store in
  let key_base = (lvl * 2) + Bool.to_int value in
  let rec go f =
    let lf = level st f in
    if lf > lvl then f
    else if lf = lvl then if value then high st f else low st f
    else begin
      let r = Computed.find cache Computed.op_cofactor key_base f 0 in
      if r >= 0 then begin
        Man.hit man.Man.stat_cofactor;
        r
      end
      else begin
        Man.miss man.Man.stat_cofactor;
        Man.tick man;
        let f0 = low st f and f1 = high st f in
        let hi = go f1 in
        let lo = go f0 in
        let r = Man.mk man lf ~low:lo ~high:hi in
        Computed.store cache Computed.op_cofactor key_base f 0 r;
        r
      end
    end
  in
  go f

(* Substitute the function [by] for the variable at [lvl] in [f]. *)
let compose man ~lvl ~by f =
  let f1 = cofactor man ~lvl ~value:true f in
  let f0 = cofactor man ~lvl ~value:false f in
  ite man by f1 f0

(* Simultaneous substitution: variable at level v becomes [subst.(v)]
   ([-1] keeps the variable).  Substitution is simultaneous: the
   substituted functions read the ORIGINAL variable values, so mutually
   dependent substitutions (e.g. a swap) behave correctly.  Memoised per
   interned substitution vector [sid].  This is how PreImage/BackImage
   of a deterministic machine avoids the relational product entirely. *)
let vector_compose man sid subst f =
  let cache = man.Man.computed in
  let st = man.Man.store in
  let rec go f =
    if is_const f then f
    else begin
      let r = Computed.find cache Computed.op_vcompose sid f 0 in
      if r >= 0 then begin
        Man.hit man.Man.stat_vcompose;
        r
      end
      else begin
        Man.miss man.Man.stat_vcompose;
        Man.tick man;
        let v = level st f in
        let f0 = low st f and f1 = high st f in
        let lo = go f0 in
        let hi = go f1 in
        let g =
          let s = if v < Array.length subst then subst.(v) else -1 in
          if s >= 0 then s else Man.var man v
        in
        let r = ite man g hi lo in
        Computed.store cache Computed.op_vcompose sid f 0 r;
        r
      end
    end
  in
  go f
