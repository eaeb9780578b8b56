(* Quantification and the combined AND-EXISTS ("relational product")
   operator used by image computations.

   Both recursions exploit the ordering invariant that below a node at
   level v only levels > v occur, so a memo entry keyed by the full
   variable-set id is valid wherever the subproblem reappears. *)

open Repr

let rec exists man vs f =
  let st = man.Man.store in
  if is_const f then f
  else if level st f > Man.varset_max vs then f
  else begin
    let cache = man.Man.computed in
    let a = vs.Man.vid in
    let r = Computed.find cache Computed.op_exists a f 0 in
    if r >= 0 then begin
      Man.hit man.Man.stat_exists;
      r
    end
    else begin
      Man.miss man.Man.stat_exists;
      Man.tick man;
      let v = level st f in
      let f0 = low st f and f1 = high st f in
      let r =
        if Man.varset_mem vs v then begin
          let lo = exists man vs f0 in
          if is_true lo then tru
          else Ops.bor man lo (exists man vs f1)
        end
        else begin
          let hi = exists man vs f1 in
          let lo = exists man vs f0 in
          Man.mk man v ~low:lo ~high:hi
        end
      in
      Computed.store cache Computed.op_exists a f 0 r;
      r
    end
  end

let forall man vs f = neg (exists man vs (neg f))

(* and_exists man vs f g = exists vs (f /\ g), computed without building
   the conjunction first.  This is the workhorse of Image/PreImage. *)
let rec and_exists man vs f g =
  if is_false f || is_false g then fls
  else if is_true f then exists man vs g
  else if is_true g then exists man vs f
  else if f = g then exists man vs f
  else if f = neg g then fls
  else begin
    (* Order the pair for cache symmetry. *)
    let f, g = if f <= g then (f, g) else (g, f) in
    let st = man.Man.store in
    let lf = level st f and lg = level st g in
    let top = Man.varset_max vs in
    if lf > top && lg > top then Ops.band man f g
    else begin
      let cache = man.Man.computed in
      let a = vs.Man.vid in
      let r = Computed.find cache Computed.op_and_exists a f g in
      if r >= 0 then begin
        Man.hit man.Man.stat_and_exists;
        r
      end
      else begin
        Man.miss man.Man.stat_and_exists;
        Man.tick man;
        let v = Int.min lf lg in
        let f0 = cof0 st f v and f1 = cof1 st f v in
        let g0 = cof0 st g v and g1 = cof1 st g v in
        let r =
          if Man.varset_mem vs v then begin
            let lo = and_exists man vs f0 g0 in
            if is_true lo then tru
            else Ops.bor man lo (and_exists man vs f1 g1)
          end
          else begin
            let hi = and_exists man vs f1 g1 in
            let lo = and_exists man vs f0 g0 in
            Man.mk man v ~low:lo ~high:hi
          end
        in
        Computed.store cache Computed.op_and_exists a f g r;
        r
      end
    end
  end
