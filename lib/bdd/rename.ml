(* Variable renaming by a level permutation that is order-preserving on
   the support of the argument (the common case: mapping next-state
   variables back onto their interleaved current-state partners).  Under
   that precondition a single structural pass suffices. *)

open Repr

exception Not_monotone

let rename man perm f =
  let cache = man.Man.computed in
  let st = man.Man.store in
  let pid = Man.perm_id man perm in
  let map lvl = if lvl < Array.length perm then perm.(lvl) else lvl in
  let rec go bound f =
    if is_const f then f
    else begin
      let r = Computed.find cache Computed.op_rename pid f 0 in
      if r >= 0 then begin
        Man.hit man.Man.stat_rename;
        if level st r <> terminal_level && level st r <= bound then
          raise Not_monotone;
        r
      end
      else begin
        Man.miss man.Man.stat_rename;
        let v' = map (level st f) in
        if v' <= bound then raise Not_monotone;
        let f0 = low st f and f1 = high st f in
        let hi = go v' f1 in
        let lo = go v' f0 in
        let r = Man.mk man v' ~low:lo ~high:hi in
        Computed.store cache Computed.op_rename pid f 0 r;
        r
      end
    end
  in
  go (-1) f
