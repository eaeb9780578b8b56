(* Size accounting, support and model counting over the edges of one
   store.

   [size_list] measures a whole implicit conjunction at once, counting
   shared nodes a single time -- this is the BDDSize(Xi, Xj) of the
   paper's evaluation heuristic (Figure 1), where node sharing between
   conjuncts must be taken into account.  Walks mark visited nodes in
   a stamp field of each node, so they allocate nothing per node. *)

open Repr

(* Number of distinct nodes reachable from the edges, terminal included
   (matching the convention of the paper's node counts). *)
let size_list st fs =
  let s = new_stamp st in
  let count = ref 0 in
  let rec visit n =
    if stamp_of st n <> s then begin
      set_stamp st n s;
      incr count;
      if n <> 0 then begin
        visit (node_low st n lsr 1);
        visit (node_high st n lsr 1)
      end
    end
  in
  List.iter (fun f -> visit (node f)) fs;
  !count

let support_list st fs =
  let s = new_stamp st in
  let levels = Hashtbl.create 16 in
  let rec visit n =
    if stamp_of st n <> s then begin
      set_stamp st n s;
      if n <> 0 then begin
        Hashtbl.replace levels (node_level st n) ();
        visit (node_low st n lsr 1);
        visit (node_high st n lsr 1)
      end
    end
  in
  List.iter (fun f -> visit (node f)) fs;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) levels [])

(* Number of satisfying assignments over [nvars] variables (levels
   0..nvars-1 are assumed to cover the support).  Computed in floats:
   the models verified here stay far below 2^53 distinguishable
   assignments per node. *)
let sat_count st ~nvars f =
  let memo = Hashtbl.create 64 in
  (* fraction of assignments to vars >= level e satisfying e, seen as a
     function of variables level(e)..nvars-1 --- computed as a pure
     probability with independent fair bits, which is exact. *)
  let rec fraction e =
    if is_true e then 1.0
    else if is_false e then 0.0
    else begin
      match Hashtbl.find_opt memo e with
      | Some p -> p
      | None ->
        let p = 0.5 *. (fraction (low st e) +. fraction (high st e)) in
        Hashtbl.replace memo e p;
        p
    end
  in
  fraction f *. (2.0 ** float_of_int nvars)

(* Evaluate under a total assignment (indexed by level). *)
let eval st env f =
  let rec go e =
    if is_const e then is_true e
    else if env.(level st e) then go (high st e)
    else go (low st e)
  in
  go f

(* A satisfying assignment for the variables in [vars]; variables not
   constrained by the path are set to false.  Raises [Not_found] on the
   constant false. *)
let pick_minterm st ~vars f =
  if is_false f then raise Not_found;
  let n = 1 + List.fold_left max (-1) vars in
  let env = Array.make (max n 1) false in
  let rec walk e =
    if not (is_const e) then begin
      let v = level st e in
      let e1 = high st e in
      if not (is_false e1) then begin
        if v < Array.length env then env.(v) <- true;
        walk e1
      end
      else walk (low st e)
    end
  in
  walk f;
  env
