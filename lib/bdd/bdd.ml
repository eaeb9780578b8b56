(* Public facade of the BDD package; see bdd.mli for documentation.

   The kernel computes on int edges; this is the only place handles
   ([Repr.t]) are built, each through [Repr.handle], which roots it in
   its store's registry. *)

type t = Repr.t
type man = Man.t
type varset = Man.varset

let foreign () = invalid_arg "Bdd: BDD of another manager"

(* The edge of a handle that must belong to [man].  The constants are
   the same edges in every manager, so they pass anywhere. *)
let[@inline] e man (h : t) =
  if h.Repr.store != man.Man.store && h.Repr.edge > 1 then foreign ();
  h.Repr.edge

let[@inline] wrap man edge = Repr.handle man.Man.store edge

let create = Man.create
let tru man = wrap man Repr.tru
let fls man = wrap man Repr.fls
let of_bool man b = wrap man (Repr.of_bool b)
let is_true (h : t) = Repr.is_true h.edge
let is_false (h : t) = Repr.is_false h.edge
let is_const (h : t) = Repr.is_const h.edge
let equal (a : t) (b : t) = a.edge = b.edge
let tag (h : t) = h.edge
let level (h : t) = Repr.level h.store h.edge
let compare (a : t) (b : t) = Int.compare a.edge b.edge
let hash = tag

let new_var = Man.new_var
let var man lvl = wrap man (Man.var man lvl)
let nvar man lvl = wrap man (Man.nvar man lvl)
let var_name = Man.var_name
let num_vars = Man.num_vars
let mk man lvl ~low ~high =
  wrap man (Man.mk man lvl ~low:(e man low) ~high:(e man high))

let cofactors (h : t) v =
  let st = h.store in
  if Repr.level st h.edge = v then
    (Repr.handle st (Repr.low st h.edge), Repr.handle st (Repr.high st h.edge))
  else (h, h)

let bnot man f = wrap man (Repr.neg (e man f))
let ite man f g h = wrap man (Ops.ite man (e man f) (e man g) (e man h))
let band man f g = wrap man (Ops.band man (e man f) (e man g))

let band_bounded man ~max_steps f g =
  Option.map (wrap man) (Ops.band_bounded man ~max_steps (e man f) (e man g))

let bor man f g = wrap man (Ops.bor man (e man f) (e man g))
let bxor man f g = wrap man (Ops.bxor man (e man f) (e man g))
let biff man f g = wrap man (Ops.biff man (e man f) (e man g))
let bimp man f g = wrap man (Ops.bimp man (e man f) (e man g))
let bnand man f g = wrap man (Repr.neg (Ops.band man (e man f) (e man g)))
let bnor man f g = wrap man (Repr.neg (Ops.bor man (e man f) (e man g)))

let conj man fs =
  wrap man
    (List.fold_left (fun acc f -> Ops.band man acc (e man f)) Repr.tru fs)

let disj man fs =
  wrap man
    (List.fold_left (fun acc f -> Ops.bor man acc (e man f)) Repr.fls fs)

let implies man f g = Ops.implies man (e man f) (e man g)
let cofactor man ~lvl ~value f =
  wrap man (Ops.cofactor man ~lvl ~value (e man f))
let compose man ~lvl ~by f =
  wrap man (Ops.compose man ~lvl ~by:(e man by) (e man f))

let vector_compose man subst f =
  Array.iter (Option.iter (fun h -> ignore (e man h))) subst;
  let sid, edges = Man.vcompose_entry man subst in
  wrap man (Ops.vector_compose man sid edges (e man f))

let varset = Man.varset
let varset_levels (vs : varset) = Array.to_list vs.levels
let exists man vs f = wrap man (Quant.exists man vs (e man f))
let forall man vs f = wrap man (Quant.forall man vs (e man f))
let and_exists man vs f g =
  wrap man (Quant.and_exists man vs (e man f) (e man g))

let rename man perm f = wrap man (Rename.rename man perm (e man f))

exception Not_monotone = Rename.Not_monotone

let restrict man f c = wrap man (Simplify.restrict man (e man f) (e man c))

let multi_restrict man f cs =
  wrap man (Simplify.multi_restrict man (e man f) (List.map (e man) cs))

let constrain man f c = wrap man (Simplify.constrain man (e man f) (e man c))

(* The store and edges of a list of handles, which must share a store
   (constants aside). *)
let edges_of (hs : t list) =
  match hs with
  | [] -> None
  | h :: _ ->
    let st =
      match List.find_opt (fun (g : t) -> g.edge > 1) hs with
      | Some g -> g.store
      | None -> h.store
    in
    let edge (g : t) =
      if g.store != st && g.edge > 1 then foreign ();
      g.edge
    in
    Some (st, List.map edge hs)

let checked hs =
  ignore (edges_of hs);
  hs

let size (h : t) = Size.size_list h.store [ h.edge ]

let size_list hs =
  match edges_of hs with None -> 0 | Some (st, es) -> Size.size_list st es

let support (h : t) = Size.support_list h.store [ h.edge ]

let support_list hs =
  match edges_of hs with None -> [] | Some (st, es) -> Size.support_list st es

let sat_count ~nvars (h : t) = Size.sat_count h.store ~nvars h.edge
let eval man env f = Size.eval man.Man.store env (e man f)
let pick_minterm man ~vars f = Size.pick_minterm man.Man.store ~vars (e man f)

let live_nodes = Man.live_nodes
let created_nodes = Man.created_nodes
let peak_live_nodes (man : man) = man.Man.peak_live
let cache_stats = Man.cache_stats
let computed_table_stats = Man.computed_table_stats
let unique_table_stats = Man.unique_table_stats
let gc_events = Man.gc_events
let clear_caches = Man.clear_caches
let gc = Man.gc
let check_invariants = Man.check_invariants
let progress_period = Man.progress_period
let set_progress_hook = Man.set_progress_hook
let progress_hook = Man.progress_hook
let set_fault_hook = Man.set_fault_hook
let with_node_budget = Man.with_node_budget

exception Node_budget_exhausted = Man.Node_budget_exhausted
let steps = Man.steps

module Dot = struct
  let to_channel man oc fs = Dot.to_channel man oc (List.map (e man) fs)
  let to_file man path fs = Dot.to_file man path (List.map (e man) fs)
end

module Serialize = struct
  let to_channel oc roots = Serialize.write oc (checked roots)
  let to_string roots = Serialize.to_string (checked roots)
  let of_channel ?map man ic = List.map (wrap man) (Serialize.read ?map man ic)

  let to_file _ path roots = Serialize.to_file path (checked roots)

  let of_file ?map man path =
    List.map (wrap man) (Serialize.of_file ?map man path)

  let of_string ?map man s =
    List.map (wrap man) (Serialize.of_string ?map man s)

  exception Parse_error = Serialize.Parse_error
end

module Reorder = struct
  let transfer ~dst ~perm roots =
    match edges_of roots with
    | None -> []
    | Some (src, es) ->
      List.map (wrap dst) (Reorder.transfer ~src ~dst ~perm es)

  let greedy_adjacent ?passes man roots =
    Reorder.greedy_adjacent ?passes man (List.map (e man) roots)

  let sift ?passes man roots = Reorder.sift ?passes man (List.map (e man) roots)

  let apply ~dst man roots perm =
    List.map (wrap dst) (Reorder.apply ~dst man (List.map (e man) roots) perm)
end

module Computed_table = struct
  type table = Computed.t

  let create = Computed.create
  let miss = Computed.miss
  (* The kernel's own third operands are edges or 0; a test's may be
     anything, so it is checked here against the 32-bit field. *)
  let check_c c =
    if c < 0 || c > Computed.c_mask then
      invalid_arg "Bdd.Computed_table: third operand outside [0, 2^32)"

  let find t op a b c =
    check_c c;
    Computed.find t op a b c

  let store t op a b c r =
    check_c c;
    Computed.store t op a b c r

  let trim = Computed.trim
  let clear = Computed.clear
  let slots = Computed.slots
  let occupied = Computed.occupied
  let stats = Computed.stats
end

let cubes (h : t) = Cubes.cubes h.store h.edge
let minterms man ~vars f = Cubes.minterms man.Man.store ~vars (e man f)
let count_cubes (h : t) = Cubes.count_cubes h.store h.edge

let pp man fmt f =
  (* Small printer: sum-of-paths up to a budget, else just the size. *)
  let st = man.Man.store in
  let f = e man f in
  if Repr.is_true f then Format.fprintf fmt "true"
  else if Repr.is_false f then Format.fprintf fmt "false"
  else begin
    let sz = Size.size_list st [ f ] in
    if sz > 40 then Format.fprintf fmt "<bdd:%d nodes>" sz
    else begin
      let first = ref true in
      let rec paths prefix e =
        if Repr.is_true e then begin
          if not !first then Format.fprintf fmt " | ";
          first := false;
          if prefix = [] then Format.fprintf fmt "T"
          else
            List.iter
              (fun (v, b) ->
                Format.fprintf fmt "%s%s" (if b then "" else "~")
                  (Man.var_name man v))
              (List.rev prefix)
        end
        else if Repr.is_false e then ()
        else begin
          let v = Repr.level st e in
          paths ((v, false) :: prefix) (Repr.low st e);
          paths ((v, true) :: prefix) (Repr.high st e)
        end
      in
      paths [] f
    end
  end
