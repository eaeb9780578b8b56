(* Counterexample extraction.

   Forward traversal keeps its onion rings R_0 subset R_1 subset ... and
   walks backwards from a violating state; backward traversal keeps the
   G_i and walks forwards, at each step picking a successor outside
   G_{i-1} (one must exist: s in G_0 \ G_i means some successor escapes
   G_{i-1}).  Either walk touches only single-state cubes, so it is
   cheap even when the sets were implicit conjunctions. *)

let state_cube man levels env =
  Bdd.conj man
    (List.map (fun l -> if env.(l) then Bdd.var man l else Bdd.nvar man l)
       levels)

(* Pick a state from a set over current-state levels, padded to a full
   assignment so downstream [Bdd.eval] calls never index out of range. *)
let pick trans set =
  let man = Fsm.Trans.man trans in
  let levels = Fsm.Space.current_levels (Fsm.Trans.space trans) in
  let env = Bdd.pick_minterm man ~vars:levels set in
  let full = Array.make (max 1 (Bdd.num_vars man)) false in
  Array.blit env 0 full 0 (min (Array.length env) (Array.length full));
  full

(* Forward: [rings] are R_0 ... R_k (increasing); [bad] is a state of
   R_k violating the property.  Returns a path init .. bad.  A ring is
   whatever represents R_i -- one BDD, a reduced set plus dependencies,
   a list of disjuncts -- given how it tests a state for membership and
   how it cuts a predecessor set down to its states. *)
let forward trans ~mem ~within ~rings ~bad =
  let man = Fsm.Trans.man trans in
  let levels = Fsm.Space.current_levels (Fsm.Trans.space trans) in
  let rings = Array.of_list rings in
  let rec first_ring i = if mem bad rings.(i) then i else first_ring (i + 1) in
  let rec walk i state acc =
    if i = 0 then state :: acc
    else begin
      let cube = state_cube man levels state in
      let preds = within (Fsm.Trans.pre_image trans cube) rings.(i - 1) in
      walk (i - 1) (pick trans preds) (state :: acc)
    end
  in
  walk (first_ring 0) bad []

(* Backward: [gs] are G_0 ... G_i as implicit conjunctions (G_0 is the
   property); [start] is a start state outside G_i.  Returns a path from
   [start] to a state violating G_0. *)
let backward trans ~gs ~start =
  let man = Fsm.Trans.man trans in
  let gs = Array.of_list gs in
  let top = Array.length gs - 1 in
  let rec walk k state acc =
    if not (Ici.Clist.eval man state gs.(0)) then List.rev (state :: acc)
    else begin
      (* state is in G_0 but outside G_k (k >= 1): a successor escapes
         G_{k-1}. *)
      assert (k >= 1);
      let succs = Fsm.Trans.successors_of_state trans state in
      let escape =
        match Ici.Clist.find_unimplied man succs gs.(k - 1) with
        | Some c -> Bdd.band man succs (Bdd.bnot man c)
        | None ->
          invalid_arg "Trace.backward: state does not actually escape"
      in
      let t = pick trans escape in
      walk (k - 1) t (state :: acc)
    end
  in
  walk top start []

(* Check that a trace is a real counterexample: starts in init, every
   step is a transition, ends outside the property.  Used by the test
   suite and callable by applications that want certified traces. *)
let validate trans ~init ~good trace =
  let man = Fsm.Trans.man trans in
  let rec steps = function
    | [] | [ _ ] -> true
    | s :: (t :: _ as rest) ->
      let succs = Fsm.Trans.successors_of_state trans s in
      Bdd.eval man t succs && steps rest
  in
  match trace with
  | [] -> false
  | first :: _ ->
    let last = List.nth trace (List.length trace - 1) in
    Bdd.eval man first init
    && steps trace
    && not (Ici.Clist.eval man last good)
