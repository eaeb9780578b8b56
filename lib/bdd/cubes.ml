(* Enumeration of satisfying assignments.

   [cubes] yields the satisfying paths of the BDD: partial assignments
   in which unmentioned variables are free.  [minterms] expands them
   over a given variable list into total assignments.  Both are lazy
   (Seq.t), so callers can stop early; enumerating all minterms of a
   large function is intentionally the caller's decision. *)

open Repr

type literal = int * bool (* level, phase *)

let cubes st f : literal list Seq.t =
  let rec walk prefix e () =
    if is_true e then Seq.Cons (List.rev prefix, Seq.empty)
    else if is_false e then Seq.Nil
    else begin
      let v = level st e in
      Seq.append
        (walk ((v, false) :: prefix) (low st e))
        (walk ((v, true) :: prefix) (high st e))
        ()
    end
  in
  walk [] f
let minterms st ~vars f : bool array Seq.t =
  let vars = List.sort_uniq compare vars in
  let size = 1 + List.fold_left max (-1) vars in
  let free cube = List.filter (fun v -> not (List.mem_assoc v cube)) vars in
  let expand cube =
    (* All completions of a cube over the free variables.  The shared
       mutable environment is safe because consumption is sequential
       and every branch (re)sets its own variable each time its first
       element is forced, before any deeper closure runs; leaves copy. *)
    let rec go env = function
      | [] -> Seq.return (Array.copy env)
      | v :: rest ->
        Seq.append
          (fun () ->
            env.(v) <- false;
            go env rest ())
          (fun () ->
            env.(v) <- true;
            go env rest ())
    in
    let env = Array.make (max size 1) false in
    List.iter (fun (v, b) -> if v < size then env.(v) <- b) cube;
    go env (free cube)
  in
  Seq.concat_map expand (cubes st f)

let count_cubes st f = Seq.fold_left (fun n _ -> n + 1) 0 (cubes st f)
