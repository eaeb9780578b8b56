(* Offline variable-order optimisation.

   Levels in this package are static (nodes store their level), so
   reordering works by TRANSFER: rebuilding BDDs under a level
   permutation, possibly into a different manager.  [transfer] accepts
   an arbitrary permutation -- the reconstruction goes through ITE, so
   non-monotone maps are fine (unlike the cheap [Rename.rename]).

   [greedy_adjacent] is an offline sifting-flavoured search: repeated
   adjacent-position swaps, each evaluated by transferring the roots
   into a scratch manager, kept when the shared size shrinks.  Meant
   for model development (finding a better declaration order), not for
   dynamic use during verification. *)

open Repr

(* Rebuild the edges [roots] of store [src] with level [l] mapped to
   [perm.(l)] (identity beyond the array), in manager [dst]. *)
let transfer ~src ~dst ~perm roots =
  let memo = Hashtbl.create 256 in
  let map l = if l < Array.length perm then perm.(l) else l in
  let rec tr e =
    if is_const e then e
    else begin
      match Hashtbl.find_opt memo e with
      | Some r -> r
      | None ->
        let lo = tr (low src e) in
        let hi = tr (high src e) in
        let r = Ops.ite dst (Man.var dst (map (level src e))) hi lo in
        Hashtbl.replace memo e r;
        r
    end
  in
  List.map tr roots

(* Shared size of the roots under candidate order [order]
   (position -> original level), evaluated in a scratch manager. *)
let size_under ~src ~nvars roots order =
  let scratch = Man.create () in
  for _ = 1 to nvars do
    ignore (Man.new_var scratch)
  done;
  let perm = Array.make nvars 0 in
  Array.iteri (fun pos l -> perm.(l) <- pos) order;
  let moved = transfer ~src ~dst:scratch ~perm roots in
  Size.size_list scratch.Man.store moved

let greedy_adjacent ?(passes = 2) man roots =
  let src = man.Man.store in
  let nvars = Man.num_vars man in
  let order = Array.init nvars (fun i -> i) in
  let best = ref (size_under ~src ~nvars roots (Array.copy order)) in
  for _ = 1 to passes do
    for pos = 0 to nvars - 2 do
      let a = order.(pos) and b = order.(pos + 1) in
      order.(pos) <- b;
      order.(pos + 1) <- a;
      let candidate = size_under ~src ~nvars roots order in
      if candidate < !best then best := candidate
      else begin
        (* revert *)
        order.(pos) <- a;
        order.(pos + 1) <- b
      end
    done
  done;
  let perm = Array.make (max nvars 1) 0 in
  Array.iteri (fun pos l -> perm.(l) <- pos) order;
  perm

(* Classical sifting adapted to offline evaluation: move each variable
   through every position of the order (cheapest-first restarts), keep
   the best position, repeat for [passes].  Escapes the local minima
   that defeat adjacent swaps (e.g. recovering a grouped order from a
   fully interleaved one); costs O(passes * nvars^2) transfers, so it
   is a model-development tool for moderate root sizes. *)
let sift ?(passes = 1) man roots =
  let src = man.Man.store in
  let nvars = Man.num_vars man in
  let order = ref (Array.init nvars (fun i -> i)) in
  let evaluate order = size_under ~src ~nvars roots order in
  let best = ref (evaluate !order) in
  for _ = 1 to passes do
    for v = 0 to nvars - 1 do
      (* Current position of level v. *)
      let cur = !order in
      let pos = ref 0 in
      Array.iteri (fun i l -> if l = v then pos := i) cur;
      let without =
        Array.of_list (List.filter (( <> ) v) (Array.to_list cur))
      in
      let best_pos = ref !pos and improved = ref false in
      for candidate = 0 to nvars - 1 do
        if candidate <> !pos then begin
          let trial = Array.make nvars 0 in
          Array.blit without 0 trial 0 candidate;
          trial.(candidate) <- v;
          Array.blit without candidate trial (candidate + 1)
            (nvars - candidate - 1);
          let size = evaluate trial in
          if size < !best then begin
            best := size;
            best_pos := candidate;
            improved := true
          end
        end
      done;
      if !improved then begin
        let trial = Array.make nvars 0 in
        Array.blit without 0 trial 0 !best_pos;
        trial.(!best_pos) <- v;
        Array.blit without !best_pos trial (!best_pos + 1)
          (nvars - !best_pos - 1);
        order := trial
      end
    done
  done;
  let perm = Array.make (max nvars 1) 0 in
  Array.iteri (fun pos l -> perm.(l) <- pos) !order;
  perm

(* [apply] is [transfer] plus validation against the source manager:
   the permutation must be injective over the source's variables and
   every target level must already be allocated in [dst], otherwise
   [transfer] would fail deep inside [mk] with an unhelpful assertion
   (or silently alias two source levels onto one target). *)
let apply ~dst man roots perm =
  let nvars = Man.num_vars man in
  let n = Array.length perm in
  let map l = if l < n then perm.(l) else l in
  let seen = Hashtbl.create (max nvars 16) in
  for l = 0 to nvars - 1 do
    let t = map l in
    if t < 0 || t >= Man.num_vars dst then
      invalid_arg
        (Printf.sprintf
           "Reorder.apply: level %d maps to %d, not allocated in dst" l t);
    match Hashtbl.find_opt seen t with
    | Some l' ->
      invalid_arg
        (Printf.sprintf
           "Reorder.apply: permutation not injective (levels %d and %d both \
            map to %d)"
           l' l t)
    | None -> Hashtbl.replace seen t l
  done;
  transfer ~src:man.Man.store ~dst ~perm roots
