(* Textual serialization of BDDs.

   Format: a header line "bdd <nodes> <roots>", one line per internal
   node in bottom-up (children-first) order

       <id> <level> <low-id> <low-neg> <high-id>

   with the terminal fixed as id 0, then one line per root
   "root <id> <neg>".  Node ids are densely renumbered on output, so
   files are stable across managers and GC states. *)

open Repr

(* Core writer, parametrised over the output sink so the same code
   serves channels (checkpoints) and in-memory strings (shipping BDDs
   between domains, where a string is immutable and safely shared). *)
let write_gen out (roots : Repr.t list) =
  let order = ref [] in
  let index = Hashtbl.create 64 in
  let rec visit n =
    if not (Hashtbl.mem index n) then begin
      if n = 0 then Hashtbl.replace index n 0
      else begin
        let st = (List.hd roots).store and r = n lsl 1 in
        visit (node (low st r));
        visit (node (high st r));
        Hashtbl.replace index n (Hashtbl.length index);
        order := n :: !order
      end
    end
  in
  List.iter (fun (r : Repr.t) -> visit (node r.edge)) roots;
  (* The terminal may be absent if every root is constant. *)
  if not (Hashtbl.mem index 0) then Hashtbl.replace index 0 0;
  let nodes = List.rev !order in
  out (Printf.sprintf "bdd %d %d\n" (List.length nodes) (List.length roots));
  List.iter
    (fun n ->
      let st = (List.hd roots).store and r = n lsl 1 in
      let lo = low st r in
      out
        (Printf.sprintf "%d %d %d %d %d\n" (Hashtbl.find index n) (level st r)
           (Hashtbl.find index (node lo))
           (lo land 1)
           (Hashtbl.find index (node (high st r)))))
    nodes;
  List.iter
    (fun (r : Repr.t) ->
      out
        (Printf.sprintf "root %d %d\n"
           (Hashtbl.find index (node r.edge))
           (r.edge land 1)))
    roots

let write oc roots = write_gen (output_string oc) roots

let to_string roots =
  let b = Buffer.create 4096 in
  write_gen (Buffer.add_string b) roots;
  Buffer.contents b

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* All parse failures surface as [Parse_error]: a truncated file must
   not leak [End_of_file] and a malformed count must not leak
   [Failure _] -- callers (checkpoint recovery in particular) rely on
   one exception to detect a corrupt input. *)
let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "bad %s %S" what s

(* Read BDDs back, rebuilding through the manager's [mk] so the result
   is properly hash-consed (and shared with existing nodes).  [map]
   relocates levels (identity by default); it must be order-preserving
   or the read fails through [mk]'s canonicity assertion. *)
(* Core reader over a [next] line producer ([unit -> string], raising
   [Parse_error] on exhaustion). *)
let read_gen ?map man next =
  let map = match map with Some f -> f | None -> Fun.id in
  let next_line () = next () in
  let header = next_line () in
  let nodes, roots =
    match String.split_on_char ' ' header with
    | [ "bdd"; n; r ] -> (int_field "node count" n, int_field "root count" r)
    | _ -> fail "bad header %S" header
  in
  if nodes < 0 || roots < 0 then fail "bad header %S" header;
  let table = Hashtbl.create (nodes + 1) in
  Hashtbl.replace table 0 tru;
  for _ = 1 to nodes do
    let line = next_line () in
    match String.split_on_char ' ' line with
    | [ id; level; low; low_neg; high ] ->
      let edge key neg =
        match Hashtbl.find_opt table (int_field "node id" key) with
        | Some e -> if neg then Repr.neg e else e
        | None -> fail "node %s references unknown node %s" id key
      in
      let low = edge low (low_neg = "1") in
      let high = edge high false in
      let e = Man.mk man (map (int_field "level" level)) ~low ~high in
      Hashtbl.replace table (int_field "node id" id) e
    | _ -> fail "bad node line %S" line
  done;
  List.init roots (fun _ ->
      let line = next_line () in
      match String.split_on_char ' ' line with
      | [ "root"; id; neg ] -> (
        match Hashtbl.find_opt table (int_field "root id" id) with
        | Some e -> if neg = "1" then Repr.neg e else e
        | None -> fail "unknown root %s" id)
      | _ -> fail "bad root line %S" line)

let read ?map man ic =
  read_gen ?map man (fun () ->
      try input_line ic with End_of_file -> fail "truncated file")

(* In-memory counterpart of [read]: lines are carved out of the string
   without copying it up front, so large transfers stay one allocation
   per line. *)
let of_string ?map man s =
  let pos = ref 0 in
  let len = String.length s in
  let next () =
    if !pos >= len then fail "truncated string"
    else begin
      let nl = try String.index_from s !pos '\n' with Not_found -> len in
      let line = String.sub s !pos (nl - !pos) in
      pos := nl + 1;
      line
    end
  in
  read_gen ?map man next

let to_file path roots =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc roots)

let of_file ?map man path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ?map man ic)
