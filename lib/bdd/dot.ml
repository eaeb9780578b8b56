(* Graphviz export, mainly for debugging small examples and for the
   documentation.  Complemented edges are drawn dotted. *)

open Repr

let to_channel man oc fs =
  let st = man.Man.store in
  let pr fmt = Printf.fprintf oc fmt in
  pr "digraph bdd {\n  rankdir = TB;\n";
  pr "  t [shape=box,label=\"1\"];\n";
  let seen = Hashtbl.create 64 in
  let target e = if is_const e then "t" else Printf.sprintf "n%d" (node e) in
  let rec visit e =
    let n = node e in
    if (not (Hashtbl.mem seen n)) && not (is_const e) then begin
      Hashtbl.add seen n ();
      let r = e land lnot 1 in
      let lo = low st r and hi = high st r in
      pr "  n%d [label=\"%s\"];\n" n (Man.var_name man (level st r));
      pr "  n%d -> %s [style=%s];\n" n (target lo)
        (if lo land 1 = 1 then "dotted" else "dashed");
      pr "  n%d -> %s;\n" n (target hi);
      visit lo;
      visit hi
    end
  in
  List.iteri
    (fun i f ->
      pr "  root%d [shape=plaintext,label=\"f%d\"];\n" i i;
      pr "  root%d -> %s [style=%s];\n" i (target f)
        (if f land 1 = 1 then "dotted" else "solid");
      visit f)
    fs;
  pr "}\n"

let to_file man path fs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      to_channel man oc fs)
