(* Uniform dispatch over the five verification methods compared in the
   paper's tables. *)

type meth = Forward | Backward | Fd | Ici | Xici | Idi | Explicit

let all = [ Forward; Backward; Fd; Ici; Xici; Idi; Explicit ]

(* The methods the paper's tables compare (IDI is this library's
   extension). *)
let paper_methods = [ Forward; Backward; Fd; Ici; Xici ]

let name = function
  | Forward -> "Fwd"
  | Backward -> "Bkwd"
  | Fd -> "FD"
  | Ici -> "ICI"
  | Xici -> "XICI"
  | Idi -> "IDI"
  | Explicit -> "Expl"

let of_name s =
  match String.lowercase_ascii s with
  | "fwd" | "forward" -> Some Forward
  | "bkwd" | "backward" -> Some Backward
  | "fd" -> Some Fd
  | "ici" -> Some Ici
  | "xici" -> Some Xici
  | "idi" -> Some Idi
  | "expl" | "explicit" -> Some Explicit
  | _ -> None

(* The checkpoint/resume options only apply to XICI (the only method
   with serializable fixpoint state); other methods ignore them, as
   they do the XICI-only [var_choice] knob. *)
let run ?limits ?xici_cfg ?termination ?var_choice
    ?checkpoint_path ?checkpoint_every ?resume_from meth model =
  match meth with
  | Forward -> Forward.run ?limits model
  | Backward -> Backward.run ?limits model
  | Fd -> Fd.run ?limits model
  | Ici -> Ici_method.run ?limits model
  | Xici ->
    Xici.run ?limits ?cfg:xici_cfg ?termination ?var_choice
      ?checkpoint_path ?checkpoint_every ?resume_from model
  | Idi -> Forward_idi.run ?limits ?cfg:xici_cfg model
  | Explicit -> Explicit.run ?limits model
