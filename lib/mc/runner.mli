(** Uniform dispatch over the five methods of the paper's tables. *)

type meth = Forward | Backward | Fd | Ici | Xici | Idi | Explicit

val all : meth list

val paper_methods : meth list
(** The five methods of the paper's tables ([Idi] and [Explicit] are
    extensions: the De Morgan dual and the Murphi-style hash-table
    baseline of the paper's introduction). *)

val name : meth -> string
val of_name : string -> meth option

val run :
  ?limits:(Bdd.man -> Limits.t) ->
  ?xici_cfg:Ici.Policy.config ->
  ?termination:Xici.termination ->
  ?var_choice:Ici.Tautology.var_choice ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume_from:Checkpoint.t ->
  meth ->
  Model.t ->
  Report.t
(** The checkpoint/resume options apply to [Xici] only (the only method
    with serializable fixpoint state); other methods ignore them, as
    they do the XICI-only [var_choice] knob. *)
