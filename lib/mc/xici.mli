(** The paper's extended method ("XICI"): backward traversal over
    implicit conjunctions with the automatic evaluation-and-
    simplification policy (Figure 1) and the exact termination test of
    Section III.B.

    Checkpoint/resume: with [checkpoint_path] the fixpoint state
    (current implicit conjunction, G history, iteration count, policy)
    is snapshotted every [checkpoint_every] iterations (default 1) via
    {!Checkpoint}, at the top of the iteration -- so a run killed by a
    budget loses at most the iteration in flight.  With [resume_from]
    the traversal restarts from the snapshot instead of from G_0; [cfg]
    and [termination] then default to the checkpointed values. *)

type termination = [ `Exact_equal | `Exact_implication | `Pointwise ]

val run :
  ?limits:(Bdd.man -> Limits.t) ->
  ?cfg:Ici.Policy.config ->
  ?termination:termination ->
  ?var_choice:Ici.Tautology.var_choice ->
  ?tautology_stats:Ici.Tautology.stats ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume_from:Checkpoint.t ->
  Model.t ->
  Report.t

val run_full :
  ?limits:(Bdd.man -> Limits.t) ->
  ?cfg:Ici.Policy.config ->
  ?termination:termination ->
  ?var_choice:Ici.Tautology.var_choice ->
  ?tautology_stats:Ici.Tautology.stats ->
  ?checkpoint_path:string ->
  ?checkpoint_every:int ->
  ?resume_from:Checkpoint.t ->
  Model.t ->
  Report.t * Ici.Clist.t option
(** Like {!run}, additionally returning the converged implicit
    conjunction -- the automatically derived invariants -- when the
    property was proved by reaching a fixpoint. *)
