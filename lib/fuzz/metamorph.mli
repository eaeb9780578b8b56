(** Metamorphic properties: verdict-preserving spec transformations.

    Duplicating a good conjunct, permuting the good list and renaming
    variables all yield machines with provably the same verdict, and a
    mid-run checkpoint kill + resume must never change an XICI answer.
    {!check_spec} verifies all of them against the original spec's
    reference verdict. *)

type transform = Dup_good | Reverse_goods | Rotate_goods | Rename_vars

val all_transforms : transform list
val transform_name : transform -> string

val apply : transform -> Spec.t -> Spec.t

val rename_vars : Spec.t -> Spec.t
(** Reverse the state-bit and input-bit declaration orders (an
    isomorphic machine over a different variable order). *)

type disagreement = Oracle.disagreement = { check : string; detail : string }

val check_spec :
  ?limits:(Bdd.man -> Mc.Limits.t) -> Spec.t -> disagreement option
(** [None] when every transform preserves the verdict, checkpoint
    kill + resume reaches the uninterrupted answer, and running with
    telemetry enabled (registry + JSONL trace sink) neither changes the
    verdict nor emits a line that fails an [Obs.Json] round-trip. *)

val check_batch :
  ?limits:(Bdd.man -> Mc.Limits.t) ->
  Spec.t ->
  Expr.t list list ->
  disagreement option
(** Batch metamorphic properties over {!Mc.Batch}: per-property
    verdicts must survive permuting the property order, duplicating a
    property and splitting the batch into two independent batches (all
    compared against each property's explicit reference verdict) —
    the transforms that expose order-dependence in the invariant
    pool. *)
