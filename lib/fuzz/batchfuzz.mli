(** Differential fuzzing of {!Mc.Batch}.

    A case is a random {!Spec} machine plus 2–5 random properties (a
    mix of holding and violated ones arises naturally; a certainly-
    holding [T] property is mixed in explicitly so batches regularly
    pool a proved property's goods).  {!check_case} runs the batch
    under every method and XICI policy configuration — plus a
    two-domain variant — and requires every per-property verdict to
    equal the explicit-state reference and an independent sequential
    run, every counterexample to replay concretely against its own
    property, and the batch metamorphic properties
    ({!Metamorph.check_batch}) to hold. *)

type case = { spec : Spec.t; props : Expr.t list list }

val gen : case QCheck2.Gen.t
(** Integrated shrinking (the spec shrinks through {!Spec.gen}, the
    property list through the list/expression generators). *)

val print_case : case -> string

val check_case :
  ?limits:(Bdd.man -> Mc.Limits.t) -> case -> Oracle.disagreement option

val configs_per_case : int
(** Number of batch configurations one {!check_case} exercises. *)
