(** The exact termination test of Section III.B.

    Decides tautology of an implicit disjunction (and, through it,
    implication and equality of implicit conjunctions) without building
    the disjunction: constant and complement filtering, Theorem-3
    Restrict-based pairwise filtering, then recursive Shannon
    expansion. *)

type var_choice =
  | First_top  (** top variable of the first BDD — the paper's choice *)
  | Lowest_level  (** globally top-most variable in the list *)
  | Most_common  (** most frequent root variable *)

type stats = {
  mutable expansions : int;  (** Shannon expansions *)
  mutable simplifications : int;  (** Theorem-3 Restrict calls *)
  mutable max_depth : int;  (** deepest Shannon recursion *)
  mutable memo_hits : int;
  mutable checks : int;  (** top-level {!check} calls *)
  mutable constant_hits : int;  (** TRUE-member short circuits (step 1) *)
  mutable complement_hits : int;  (** complement-pair detections (step 2) *)
  mutable duplicate_hits : int;  (** duplicates dropped (step 2) *)
  mutable pairwise_tautologies : int;
      (** step-3 Restrict reduced a member to TRUE *)
  mutable fuel_exhausted : int;
      (** [Out_of_fuel] raises; callers typically retry with more fuel *)
}
(** Per-filter cost and hit counters.  Every update is mirrored into
    process-wide ["taut.*"] metrics in [Obs.Registry.default], so the
    breakdown is visible to [icv --stats] and bench snapshots without
    threading a record. *)

val fresh_stats : unit -> stats
(** A zeroed record ({!check} allocates its own when none is passed). *)

exception Out_of_fuel

type memo_table
(** A caller-held memo of subproblem verdicts, keyed by canonical tag
    lists.  Hold one across {!check} calls — in particular across an
    [Out_of_fuel] escape — and the retry resumes from the verdicts
    already settled instead of redoing every expansion.  Only completed
    subproblems are ever stored, so reuse across fuel budgets (and
    across [var_choice]/[simplify] settings: verdicts are semantic) is
    sound.  Valid for a single manager only.  A {!Bdd.gc} may give a
    freed node's tag to a different function, so {!check} drops the
    entries whenever the manager's {!Bdd.gc_events} has moved since the
    table was last used. *)

val create_memo : unit -> memo_table
(** A fresh, empty memo table. *)

val check :
  ?var_choice:var_choice ->
  ?simplify:bool ->
  ?memo:bool ->
  ?fuel:int ->
  ?memo_table:memo_table ->
  ?stats:stats ->
  Bdd.man ->
  Bdd.t list ->
  bool
(** Is [d1 \/ ... \/ dn] a tautology?  The test is exact; worst-case
    exponential.  [fuel] bounds the number of Shannon expansions
    (raising [Out_of_fuel]); [simplify] toggles the Theorem-3 step
    (default true); [memo] caches subproblem verdicts by canonical tag
    lists (default true — an improvement over the paper, collapsing
    symmetric worst cases to polynomial).  [memo_table] makes that
    cache caller-held so it persists across calls and fuel retries;
    without it the table lives only for this one call. *)

val implies :
  ?var_choice:var_choice ->
  ?simplify:bool ->
  ?memo:bool ->
  ?fuel:int ->
  ?memo_table:memo_table ->
  ?stats:stats ->
  Bdd.man ->
  Clist.t ->
  Clist.t ->
  bool
(** Implication between implicit conjunctions. *)

val equal :
  ?var_choice:var_choice ->
  ?simplify:bool ->
  ?memo:bool ->
  ?fuel:int ->
  ?memo_table:memo_table ->
  ?stats:stats ->
  Bdd.man ->
  Clist.t ->
  Clist.t ->
  bool
(** Exact equality of two implicit conjunctions (mutual implication):
    the paper's termination test. *)
