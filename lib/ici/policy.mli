(** The evaluation and simplification policy of Section III.A.

    [improve] transforms an implicitly conjoined list into an equivalent
    list of smaller overall size: cross-simplification with Restrict (or
    Constrain) followed by greedy evaluation of profitable pairwise
    conjunctions (Figure 1 of the paper). *)

type simplifier =
  | Restrict
  | Constrain
  | Multi_restrict
      (** simultaneous simplification by all other conjuncts at once
          (the Section-V future-work routine, via
          {!Bdd.multi_restrict}) *)
  | No_simplify

type evaluation =
  | Greedy  (** Figure 1: best-ratio pair until ratio > threshold *)
  | Optimal_cover  (** Theorem 2: exact min-cost pairwise cover *)
  | No_evaluation

type config = {
  grow_threshold : float;  (** the paper uses 1.5 *)
  simplifier : simplifier;
  evaluation : evaluation;
  pair_step_factor : int option;
      (** the paper's future-work size-bounded AND: give up on a
          pairwise conjunction after [factor * shared-size] recursion
          steps and treat the pair as unprofitable.  [None] builds
          every pair unconditionally (the paper's implementation). *)
}

val default : config
(** grow_threshold 1.5, Restrict, Greedy, pair budget 64x. *)

val simplify_pass : Bdd.man -> config -> Clist.t -> Clist.t
(** Cross-simplification only: each conjunct simplified by currently
    strictly smaller conjuncts, one individually-sound step at a time.
    Preserves the implied conjunction. *)

type state
(** The pair table P of Figure 1, held by the traversal loop so scored
    pairs survive across {!improve} calls.  Keyed by conjunct tags,
    with each pair's conjunction and the two sizes its ratio needs.
    Invalidated automatically when the manager's gc generation
    ({!Bdd.gc_events}) moves, because a collection may free a node and
    later reuse its tag for a different function; between collections
    no tag is reused, so stale keys cannot alias. *)

val create_state : unit -> state
(** A fresh, empty pair table.  One per traversal run; sharing across
    managers is safe only because the table self-invalidates, so don't. *)

val greedy_evaluate :
  Bdd.man ->
  ?state:state ->
  ?pair_step_factor:int ->
  grow_threshold:float ->
  Clist.t ->
  Clist.t
(** Figure 1.  Repeatedly replace the pair [xi, xj] minimising
    [size(xi /\ xj) / shared_size(xi, xj)] by its conjunction while the
    ratio is at most [grow_threshold].  Without [state] the pair table
    only lives for this one call. *)

val cover_evaluate : Bdd.man -> Clist.t -> Clist.t
(** Theorem-2 baseline: evaluate the exact minimum-cost pairwise cover
    (identity on lists longer than {!Matching.max_exact}). *)

val improve : Bdd.man -> ?state:state -> config -> Clist.t -> Clist.t
(** The full policy: simplify then evaluate.  Preserves the implied
    conjunction.  [state] persists the greedy pair table across calls. *)
