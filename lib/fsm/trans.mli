(** Partitioned transition relations and image operators.

    A machine is specified by one next-state function per state bit
    (over current-state and input levels) plus an optional input
    constraint.  The monolithic transition relation is never built:
    [image] and [pre_image] interleave conjunction with early
    existential quantification; [back_image] is the universal image of
    the paper's Definition 1, computed as [not (pre_image (not z))]. *)

type t

val make :
  ?input_constraint:Bdd.t ->
  Space.t ->
  assigns:(Space.bit * Bdd.t) list ->
  t
(** Build a transition relation.  Every declared state bit must receive
    exactly one next-state function; raises [Invalid_argument]
    otherwise.  [input_constraint] restricts the legal inputs per state
    (default: true). *)

val space : t -> Space.t
val man : t -> Bdd.man

val assigns : t -> (Space.bit * Bdd.t) list
(** The per-bit next-state functions the relation was built from, in
    the order they were given to {!make} (used to reconstruct the
    machine in another manager). *)

val image : ?extra:Bdd.t list -> t -> Bdd.t -> Bdd.t
(** States reachable in one transition from [z].  [extra] conjoins
    further constraints on the source states into the quantification
    schedule without materialising the conjunction (used by the
    functional-dependency method). *)

type image_path = [ `Compose | `Relational ]
(** The two ways to compute a backward image: substitute the next-state
    functions into the target ([`Compose]) or run the
    early-quantification relational product ([`Relational]). *)

type image_via = [ `Auto | image_path ]
(** Neither path dominates, so the default [`Auto] races them under
    node budgets: the path that won this relation's last [`Auto] call
    goes first, the other gets one attempt under twice its budget, and
    if both are abandoned, composition gets what the relational product
    is projected to cost before the relational product finishes.  A
    {!Bdd.gc} reclaims each abandoned attempt before the next starts.
    Every value a caller holds as a handle survives that collection; a
    table keyed by {!Bdd.tag}s must drop itself when {!Bdd.gc_events}
    moves.  The registry counters [fsm.image.compose_wins],
    [fsm.image.relational_wins] and [fsm.image.reclaimed_nodes] count
    the outcomes.  The ablation benchmark compares all three. *)

val pre_image : ?via:image_via -> t -> Bdd.t -> Bdd.t
(** States with at least one successor in [z]. *)

val race_leader : t -> image_path
(** The path the next [`Auto] call on this relation tries first: the
    winner of the last one ([`Compose] before any). *)

val reset_race : t -> unit
(** Forget the last [`Auto] winner: the next call starts with
    composition, as on a fresh relation.  Every job attempt starts with
    this, so its node counts do not depend on the runs before it on the
    same relation. *)

val back_image : ?via:image_via -> t -> Bdd.t -> Bdd.t
(** States all of whose successors are in [z]. *)

val is_total : t -> bool
(** Whether every state admits a legal input (required for the
    [back_image]/[pre_image] duality to be meaningful). *)

val successors_of_state : t -> bool array -> Bdd.t
(** Image of a single concrete state (assignment indexed by level);
    used when extracting counterexample traces. *)

val input_constraint : t -> Bdd.t

val legal_input : t -> bool array -> bool
(** Does the assignment (current-state + input levels) satisfy the
    input constraint? *)

val step : t -> bool array -> bool array
(** Concrete simulation step: evaluate every next-state function under
    the given current-state + input assignment and return the successor
    state (input levels cleared).  The assignment must be legal. *)
