(** Counterexample extraction and validation. *)

val state_cube : Bdd.man -> int list -> bool array -> Bdd.t
(** Cube fixing the given levels to their values in the assignment. *)

val pick : Fsm.Trans.t -> Bdd.t -> bool array
(** A state from a set over current-state levels, padded to a full
    assignment. *)

val forward :
  Fsm.Trans.t ->
  mem:(bool array -> 'r -> bool) ->
  within:(Bdd.t -> 'r -> Bdd.t) ->
  rings:'r list ->
  bad:bool array ->
  Report.trace
(** Walk back through forward-traversal onion rings [R_0; ...; R_k]
    from a violating state of [R_k]; returns a path from an initial
    state to [bad].  [mem state r] tests membership in a ring and
    [within preds r] restricts a predecessor set to the ring's states
    (nonempty, for a ring the walk steps into). *)

val backward :
  Fsm.Trans.t -> gs:Ici.Clist.t list -> start:bool array -> Report.trace
(** Walk forward through backward-traversal iterates [G_0; ...; G_i]
    (as implicit conjunctions, [G_0] the property) from a start state
    outside [G_i]; returns a path ending in a state violating [G_0]. *)

val validate :
  Fsm.Trans.t -> init:Bdd.t -> good:Ici.Clist.t -> Report.trace -> bool
(** A certified-counterexample check: starts in [init], every step is a
    transition, ends outside [good]. *)
