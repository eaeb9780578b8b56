(** Cross-method differential oracles.

    Every method in {!Mc} answers the same reachability question, so a
    disagreement with the explicit-state reference of {!Spec} is a bug
    by construction.  {!check_spec} runs every method (Explicit,
    Forward, Backward, FD, IDI, ICI, XICI across policy configurations
    and termination tests, Induction, and the {!Mc.Job.run} ladder under an
    injected mid-run kill with checkpoint resume) and cross-checks the
    verdict, the concrete replayability of any counterexample trace,
    and the inductiveness of any derived invariant list. *)

type disagreement = { check : string; detail : string }

val to_string : disagreement -> string

val default_limits : Bdd.man -> Mc.Limits.t
(** 100 iterations / 4M created nodes: deterministic (no wall clock). *)

val replay : Mc.Model.t -> Mc.Report.trace -> (unit, string) result
(** Replay a counterexample concretely through [Fsm.Trans.step] and
    [legal_input]: it must start in an initial state, every step must be
    realisable by some legal input, and it must end in a bad state. *)

val xici_configs : (string * Ici.Policy.config) list
(** The policy configurations the differential check runs XICI under. *)

val temp_path : unit -> string
(** A fresh temp-file path that does not exist yet (checkpoint saves
    create it). *)

val cleanup : string -> unit
(** Remove the file if it exists. *)

val check_spec :
  ?limits:(Bdd.man -> Mc.Limits.t) ->
  ?cache_budget:int ->
  Spec.t ->
  disagreement option
(** [None] when every method agrees with the reference and leaves its
    manager passing {!Bdd.check_invariants}; otherwise the first
    disagreement found.  [cache_budget] shrinks each method
    manager's computed table (the tinycache target passes 256 to hammer
    eviction paths); the induction / derived-invariant / resilience
    side checks always run on default-sized managers. *)

val configs_per_spec : int
(** Number of method configurations one {!check_spec} exercises. *)
