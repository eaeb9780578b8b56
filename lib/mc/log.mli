(** Log source for the verification methods ("mc"); {!Fixpoint} writes
    its per-iteration debug lines here. *)

val src : Logs.src

val attempt : label:string -> detail:string -> unit
(** Info-level report of one {!Job.run} attempt. *)

val degraded : what:string -> detail:string -> unit
(** Warning-level report that a recovery path degraded gracefully
    (e.g. a corrupt checkpoint was ignored and the run started cold). *)
