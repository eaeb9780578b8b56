(** Log source for the verification methods ("mc"). *)

val src : Logs.src

val iteration :
  meth:string ->
  iteration:int ->
  conjuncts:int ->
  nodes:int ->
  elapsed_s:float ->
  live_nodes:int ->
  unit
(** Debug-level per-iteration report.  [elapsed_s] is monotonic time
    since the method started, [live_nodes] the manager's live-node count
    at the top of the iteration.  Also appends an [Obs.Iterlog] row and
    bumps the ["mc.iterations"] registry counter, so telemetry consumers
    see the same record. *)

val attempt : label:string -> detail:string -> unit
(** Info-level report of one {!Job.run} attempt. *)

val degraded : what:string -> detail:string -> unit
(** Warning-level report that a recovery path degraded gracefully
    (e.g. a corrupt checkpoint was ignored and the run started cold). *)
