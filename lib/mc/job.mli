(** One way to run a verification job.

    Resource exhaustion is the expected failure mode of monolithic-BDD
    verification (the paper's tables are full of "Exceeded" rows), so a
    blown budget is an outcome to schedule around, not a crash.  Every
    driver -- [icv], the [icvd] pool, the bench tables and the fuzz
    oracle -- runs its work through this module:

    - {!attempt} runs one {!strategy} once on a model.  It is the only
      place where a budget exception escaping a method
      ([Limits.Exceeded] from a hook, [Bdd.Node_budget_exhausted] from
      a fault-injection hook) becomes an [Exceeded] report, and that
      report records what the attempt actually consumed.
    - {!run} is the escalate-then-fall-back ladder built on {!attempt}:
      each method in [fallback] is tried up to [retries] times, the
      node budget multiplied by [budget_escalation] after every failed
      attempt.  A [Proved] or
      [Violated] verdict ends the run; only [Exceeded] escalates.  With
      [checkpoint], XICI attempts snapshot their fixpoint state there
      and later attempts resume from it (a corrupt checkpoint degrades
      to a cold start). *)

type strategy =
  | Method of Runner.meth
  | Portfolio of { domains : int }
      (** race {!Parallel.default_portfolio} on [domains] worker
          domains; the first sound verdict wins *)
  | Batch of { meth : Runner.meth; props : Batch.property list; domains : int }
      (** verify each property separately in one pooled
          {!Batch.run} *)

type result = {
  report : Report.t;
      (** the verdict: the method's report, the portfolio winner's (else
          its first config's), or, for a batch, the first violated
          item's, else the first exceeded, else the first proved --
          relabelled ["batch[n]:M"] *)
  resumed_at : int option;
      (** checkpoint iteration the attempt resumed from, if any *)
  batch : Batch.result option;  (** per-property detail of a [Batch] *)
  portfolio : Parallel.result option;
      (** per-config detail of a [Portfolio] *)
}

val attempt :
  ?limits:(Bdd.man -> Limits.t) ->
  ?xici_cfg:Ici.Policy.config ->
  ?termination:Xici.termination ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  ?should_cancel:(unit -> bool) ->
  ?on_progress:(live:int -> unit) ->
  ?iter_sink:(Obs.Iterlog.row -> unit) ->
  strategy ->
  Model.t ->
  result
(** Run [strategy] once on [model].  [checkpoint]/[checkpoint_every]
    and [resume] apply to [Method Xici] only: XICI snapshots its
    fixpoint to [checkpoint], and resumes from the checkpoint file
    [resume] when it loads ({!Checkpoint.load_opt}; unusable means a
    cold start).  [should_cancel], [on_progress] and [iter_sink] are
    passed to {!Parallel.portfolio}, whose work runs on private
    managers the caller's hooks never see. *)

type step = {
  meth : Runner.meth;
  index : int;  (** 1-based attempt number across the whole ladder *)
  max_created_nodes : int option;  (** node budget of this attempt *)
  resumed_at : int option;
  report : Report.t;
}

type outcome = {
  final : Report.t;  (** the deciding step's report, or the last failure *)
  steps : step list;  (** chronological *)
  total_time_s : float;  (** cumulative wall time across steps *)
  total_nodes_created : int;
}

val default_fallback : Runner.meth list
(** [XICI -> ICI -> FD]. *)

val run :
  ?retries:int ->
  ?budget_escalation:float ->
  ?max_created_nodes:int ->
  ?max_seconds:float ->
  ?max_live_nodes:int ->
  ?max_iterations:int ->
  ?fallback:Runner.meth list ->
  ?checkpoint:string ->
  ?xici_cfg:Ici.Policy.config ->
  Model.t ->
  outcome
(** Defaults: [retries = 3], [budget_escalation = 2.0], no initial node
    budget (methods then get one attempt each unless a checkpoint makes
    an XICI retry meaningful), [fallback = default_fallback].
    [max_seconds]/[max_live_nodes]/[max_iterations] apply per attempt,
    unescalated.  Raises [Invalid_argument] on an empty fallback list,
    [retries < 1] or [budget_escalation < 1.0]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One {!Report.pp_row} line per step, labelled ["XICI#2/100k"]
    (method, attempt number, budget), then a cumulative summary row. *)
