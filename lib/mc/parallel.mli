(** Shared-nothing parallel verification on OCaml 5 domains.

    BDD managers are single-domain, so nothing here ever shares one:
    models are shipped between domains as immutable frozen strings
    (declaration replay + a {!Bdd.Serialize} block) and every worker
    rebuilds its own private copy.

    Observability: workers report into the (domain-safe)
    [Obs.Registry.default] under ["parallel.*"], and each portfolio
    config runs inside a ["parallel.config"] trace span tagged with the
    domain that ran it. *)

exception Corrupt of string
(** A frozen model failed to parse (freeze/thaw version skew or
    in-memory corruption). *)

(** {1 Model freeze / thaw} *)

type frozen = string
(** An immutable, domain-shareable snapshot of a {!Model.t} (strings
    are immutable, so any number of domains may thaw the same one; it
    can also be written to disk and thawed in another process). *)

val freeze : Model.t -> frozen

val thaw : ?cache_budget:int -> ?on_manager:(Bdd.man -> unit) -> frozen -> Model.t
(** Rebuild the model in a fresh manager (fresh space, fresh transition
    relation).  Levels, variable names, conjunct structure and
    fd-candidates are preserved exactly; [cache_budget] is forwarded to
    the new manager.  [on_manager] is called with the fresh manager
    {e before} any reconstruction, so supervised callers can install
    progress/fault hooks that fire during the rebuild itself (on a
    large model, deserialization plus the transition relation is long
    enough to read as a hang otherwise); a hook that raises aborts the
    thaw with that exception. *)

(** {1 Portfolio mode} *)

type config = {
  label : string;
  meth : Runner.meth;
  xici_cfg : Ici.Policy.config option;
  termination : Xici.termination option;
  var_choice : Ici.Tautology.var_choice option;
}
(** One portfolio entry: a method plus its XICI-only knobs. *)

val config :
  ?label:string ->
  ?xici_cfg:Ici.Policy.config ->
  ?termination:Xici.termination ->
  ?var_choice:Ici.Tautology.var_choice ->
  Runner.meth ->
  config
(** [label] defaults to the method name. *)

val default_portfolio : config list
(** XICI policy/termination variants mixed with the monolithic methods;
    ordered so the first few domains grab the usually-best configs. *)

type result = {
  winner : (config * Report.t) option;
      (** the first config to reach a sound verdict, with its report *)
  reports : (config * Report.t) list;
      (** every config that ran, in portfolio order; losers cancelled
          mid-run carry [Exceeded "cancelled by portfolio"], and a
          config whose worker died of an unexpected exception carries
          [Exceeded "worker crashed: ..."] (one crashing config never
          tears down the others) *)
  domains_used : int;
  wall_time_s : float;
}

val portfolio :
  ?domains:int ->
  ?configs:config list ->
  ?limits:(Bdd.man -> Limits.t) ->
  ?cache_budget:int ->
  ?should_cancel:(unit -> bool) ->
  ?on_progress:(live:int -> unit) ->
  ?iter_sink:(Obs.Iterlog.row -> unit) ->
  Model.t ->
  result
(** Run [configs] (default {!default_portfolio}) concurrently on
    [domains] worker domains (default 2), each on a private thawed copy
    of the model.  The first sound verdict wins; the rest are cancelled
    via each worker manager's fault hook.  Every config is sound, so
    the winning verdict equals what a sequential run of any deciding
    config would return.  [limits] builds per-worker budgets against
    the worker's own manager.

    The work happens entirely in child domains on private managers, so
    hooks the caller installed on its own manager never fire during a
    portfolio run.  Supervised callers re-thread their liveness
    machinery with the three optional callbacks, each invoked {e from
    the worker domains} (so they must be domain-safe and must not
    raise): [should_cancel] is polled on every kernel step and between
    configs — once it returns [true], running configs abort with
    [Exceeded "cancelled"] and no further config starts;
    [on_progress ~live] fires at the kernel progress-hook cadence with
    the reporting worker's live-node count (a heartbeat);
    [iter_sink] receives every per-iteration {!Obs.Iterlog} row the
    workers record. *)
