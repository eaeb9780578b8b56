(** Multi-property ("batch") verification with a shared invariant pool.

    A batch verifies properties [P1..Pn] against one model in a single
    orchestrated run, instead of [n] independent runs.  Two sharing
    channels make the batch cheaper than its sequential unrolling:

    - {b Shared image computations.}  Every property is checked on the
      same manager, space and transition relation, so the computed-table
      entries built by one property's traversal (back images in
      particular) are hits for the next.
    - {b Proven invariants.}  Whatever a property run establishes
      unconditionally — its own good conjuncts once proved, and the
      converged XICI conjunction ({!Xici.run_full}'s derived invariants,
      which are inductive and implied by init regardless of what
      property seeded the traversal) — enters a per-model pool that
      later runs receive as {!Model.t.assisting} conjuncts.

    {b Soundness.}  Pool members are true invariants of the model, so
    adding them as assisting conjuncts changes no verdict, and a
    violation trace only visits reachable states, which satisfy every
    pool member; each verdict is therefore the one an independent run
    of that property would return, and its trace replays against the
    property as given.

    Counter [batch.invariants_shared] in {!Obs.Registry.default}: pool
    conjuncts injected as assisting, summed over runs. *)

type property = {
  pname : string;
  goods : Bdd.t list;  (** implicit conjunction, over the model's manager *)
}

val of_goods : ?names:string list -> Model.t -> property list
(** One property per conjunct of [model.good], named ["p0".."p{n-1}"]
    unless [names] supplies better ones (missing tail entries fall back
    to the positional names). *)

type item = {
  prop : property;
  report : Report.t;  (** violation traces are valid for [prop.goods] *)
}

type stats = { invariants_shared : int }

type result = {
  items : item list;  (** in the order the properties were given *)
  stats : stats;
  domains_used : int;
  wall_time_s : float;
}

val run :
  ?limits:(Bdd.man -> Limits.t) ->
  ?meth:Runner.meth ->
  ?xici_cfg:Ici.Policy.config ->
  ?termination:Xici.termination ->
  ?var_choice:Ici.Tautology.var_choice ->
  ?speculate:bool ->
  ?domains:int ->
  Model.t ->
  property list ->
  result
(** Verify every property against [model] (whose own [good] list is
    ignored in favour of the given properties; its [assisting] conjuncts
    apply to every run), one sweep in the given order.  [meth] defaults
    to [Xici] — the only method that harvests derived invariants into
    the pool; any method still gets assisting injection.

    [speculate] exists only so that the benchmark suite's batch job
    ([perfsuite/jobs.ml]), which passes [~speculate:false], keeps
    compiling; [false] is the only accepted value and [true] raises
    [Invalid_argument].  No other caller passes it.

    [domains > 1] splits the properties round-robin across that many
    worker domains, each verifying its share on a private thawed copy of
    the model ({!Parallel.freeze}); sharing is then intra-domain only,
    and reported traces are valid for the original manager because thaw
    preserves levels exactly. *)
