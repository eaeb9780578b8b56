(** One method run: the frame every verification method's fixpoint
    loop runs in.  It starts the budgets and installs their guard,
    turns a blown budget into an Exceeded report, keeps the iteration
    counter and the largest set seen, writes the per-iteration record
    and builds the run's {!Report.t}. *)

type t

val run :
  ?limits:(Bdd.man -> Limits.t) ->
  ?iterations:int ->
  meth:string ->
  Model.t ->
  (t -> Report.status) ->
  Report.t
(** [run ~meth model body] runs [body] under the budgets' progress
    guard and reports its status, or [Exceeded] when a budget blows.
    [iterations] starts the counter elsewhere than 0 (a resumed run). *)

val start : ?limits:(Bdd.man -> Limits.t) -> meth:string -> Model.t -> t
(** A frame without a body, for drivers that report what a run
    consumed when it failed outside any method. *)

val report : t -> Report.status -> Report.t
(** The report of the run so far.  Every {!Report.t} a run produces is
    built here. *)

val iteration : t -> Bdd.t list -> unit
(** The iteration boundary, called at the top of each iteration with
    the current set (G_i or R_i; its conjuncts or disjuncts, a
    singleton for monolithic methods).  Checks every budget including
    the iteration limit, records the set if it is the largest so far,
    and writes the {!Obs.Iterlog} row and the ["mc.iterations"] count.
    Raises {!Limits.Exceeded}. *)

val advance : t -> unit
(** Count one more completed iteration. *)

val iterations : t -> int

val check : t -> unit
(** The budget check alone, for work between boundaries.  Raises
    {!Limits.Exceeded}. *)

val search_row : t -> states:int -> unit
(** The single row of a search that keeps no sets: the explicit search
    puts the states it visited in the conjuncts column and 0 nodes. *)

val violation :
  t -> Ici.Clist.t -> history:Ici.Clist.t list -> Report.status option
(** The backward family's check: a start state outside [g] is a
    violation, with the trace walked through [history] (G_i ... G_0,
    newest first, [g] included). *)
