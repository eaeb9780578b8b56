(** Seeded schedules for the worker pool's rules ({!Srv.Sched}).

    A case is a pool shape plus a list of steps: submits, worker steps,
    clock advances that run the supervisor, live-count swings on busy
    workers and a drain.  Each worker draws a scripted outcome at
    dispatch: a verdict, an exceeded budget, a crash, slow beats before
    a verdict, a hang that honours its cancel, or a hang that ignores
    it and finishes late as a zombie.  The harness plays the driver's
    part with a simulated clock and integer jobs and starts no domain.
    After every step it checks what DESIGN.md promises: an accepted job
    resolves exactly once, only by its current attempt, and a retry is
    on the urgent lane; [outstanding] counts the unresolved jobs; with
    every worker idle the pressure is 0.  After the last step it drains:
    no more submits, the clock runs on until every job has resolved,
    and [outstanding] must be 0. *)

type case

val gen : case QCheck2.Gen.t
val print : case -> string

val check : case -> (unit, string) result
