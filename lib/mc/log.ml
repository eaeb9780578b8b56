(* Shared log source for the verification methods.  The per-iteration
   debug lines are written by Fixpoint, at each iteration boundary. *)

let src = Logs.Src.create "mc" ~doc:"icbdd verification methods"

module L = (val Logs.src_log src : Logs.LOG)

let attempt ~label ~detail =
  L.info (fun m -> m "attempt %s: %s" label detail)

let degraded ~what ~detail =
  L.warn (fun m -> m "%s degraded: %s" what detail)
