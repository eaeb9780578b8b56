(** The deterministic fuzz driver.

    Work happens in batches keyed by [(target, seed, count)]: the seed
    initialises a private [Random.State.t], so a batch always generates
    the same cases and every failure is replayable from its corpus line.
    Counterexamples are shrunk by QCheck2's integrated shrinking. *)

type target = Diff | Metamorph | Taut | Bddops | Tinycache | Batchfuzz | Srv

val all_targets : target list
val target_name : target -> string
val target_of_string : string -> target option

type failure = { entry : Corpus.entry; counterexamples : string list }

val pp_failure : failure -> string
(** First line is the replayable corpus line, then the shrunk
    counterexamples with their disagreements. *)

val run_batch : target -> seed:int -> count:int -> (unit, failure) result

val run_entry : Corpus.entry -> (unit, failure) result

val run_corpus : ?log:(string -> unit) -> Corpus.entry list -> failure list

val derive_seed : int -> int -> int
(** [derive_seed root i] is batch [i]'s seed under root seed [root]. *)

type summary = { batches : int; cases : int; failures : failure list }

val run_timed :
  ?targets:target list ->
  ?log:(string -> unit) ->
  minutes:float ->
  seed:int ->
  batch:int ->
  unit ->
  summary
(** Round-robin over [targets] until the wall-clock budget expires
    (monotonic clock; at least the in-flight batch completes). *)
