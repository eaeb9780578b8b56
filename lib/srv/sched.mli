(** The worker pool's rules, with no clock, domain or lock of their own.

    {!Pool} calls every function here under its event mutex and passes
    in the clock, a worker's last heartbeat and the workers' total live
    nodes, so a test or the [srv] fuzz target can drive a schedule step
    by step with a simulated clock and integer jobs. *)

type ticket = private { mutable attempt : int; mutable inflight : bool }
(** One job's resolution state: an execution may resolve the job only
    while it is in flight on the attempt the execution was stamped
    with. *)

val ticket : unit -> ticket
(** Attempt 1, in flight. *)

type 'j slot = private {
  sid : int;
  mutable busy : bool;
  mutable current : ('j * int) option;  (** job and the attempt it runs *)
  mutable cancel : bool;
  mutable abandoned : bool;
  mutable dead : string option;  (** the crash cause *)
}

val crashed : 'j slot -> string -> unit

type 'j t

val create :
  hang_timeout_s:float ->
  max_attempts:int ->
  max_total_live:int option ->
  portfolio_domains:int ->
  ticket:('j -> ticket) ->
  requeue:('j -> string -> unit) ->
  'j t
(** [max_attempts] counts the first one; [requeue j reason] puts a job
    back on the urgent lane. *)

val slot : 'j t -> 'j slot
(** A fresh idle slot with the next worker id. *)

val admit : 'j t -> unit
val outstanding : 'j t -> int
(** Admitted jobs not yet resolved. *)

val dispatch : 'j t -> 'j slot -> 'j -> int
(** Mark the slot busy on the job and return the attempt it runs. *)

type outcome =
  | Resolved  (** this execution's verdict is the job's *)
  | Retry of string  (** requeued, with this reason, as the next attempt *)
  | Failed of string  (** out of attempts: the report's reason *)
  | Stale  (** a superseded execution: drop what it says *)

val finish : 'j t -> 'j -> attempt:int -> outcome

val settle : 'j t -> 'j slot -> 'j -> attempt:int -> decided:bool -> outcome
(** A worker's execution returned: an undecided report on a cancelled
    slot retries the job; anything else finishes it. *)

val idle : 'j t -> 'j slot -> live:int -> int list -> int
(** The slot's execution is over.  [live] counts the nodes of every
    other slot, and the list those of each warm manager the slot
    retains, most recent first.  Returns how many of them, from the
    front, it may keep: the most that leave the pool at pressure 0. *)

type decision = Leave | Cancel | Reap of string | Abandon

val supervise : 'j t -> now:float -> beat:float -> 'j slot -> decision
(** [beat] is the slot's last heartbeat.  Cancel a busy slot silent for
    more than [hang_timeout_s]; abandon one silent past twice that with
    its cancel set; reap a dead one.
    After {!Reap} or {!Abandon} the driver requeues the job with
    {!requeue_current} (after {!Abandon}, before it releases the lock:
    the zombie's late return is then stale) and replaces the slot. *)

val requeue_current :
  'j t -> 'j slot -> reason:string -> ('j * outcome) option

val pressure : 'j t -> live:int -> int
(** 0–3: [live] nodes over all workers at half, three quarters and all
    of [max_total_live]; always 0 without a cap.  Level 1 drops warm
    managers; level 3 refuses work. *)

val thaw_cache_budget : pressure:int -> int option
val live_budget : 'j t -> pressure:int -> int option -> int option
val portfolio_width : 'j t -> pressure:int -> int
