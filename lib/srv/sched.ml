(* The pool's rules.  Every function runs under the driver's event
   mutex; the driver passes in the clock and the lock-free readings
   (heartbeats, live counts) that the workers' hooks update, and keeps
   the only copy of them.

   Exactly-once resolution per execution: every dispatch is stamped
   with the attempt number it runs, and both resolution paths
   ([finish] and [requeue_or_fail]) require [inflight] AND
   [attempt = attempt-at-dispatch].  The inflight flag alone is not
   enough: a requeue resets it to true for the retry, so a zombie
   worker waking up after its job was requeued would otherwise resolve
   the retry's execution (double Finished with [max_attempts = 2], or
   a double-running job with more).  The attempt stamp makes a stale
   execution's finish/requeue a no-op; it is the only guard a zombie's
   late return meets, so the driver requeues an abandoned slot's job in
   the locked section that decided the abandonment. *)

type ticket = { mutable attempt : int; mutable inflight : bool }

let ticket () = { attempt = 1; inflight = true }

type 'j slot = {
  sid : int;
  mutable busy : bool;
  mutable current : ('j * int) option;
      (* job plus the attempt number this dispatch is running, so the
         supervisor's requeue carries the same stamp the worker got *)
  mutable cancel : bool;
  mutable abandoned : bool;
  mutable dead : string option;
}

let crashed s why = s.dead <- Some why

type 'j t = {
  hang_timeout_s : float;
  max_attempts : int;
  max_total_live : int option;
  portfolio_domains : int;
  ticket : 'j -> ticket;
  requeue : 'j -> string -> unit;
  mutable next_sid : int;
  mutable outstanding : int;
      (* admitted but not yet resolved; the drain-completion signal.
         Counted rather than derived from queue and busy flags because
         a job is neither queued nor marked busy for an instant between
         pop and dispatch. *)
}

let create ~hang_timeout_s ~max_attempts ~max_total_live ~portfolio_domains
    ~ticket ~requeue =
  { hang_timeout_s; max_attempts; max_total_live; portfolio_domains; ticket;
    requeue; next_sid = 0; outstanding = 0 }

let slot t =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  { sid; busy = false; current = None; cancel = false; abandoned = false;
    dead = None }

let admit t = t.outstanding <- t.outstanding + 1
let outstanding t = t.outstanding

let dispatch t s j =
  let a = (t.ticket j).attempt in
  s.current <- Some (j, a);
  s.cancel <- false;
  s.busy <- true;
  a

(* --- exactly-once job resolution ------------------------------------ *)

type outcome = Resolved | Retry of string | Failed of string | Stale

let mine t j ~attempt =
  let tk = t.ticket j in
  tk.inflight && tk.attempt = attempt

let close t tk =
  tk.inflight <- false;
  t.outstanding <- t.outstanding - 1

let finish t j ~attempt =
  if mine t j ~attempt then (close t (t.ticket j); Resolved) else Stale

let requeue_or_fail t j ~attempt ~reason =
  if not (mine t j ~attempt) then Stale
  else
    let tk = t.ticket j in
    if tk.attempt < t.max_attempts then begin
      tk.attempt <- tk.attempt + 1;
      t.requeue j reason;
      Retry reason
    end
    else begin
      close t tk;
      Failed (Printf.sprintf "%s (after %d attempts)" reason tk.attempt)
    end

(* The supervisor declared the slot hung and the cancel landed: an
   execution aborted short of a verdict retries if allowed.  A cancel
   that lost the race to a real Proved/Violated verdict delivers it --
   a decided report is sound however slowly it arrived. *)
let settle t s j ~attempt ~decided =
  if s.cancel && not decided then
    requeue_or_fail t j ~attempt ~reason:"hung (cancelled mid-run)"
  else finish t j ~attempt

(* --- memory-pressure ladder ----------------------------------------- *)

let pressure t ~live:l =
  match t.max_total_live with
  | None -> 0
  | Some cap ->
    if l >= cap then 3
    else if l >= cap * 3 / 4 then 2
    else if l >= cap / 2 then 1
    else 0

(* The rule a dispatch applies, applied to each warm manager the slot
   retains, most recent first: one that would lift the pool to pressure
   >= 1 is dropped, and so is every older one.  Every idle retention
   thus passed a check that included all other published counts, so
   idle retained state alone stays under half the cap and cannot hold
   the pool at a refusing level. *)
let idle t s ~live retained =
  s.busy <- false;
  s.current <- None;
  let rec keep n live = function
    | l :: rest when pressure t ~live:(live + l) < 1 -> keep (n + 1) (live + l) rest
    | _ -> n
  in
  keep 0 live retained

(* Degradation before refusal: level 1 drops retained models and
   shrinks the thaw-time cache budget, level 2 additionally clamps
   portfolio width to one domain and halves per-job live budgets, level
   3 makes the daemon refuse new admissions entirely. *)
let thaw_cache_budget ~pressure:p =
  if p >= 2 then Some 1024 else if p >= 1 then Some 4096 else None

let live_budget t ~pressure:p requested =
  match (requested, p >= 2) with
  | Some n, true -> Some (max 1 (n / 2))
  | Some n, false -> Some n
  | None, true -> t.max_total_live
  | None, false -> None

let portfolio_width t ~pressure:p =
  if p >= 2 then 1 else t.portfolio_domains

(* --- supervision ----------------------------------------------------- *)

type decision = Leave | Cancel | Reap of string | Abandon

(* A worker cannot be killed, so a silent one is first cancelled (its
   fault hook turns the flag into [Limits.Exceeded] at the next kernel
   step); one that stays silent past twice the timeout is wedged
   outside kernel code and is abandoned. *)
let supervise t ~now ~beat s =
  match s.dead with
  | Some why -> Reap why
  | None when s.busy && not s.abandoned ->
    let silent = now -. beat in
    if silent > 2.0 *. t.hang_timeout_s && s.cancel then begin
      s.abandoned <- true;
      Abandon
    end
    else if silent > t.hang_timeout_s && not s.cancel then begin
      s.cancel <- true;
      Cancel
    end
    else Leave
  | None -> Leave

let requeue_current t s ~reason =
  Option.map
    (fun (j, attempt) -> (j, requeue_or_fail t j ~attempt ~reason))
    s.current
