(* The [srv] target: random schedules through Srv.Sched, with this
   harness as the driver.  The clock is simulated (the hang timeout is
   one unit), jobs are integers, and each worker is a script drawn at
   dispatch.  Nothing here starts a domain or reads a real clock. *)

module S = Srv.Sched

type op =
  | Submit
  | Work of int * int  (* worker (slots, then zombies), choice *)
  | Wait of int  (* quarter hang timeouts to advance; then supervise *)
  | Swing of int * int  (* a busy slot's live count *)
  | Drain

type case = {
  workers : int;
  max_attempts : int;
  cap : int option;
  ops : op list;
}

type behaviour =
  | Verdict
  | Exceed
  | Crash
  | Slow  (* beats [left] times, then a verdict *)
  | Hang of bool  (* silent until cancelled, then decided or not *)
  | Zombie  (* silent, ignores its cancel, finishes once abandoned *)

let behaviour c =
  match c mod 8 with
  | 0 | 1 -> Verdict
  | 2 -> Exceed
  | 3 -> Crash
  | 4 -> Slow
  | 5 -> Hang true
  | 6 -> Hang false
  | _ -> Zombie

type task = { job : int; attempt : int; does : behaviour; mutable left : int }

type worker = {
  st : int S.slot;
  mutable task : task option;
  mutable beat : float;
  mutable live : int;  (* the running job's nodes, or the retained ones *)
  mutable dead : bool;
}

type sim = {
  case : case;
  sched : int S.t;
  urgent : int Queue.t;
  normal : int Queue.t;
  mutable slots : worker array;
  mutable zombies : worker list;
  mutable now : float;
  mutable accepted : int;  (* jobs 0 .. accepted-1 *)
  attempt : (int, int) Hashtbl.t;  (* the harness's own count per job *)
  resolved : (int, unit) Hashtbl.t;
  mutable draining : bool;
}

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

let fresh sim =
  { st = S.slot sim.sched; task = None; beat = sim.now; live = 0; dead = false }

let create case =
  let urgent = Queue.create () in
  let tickets = Hashtbl.create 16 in
  let sched =
    S.create ~hang_timeout_s:1.0 ~max_attempts:case.max_attempts
      ~max_total_live:case.cap ~portfolio_domains:2
      ~ticket:(fun j ->
        match Hashtbl.find_opt tickets j with
        | Some tk -> tk
        | None ->
          let tk = S.ticket () in
          Hashtbl.add tickets j tk;
          tk)
      ~requeue:(fun j _ -> Queue.push j urgent)
  in
  {
    case;
    sched;
    urgent;
    normal = Queue.create ();
    slots = [||];
    zombies = [];
    now = 0.0;
    accepted = 0;
    attempt = Hashtbl.create 16;
    resolved = Hashtbl.create 16;
    draining = false;
  }

let live sim = Array.fold_left (fun acc w -> acc + w.live) 0 sim.slots

(* The promises about one resolution step by the execution [task]. *)
let check_outcome sim task outcome =
  let cur = Hashtbl.find sim.attempt task.job in
  let current = task.attempt = cur && not (Hashtbl.mem sim.resolved task.job) in
  let resolve () =
    if Hashtbl.mem sim.resolved task.job then
      broken "job %d resolved twice" task.job;
    Hashtbl.add sim.resolved task.job ()
  in
  match outcome with
  | S.Stale ->
    if current then
      broken "job %d: its current attempt %d was dropped as stale" task.job
        cur
  | _ when not current ->
    broken "job %d: stale attempt %d acted on it (current %d%s)" task.job
      task.attempt cur
      (if Hashtbl.mem sim.resolved task.job then ", resolved" else "")
  | S.Resolved -> resolve ()
  | S.Failed why ->
    let suffix = Printf.sprintf "(after %d attempts)" sim.case.max_attempts in
    if cur <> sim.case.max_attempts || not (String.ends_with ~suffix why)
    then broken "job %d failed at attempt %d: %S" task.job cur why;
    resolve ()
  | S.Retry _ ->
    if cur >= sim.case.max_attempts then
      broken "job %d retried past %d attempts" task.job cur;
    Hashtbl.replace sim.attempt task.job (cur + 1);
    if not (Queue.fold (fun ok j -> ok || j = task.job) false sim.urgent) then
      broken "job %d retried but not on the urgent lane" task.job

(* The live counts of a worker's warm managers, most recent first. *)
let retained sim choice =
  let bound = match sim.case.cap with Some cap -> cap + 1 | None -> 1000 in
  List.init (1 + (choice mod 3)) (fun k -> (choice + (31 * k)) * 7919 mod bound)

(* The execution returns: resolve it, then the worker goes idle with
   the count of the warm managers it keeps in place of the job's last
   one.  It keeps the most recent ones that leave the pool at pressure
   0, and no fewer. *)
let complete sim w task ~decided ~choice =
  check_outcome sim task
    (S.settle sim.sched w.st task.job ~attempt:task.attempt ~decided);
  w.task <- None;
  w.live <- 0;
  let others = live sim and warm = retained sim choice in
  let n = S.idle sim.sched w.st ~live:others warm in
  let kept = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < n) warm) in
  let p = S.pressure sim.sched ~live:(others + kept) in
  if n > 0 && p > 0 then
    broken "worker kept %d warm managers at pressure %d" n p;
  (match List.nth_opt warm n with
  | Some l when S.pressure sim.sched ~live:(others + kept + l) = 0 ->
    broken "worker dropped warm manager %d that fits at pressure 0" n
  | _ -> ());
  w.live <- kept

let pop sim =
  if not (Queue.is_empty sim.urgent) then Some (Queue.pop sim.urgent)
  else Queue.take_opt sim.normal

let work sim w choice =
  match w.task with
  | _ when w.dead -> ()
  | None -> (
    match pop sim with
    | None -> ()
    | Some job ->
      if Hashtbl.mem sim.resolved job then
        broken "job %d dispatched after it resolved" job;
      w.beat <- sim.now;
      let attempt = S.dispatch sim.sched w.st job in
      if attempt <> Hashtbl.find sim.attempt job then
        broken "job %d dispatched as attempt %d" job attempt;
      w.task <- Some { job; attempt; does = behaviour choice; left = 1 + (choice / 8 mod 3) })
  | Some task when w.st.S.abandoned ->
    (* A zombie finishing late. *)
    complete sim w task ~decided:(choice land 1 = 0) ~choice;
    sim.zombies <- List.filter (fun z -> z != w) sim.zombies
  | Some task -> (
    match task.does with
    | Verdict -> complete sim w task ~decided:true ~choice
    | Exceed -> complete sim w task ~decided:false ~choice
    | Crash ->
      S.crashed w.st "injected crash";
      w.dead <- true
    | Slow when task.left > 0 ->
      task.left <- task.left - 1;
      w.beat <- sim.now
    | Slow -> complete sim w task ~decided:true ~choice
    | Hang decided ->
      if w.st.S.cancel then complete sim w task ~decided ~choice
    | Zombie -> ())

(* The driver's supervision pass: a reaped or abandoned slot's job is
   requeued and the slot replaced. *)
let supervise sim =
  Array.iteri
    (fun i w ->
      let replace reason =
        (match (S.requeue_current sim.sched w.st ~reason, w.task) with
        | Some (_, outcome), Some task -> check_outcome sim task outcome
        | None, None -> ()
        | _ -> broken "slot %d: the rules and the worker disagree on its job" i);
        sim.slots.(i) <- fresh sim
      in
      match S.supervise sim.sched ~now:sim.now ~beat:w.beat w.st with
      | S.Leave | S.Cancel -> ()
      | S.Reap why -> replace ("worker crashed: " ^ why)
      | S.Abandon ->
        sim.zombies <- w :: sim.zombies;
        replace "worker hung (abandoned)")
    sim.slots

let invariants sim =
  let unresolved = sim.accepted - Hashtbl.length sim.resolved in
  if S.outstanding sim.sched <> unresolved then
    broken "outstanding %d, but %d jobs are unresolved"
      (S.outstanding sim.sched) unresolved;
  if Array.for_all (fun w -> w.task = None && not w.dead) sim.slots then
    match S.pressure sim.sched ~live:(live sim) with
    | 0 -> ()
    | p -> broken "idle pool at pressure %d" p

let step sim = function
  | Submit ->
    if not sim.draining then begin
      let job = sim.accepted in
      sim.accepted <- job + 1;
      Hashtbl.add sim.attempt job 1;
      Queue.push job sim.normal;
      S.admit sim.sched
    end
  | Work (i, choice) ->
    let n = Array.length sim.slots in
    if i < n then work sim sim.slots.(i) choice
    else (
      match List.nth_opt sim.zombies (i - n) with
      | Some z -> work sim z choice
      | None -> ())
  | Wait k ->
    sim.now <- sim.now +. (0.25 *. float_of_int k);
    supervise sim
  | Swing (i, live) ->
    let w = sim.slots.(i mod Array.length sim.slots) in
    if w.task <> None then w.live <- live
  | Drain -> sim.draining <- true

(* After the script: no more submits, and the clock runs on until every
   job has resolved and every zombie has returned. *)
let drain sim =
  sim.draining <- true;
  let rec go round =
    let settled =
      S.outstanding sim.sched = 0
      && Queue.is_empty sim.urgent && Queue.is_empty sim.normal
      && sim.zombies = []
    in
    if not settled then begin
      if round = 1000 then
        broken "drain: %d jobs still unresolved after %d rounds"
          (S.outstanding sim.sched) round;
      Array.iter (fun w -> work sim w round) sim.slots;
      List.iter (fun z -> work sim z round) sim.zombies;
      step sim (Wait 1);
      invariants sim;
      go (round + 1)
    end
  in
  go 0;
  for job = 0 to sim.accepted - 1 do
    if not (Hashtbl.mem sim.resolved job) then broken "job %d never resolved" job
  done

let check case =
  let sim = create case in
  sim.slots <- Array.init case.workers (fun _ -> fresh sim);
  match
    List.iter
      (fun op ->
        step sim op;
        invariants sim)
      case.ops;
    drain sim
  with
  | () -> Ok ()
  | exception Broken why -> Error why

let gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (3, return Submit);
        (6, map2 (fun i c -> Work (i, c)) (int_bound 4) (int_bound 63));
        (2, map (fun k -> Wait k) (int_range 1 6));
        (1, map2 (fun i v -> Swing (i, v)) (int_bound 3) (int_bound 1200));
        (1, return Drain);
      ]
  in
  let* workers = int_range 1 3 in
  let* max_attempts = int_range 1 3 in
  let* cap = opt (int_range 100 1000) in
  let+ ops = list_size (int_range 1 60) op in
  { workers; max_attempts; cap; ops }

let print c =
  let op = function
    | Submit -> "submit"
    | Work (i, ch) -> Printf.sprintf "work%d:%d" i ch
    | Wait k -> Printf.sprintf "wait%d" k
    | Swing (i, v) -> Printf.sprintf "swing%d:%d" i v
    | Drain -> "drain"
  in
  Printf.sprintf "workers %d, max_attempts %d, cap %s: %s" c.workers
    c.max_attempts
    (match c.cap with Some n -> string_of_int n | None -> "none")
    (String.concat " " (List.map op c.ops))
