(* Resource budgets, used to reproduce the paper's "Exceeded 60MB" /
   "Exceeded 40 minutes" rows without actually burning the machine. *)

exception Exceeded of string

type t = {
  max_created_nodes : int option;
  max_live_nodes : int option;
  max_seconds : float option;
  max_iterations : int option;
  baseline_nodes : int;
  started_at : float;
}

(* [started_at] is a monotonic-clock reading: wall-clock (gettimeofday)
   budgets are vulnerable to NTP steps, which can spuriously kill or
   indefinitely extend a run.  [elapsed] keeps its seconds-since-start
   semantics for reports. *)
let start ?max_created_nodes ?max_live_nodes ?max_seconds ?max_iterations man
    =
  {
    max_created_nodes;
    max_live_nodes;
    max_seconds;
    max_iterations;
    baseline_nodes = Bdd.created_nodes man;
    started_at = Monotonic.now ();
  }

let unlimited man = start man

let check t man =
  (match t.max_created_nodes with
  | Some n when Bdd.created_nodes man - t.baseline_nodes > n ->
    raise (Exceeded (Printf.sprintf "exceeded %d BDD nodes" n))
  | Some _ | None -> ());
  (* Live nodes are the analog of the paper's resident-memory limit.
     The manager keeps the count in O(1).  Only [Bdd.gc] frees nodes,
     so between collections it counts every node interned since the
     last one: the conservative direction for a budget. *)
  (match t.max_live_nodes with
  | Some n when Bdd.live_nodes man > n ->
    raise (Exceeded (Printf.sprintf "exceeded %d live BDD nodes" n))
  | Some _ | None -> ());
  match t.max_seconds with
  | Some s when Monotonic.now () -. t.started_at > s ->
    raise (Exceeded (Printf.sprintf "exceeded %.0f seconds" s))
  | Some _ | None -> ()

let check_iteration t man ~iteration =
  check t man;
  match t.max_iterations with
  | Some n when iteration > n ->
    raise (Exceeded (Printf.sprintf "no convergence after %d iterations" n))
  | Some _ | None -> ()

let elapsed t = Monotonic.now () -. t.started_at

(* Install the manager progress hook for the duration of [f], so node
   and time budgets interrupt even a single blown-up BDD operation.
   Any previously installed hook keeps running (chained) and is
   restored afterwards -- including when [f] escapes by exception, which
   is the normal exit path for a blown budget. *)
let with_guard t man f =
  let old = Bdd.progress_hook man in
  let hook m =
    (match old with Some h -> h m | None -> ());
    check t m
  in
  Bdd.set_progress_hook man (Some hook);
  Fun.protect ~finally:(fun () -> Bdd.set_progress_hook man old) f
