(* A method run.  Every verification method's fixpoint loop runs inside
   one: the frame owns the budgets and their guard, the iteration
   counter, the largest set seen (the paper's "BDD nodes" column, with
   its per-conjunct breakdown) and the per-iteration record, so the
   methods keep only their algorithms and every report is built in one
   place. *)

module L = (val Logs.src_log Log.src : Logs.LOG)

let m_iterations = Obs.Registry.counter Obs.Registry.default "mc.iterations"
let g_live = Obs.Registry.gauge Obs.Registry.default "mc.peak_live_nodes"

type t = {
  model : Model.t;
  meth : string;
  man : Bdd.man;
  lim : Limits.t;
  baseline : int;
  mutable iterations : int;
  mutable peak_nodes : int;
  mutable peak_conjuncts : int list; (* sizes at the peak, descending *)
}

let start ?(limits = Limits.unlimited) ~meth model =
  let man = Model.man model in
  let lim = limits man in
  {
    model;
    meth;
    man;
    lim;
    baseline = Bdd.created_nodes man;
    iterations = 0;
    peak_nodes = 0;
    peak_conjuncts = [];
  }

let report t status =
  {
    Report.model = t.model.Model.name;
    method_name = t.meth;
    status;
    iterations = t.iterations;
    peak_set_nodes = t.peak_nodes;
    peak_conjuncts = (match t.peak_conjuncts with [ _ ] -> [] | l -> l);
    nodes_created = Bdd.created_nodes t.man - t.baseline;
    peak_live_nodes = Bdd.peak_live_nodes t.man;
    time_s = Limits.elapsed t.lim;
  }

let run ?limits ?(iterations = 0) ~meth model body =
  let t = { (start ?limits ~meth model) with iterations } in
  Limits.with_guard t.lim t.man (fun () ->
      try report t (body t)
      with Limits.Exceeded why -> report t (Report.Exceeded why))

let iterations t = t.iterations
let advance t = t.iterations <- t.iterations + 1
let check t = Limits.check t.lim t.man

(* One row per iteration: a debug line (set level Debug, e.g. via icv
   --verbose, to watch set sizes evolve), an Obs.Iterlog row for the
   post-run summary and bench snapshots, and the "mc.iterations"
   registry count.  [live_nodes] is the manager's count at the top of
   the iteration. *)
let row t ~conjuncts ~nodes =
  let elapsed_s = Limits.elapsed t.lim in
  let live_nodes = Bdd.live_nodes t.man in
  Obs.Registry.incr m_iterations;
  Obs.Registry.set_max g_live (float_of_int live_nodes);
  Obs.Iterlog.record
    {
      Obs.Iterlog.meth = t.meth;
      iteration = t.iterations;
      conjuncts;
      nodes;
      elapsed_s;
      live_nodes;
    };
  L.debug (fun m ->
      m "%s iteration %d: %d conjunct(s), %d shared nodes, %.3fs, %d live"
        t.meth t.iterations conjuncts nodes elapsed_s live_nodes)

(* The shared size is walked once per iteration; the per-conjunct
   breakdown only when the set is a new peak. *)
let iteration t sets =
  Limits.check_iteration t.lim t.man ~iteration:t.iterations;
  let nodes = Bdd.size_list sets in
  if nodes > t.peak_nodes then begin
    t.peak_nodes <- nodes;
    t.peak_conjuncts <-
      List.sort (fun a b -> compare b a) (List.map Bdd.size sets)
  end;
  row t ~conjuncts:(List.length sets) ~nodes

let search_row t ~states = row t ~conjuncts:states ~nodes:0

let violation t g ~history =
  let init = t.model.Model.init in
  match Ici.Clist.find_unimplied t.man init g with
  | None -> None
  | Some c ->
    let trans = t.model.Model.trans in
    let start = Trace.pick trans (Bdd.band t.man init (Bdd.bnot t.man c)) in
    Some (Report.Violated (Trace.backward trans ~gs:(List.rev history) ~start))
