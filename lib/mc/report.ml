(* Results of a verification run, carrying the measurements reported in
   the paper's tables: iterations, the largest R_i/G_i representation in
   BDD nodes (with the per-conjunct breakdown for implicit
   conjunctions), and node-creation counts as the memory proxy. *)

type trace = bool array list
(* A counterexample: a path of concrete states, assignments indexed by
   BDD level (current-state levels are meaningful). *)

type status =
  | Proved
  | Violated of trace
  | Exceeded of string

type t = {
  model : string;
  method_name : string;
  status : status;
  iterations : int;
  peak_set_nodes : int; (* largest representation of any R_i / G_i *)
  peak_conjuncts : int list; (* conjunct sizes at the peak (desc) *)
  nodes_created : int; (* BDD nodes created during the run *)
  peak_live_nodes : int;
  time_s : float;
}

let is_proved r = match r.status with Proved -> true | Violated _ | Exceeded _ -> false

let decided r =
  match r.status with Proved | Violated _ -> true | Exceeded _ -> false

let status_string r =
  match r.status with
  | Proved -> "proved"
  | Violated tr -> Printf.sprintf "violated (trace length %d)" (List.length tr)
  | Exceeded why -> Printf.sprintf "EXCEEDED: %s" why

(* Mirror the paper's "(i x j nodes)" / "(a, b, c)" annotations. *)
let conjuncts_string = function
  | [] | [ _ ] -> ""
  | sizes ->
    let uniform =
      match sizes with
      | s :: rest -> List.for_all (( = ) s) rest
      | [] -> false
    in
    if uniform then
      Printf.sprintf " (%d x %d nodes)" (List.length sizes) (List.hd sizes)
    else
      Printf.sprintf " (%s)" (String.concat ", " (List.map string_of_int sizes))

let pp_row fmt r =
  Format.fprintf fmt "%-8s %8.2fs %5d %10d %8d%s   %s" r.method_name r.time_s
    r.iterations r.nodes_created r.peak_set_nodes
    (conjuncts_string r.peak_conjuncts)
    (status_string r)

let header =
  Printf.sprintf "%-8s %9s %5s %10s %8s   %s" "Meth." "Time" "Iter"
    "NodesMade" "SetNodes" "Status"

(* Attempt logs (Job.run) tag rows with the attempt number/budget
   without rebuilding the report. *)
let relabel r ~method_name = { r with method_name }

(* Machine-readable form for BENCH_*.json rows; the status collapses to
   its verdict word (the trace itself stays out of artifacts). *)
let to_json r =
  let status =
    match r.status with
    | Proved -> "proved"
    | Violated _ -> "violated"
    | Exceeded why -> Printf.sprintf "exceeded: %s" why
  in
  Obs.Json.Obj
    [
      ("model", Obs.Json.String r.model);
      ("method", Obs.Json.String r.method_name);
      ("status", Obs.Json.String status);
      ("iterations", Obs.Json.Int r.iterations);
      ("peak_set_nodes", Obs.Json.Int r.peak_set_nodes);
      ( "peak_conjuncts",
        Obs.Json.List (List.map (fun n -> Obs.Json.Int n) r.peak_conjuncts) );
      ("nodes_created", Obs.Json.Int r.nodes_created);
      ("peak_live_nodes", Obs.Json.Int r.peak_live_nodes);
      ("wall_seconds", Obs.Json.Float r.time_s);
    ]
