(** Verification results with the measurements the paper tabulates:
    iterations to convergence, largest per-iteration set representation
    in BDD nodes (with the per-conjunct breakdown for implicit
    conjunctions), node-creation counts, wall time. *)

type trace = bool array list
(** A counterexample path; each state is an assignment indexed by BDD
    level (current-state levels are meaningful). *)

type status = Proved | Violated of trace | Exceeded of string

type t = {
  model : string;
  method_name : string;
  status : status;
  iterations : int;
  peak_set_nodes : int;
  peak_conjuncts : int list;
  nodes_created : int;
  peak_live_nodes : int;
  time_s : float;
}

val is_proved : t -> bool

val decided : t -> bool
(** Proved or Violated: a sound verdict, as opposed to Exceeded. *)

val status_string : t -> string

val conjuncts_string : int list -> string
(** The paper's "(i x j nodes)" / "(a, b, c)" annotation. *)

val pp_row : Format.formatter -> t -> unit
val header : string

val relabel : t -> method_name:string -> t
(** The same report under a different method label (attempt logs tag
    rows with the attempt number and budget). *)

val to_json : t -> Obs.Json.t
(** Machine-readable row [{model, method, status, iterations,
    peak_set_nodes, peak_conjuncts, nodes_created, peak_live_nodes,
    wall_seconds}]; the status collapses to its verdict word (traces
    stay out of artifacts). *)
