(** Per-iteration fixpoint records, fed by [Mc.Fixpoint.iteration] and read
    back by the post-run summary and bench snapshots.  One run buffer
    {e per domain} (worker domains do not interleave rows into the main
    domain's buffer); the caller clears its own domain's buffer between
    runs. *)

type row = {
  meth : string;
  iteration : int;
  conjuncts : int;
  nodes : int;
  elapsed_s : float;  (** since the method's own start, monotonic *)
  live_nodes : int;  (** manager live-node peak when the row was taken *)
}

val record : row -> unit
(** Append to the calling domain's buffer, and feed the domain's sink
    first, if one is installed. *)

val rows : unit -> row list
(** The calling domain's rows, in recording order. *)

val clear : unit -> unit

val set_sink : (row -> unit) option -> unit
(** Install (or remove) a streaming callback for the calling domain:
    every subsequent {!record} in this domain calls it before
    buffering.  Used by resident workers to stream per-iteration
    progress while the run is still going.  The sink must not raise. *)

val to_json : unit -> Json.t
