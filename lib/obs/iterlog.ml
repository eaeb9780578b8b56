(* Per-iteration fixpoint records.  Every method's iteration logging
   (via Mc.Fixpoint.iteration) lands here so the post-run summary can print
   a per-iteration breakdown without re-running anything.  The buffer
   is domain-local: methods racing on worker domains (parallel
   portfolio, daemon workers) each accumulate their own rows instead of
   interleaving into one shared list, and the main domain's sequential
   semantics (record, read back, clear between runs) are unchanged.

   A domain-local sink lets a resident worker stream rows out as they
   are produced (e.g. per-iteration progress events back to a daemon
   client) without waiting for the run to finish; the buffer still
   fills, so post-run consumers keep working. *)

type row = {
  meth : string;
  iteration : int;
  conjuncts : int;
  nodes : int;
  elapsed_s : float;  (* since the method's own start, monotonic *)
  live_nodes : int;  (* manager live-node peak when the row was taken *)
}

let buffer_key : row list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let sink_key : (row -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let record row =
  (match !(Domain.DLS.get sink_key) with Some f -> f row | None -> ());
  let buffer = Domain.DLS.get buffer_key in
  buffer := row :: !buffer

let rows () = List.rev !(Domain.DLS.get buffer_key)

let clear () = Domain.DLS.get buffer_key := []

let set_sink f = Domain.DLS.get sink_key := f

let to_json () =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("method", Json.String r.meth);
             ("iteration", Json.Int r.iteration);
             ("conjuncts", Json.Int r.conjuncts);
             ("nodes", Json.Int r.nodes);
             ("elapsed_s", Json.Float r.elapsed_s);
             ("live_nodes", Json.Int r.live_nodes);
           ])
       (rows ()))
