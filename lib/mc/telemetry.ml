(* Bridge between the BDD manager's always-on counters and the obs
   registry.  The manager counts into plain record fields (keeping the
   bdd package free of any obs dependency); [publish] copies those
   absolute values into "bdd.*" gauges, so a registry snapshot taken
   after a run carries the full per-cache breakdown next to the taut.*
   and policy.* counters that accumulate live. *)

let reg = Obs.Registry.default

let publish man =
  let g name v = Obs.Registry.set (Obs.Registry.gauge reg name) (float_of_int v) in
  List.iter
    (fun (name, hits, misses) ->
      g (Printf.sprintf "bdd.cache.%s.hits" name) hits;
      g (Printf.sprintf "bdd.cache.%s.misses" name) misses)
    (Bdd.cache_stats man);
  List.iter
    (fun (name, v) -> g (Printf.sprintf "bdd.computed.%s" name) v)
    (Bdd.computed_table_stats man);
  List.iter
    (fun (name, v) -> g (Printf.sprintf "bdd.unique.%s" name) v)
    (Bdd.unique_table_stats man);
  List.iter
    (fun (name, v) -> g (Printf.sprintf "bdd.nodes.%s" name) v)
    (Bdd.node_store_stats man);
  g "bdd.gc_events" (Bdd.gc_events man);
  g "bdd.nodes_created" (Bdd.created_nodes man);
  g "bdd.live_nodes" (Bdd.live_nodes man);
  g "bdd.peak_live_nodes" (Bdd.peak_live_nodes man);
  g "bdd.steps" (Bdd.steps man)

(* Registry + iteration log as one JSON object, for bench rows and the
   fuzz losslessness target. *)
let snapshot_json man =
  publish man;
  Obs.Json.Obj
    [
      ("metrics", Obs.Registry.to_json reg);
      ("iterations", Obs.Iterlog.to_json ());
    ]

(* Zero the run-scoped telemetry (between bench rows / CLI runs).  The
   manager's own counters are per-manager and not reset here. *)
let reset () =
  Obs.Registry.reset reg;
  Obs.Iterlog.clear ()

(* The post-run [icv --stats] report. *)
let print_summary man =
  publish man;
  Obs.Summary.print reg (Obs.Iterlog.rows ())
