(* The one-shot workloads: a fixed job list run in passes, each pass in
   an order the seed permutes, until the run's seconds are spent.

   Single solves on a shared two-core machine vary by +-20% with
   occasional spikes, so each job's time is its median over the run's
   passes, and a pass's time to verdict is the sum of those medians.
   Set-up is the same sum over model constructions. *)

open Jobs

type pass = {
  outcomes : outcome list;
  raw : Obs.Tracer.span list;  (* traced passes only *)
  spans : Spans.split option;  (* traced passes only *)
}

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let sum_of f outcomes = Stats.sum (List.map f outcomes)
let verdict_s p = sum_of (fun o -> o.solve_s) p.outcomes
let build_s p = sum_of (fun o -> o.build_s) p.outcomes

(* Passes alternate untraced and traced when [trace] is set, so the
   tracing overhead compares passes run under the same conditions.  A
   new pass starts only if one more of the median length still fits in
   [seconds]; a traced run makes at least one pass of each kind.  Each
   job runs in its own process (see {!Jobs.zygote}): task [2i] runs job
   [i] untraced, task [2i + 1] traced. *)
let run_passes ~rng ~seconds ~trace ~max_passes ~log jobs =
  let tracer = Spans.create () in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun job ->
           [
             (fun () -> (run job, []));
             (fun () ->
               let o = Spans.record tracer (fun () -> run job) in
               (o, Spans.take tracer));
           ])
         jobs)
  in
  let z = zygote tasks in
  Fun.protect ~finally:(fun () -> Jobs.stop z) @@ fun () ->
  let t0 = now () in
  let rec go i acc lengths =
    let elapsed = now () -. t0 in
    let enough =
      i >= max_passes
      || (i >= (if trace then 2 else 1)
         && elapsed +. Stats.median lengths > seconds)
    in
    if enough then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      let order = shuffle rng (List.init (List.length jobs) Fun.id) in
      let start = now () in
      let results =
        List.map (fun j -> call z ((2 * j) + if traced then 1 else 0)) order
      in
      let outcomes = List.map fst results and raw = List.concat_map snd results in
      let p =
        { outcomes; raw; spans = (if traced then Some (Spans.split raw) else None) }
      in
      log
        (Printf.sprintf "pass %d%s: verdict %.3fs, set-up %.3fs" (i + 1)
           (if traced then " (traced)" else "")
           (verdict_s p) (build_s p));
      go (i + 1) (p :: acc) ((now () -. start) :: lengths)
    end
  in
  (tracer, go 0 [] [])

(* --- metrics ---------------------------------------------------------- *)

(* Each job's median of [f] over the given passes. *)
let job_medians f passes =
  let names = List.map (fun o -> o.job.name) (List.hd passes).outcomes in
  List.map
    (fun name ->
      Stats.median
        (List.concat_map
           (fun p -> List.filter_map (fun o -> if o.job.name = name then Some (f o) else None) p.outcomes)
           passes))
    names

let median_pass f passes = Stats.sum (job_medians f passes)

(* Latency percentiles are over the jobs' median solve times, so p99 is
   the slowest job's typical time, not one unlucky sample. *)
let e2e passes =
  let all = List.concat_map (fun p -> p.outcomes) passes in
  let ms = job_medians (fun o -> o.solve_s *. 1000.0) passes in
  [
    ("verdict_s", median_pass (fun o -> o.solve_s) passes);
    ("setup_s", median_pass (fun o -> o.build_s) passes);
    ( "peak_live_nodes",
      float_of_int (List.fold_left (fun a o -> max a o.peak_live) 0 all) );
    ("peak_rss_mb", List.fold_left (fun a o -> Float.max a o.rss_mb) 0.0 all);
    ("latency_p50_ms", Stats.median ms);
    ("latency_p99_ms", Stats.percentile ms 0.99);
  ]

(* Per-layer metrics of one traced pass. *)
let layer_of_pass p =
  let os = p.outcomes in
  let isum f = List.fold_left (fun a o -> a + f o) 0 os in
  (* Hits over lookups of the caches [keep] selects, over the pass. *)
  let hit_ratio keep =
    let h, m =
      List.fold_left
        (fun acc o ->
          List.fold_left
            (fun (h, m) (n, h', m') -> if keep n then (h + h', m + m') else (h, m))
            acc o.k.cache)
        (0, 0) os
    in
    Stats.ratio h (h + m)
  in
  let ici name = isum (fun o -> List.assoc name o.ici) in
  let steps = isum (fun o -> o.k.steps) in
  let solve = verdict_s p in
  let s = Option.value p.spans ~default:Spans.empty in
  let props = isum (fun o -> o.properties) in
  let batch_s = sum_of (fun o -> if o.properties > 0 then o.solve_s else 0.0) os in
  let n = float_of_int (max 1 (List.length os)) in
  [
    ("bdd.steps", float_of_int steps);
    ("bdd.steps_per_s", if solve > 0.0 then float_of_int steps /. solve else 0.0);
    ("bdd.nodes_created", float_of_int (isum (fun o -> o.k.created)));
    ("bdd.cache_hit_ratio", hit_ratio (fun _ -> true));
    ("bdd.cache.ite.hit_ratio", hit_ratio (( = ) "ite"));
    ("bdd.cache.and_exists.hit_ratio", hit_ratio (( = ) "and_exists"));
    ("bdd.cache.vcompose.hit_ratio", hit_ratio (( = ) "vcompose"));
    ("bdd.cache.restrict.hit_ratio", hit_ratio (( = ) "restrict"));
    ("bdd.computed.evictions", float_of_int (isum (fun o -> o.k.evictions)));
    ("bdd.unique.resizes", float_of_int (isum (fun o -> o.k.resizes)));
    ("bdd.gc_events", float_of_int (isum (fun o -> o.k.gc_events)));
    ("bdd.alloc_mb", sum_of (fun o -> o.alloc_bytes) os /. 1_048_576.0);
    ("fsm.image_s", s.Spans.fsm_s);
    ("fsm.image_calls", float_of_int s.Spans.image_calls);
    ("ici.simplify_s", s.Spans.simplify_s);
    ("ici.evaluate_s", s.Spans.evaluate_s);
    ("ici.taut_s", s.Spans.taut_s);
  ]
  @ ici_metrics ici
  @ [
    ("mc.solve_s", s.Spans.solve_s);
    ("mc.self_s", s.Spans.mc_self_s);
    ("mc.iterations", float_of_int (isum (fun o -> o.iterations)));
    ("mc.batch.invariants_shared", float_of_int (isum (fun o -> o.shared)));
    ( "mc.batch.per_property_s",
      if props > 0 then batch_s /. float_of_int props else 0.0 );
    ("mc.checkpoint_ms", s.Spans.checkpoint_s *. 1000.0);
    ("models.build_s", build_s p);
    ("srv.protocol.decode_us", sum_of (fun o -> o.decode_s) os /. n *. 1e6);
    ("srv.protocol.encode_us", sum_of (fun o -> o.encode_s) os /. n *. 1e6);
  ]

(* The traced pass with the median solve time (so its layer times add
   up to its mc.solve_s), plus the run-level numbers: tracing overhead
   (traced against untraced passes, each summed from per-job medians)
   and freeze/thaw of each distinct model.  One-shot jobs never reach
   the service layer or the arrival generator, so those read 0. *)
let per_layer passes ~freeze_thaw =
  let traced = List.filter (fun p -> p.spans <> None) passes
  and untraced = List.filter (fun p -> p.spans = None) passes in
  let rows =
    List.sort
      (fun a b -> compare (List.assoc "mc.solve_s" a) (List.assoc "mc.solve_s" b))
      (List.map layer_of_pass traced)
  in
  let traced_solve = median_pass (fun o -> o.solve_s) traced
  and untraced_solve = median_pass (fun o -> o.solve_s) untraced in
  let freeze_s = Stats.sum (List.map fst freeze_thaw)
  and thaw_s = Stats.sum (List.map snd freeze_thaw) in
  List.nth rows ((List.length rows - 1) / 2)
  @ [
      ("mc.freeze_ms", freeze_s *. 1000.0);
      ("mc.thaw_ms", thaw_s *. 1000.0);
      ( "obs.trace_overhead_pct",
        if untraced_solve > 0.0 then
          (traced_solve -. untraced_solve) /. untraced_solve *. 100.0
        else 0.0 );
    ]
  @ List.map
      (fun n -> (n, 0.0))
      [
        "srv.queue_ms.p50"; "srv.queue_ms.p99"; "srv.thaw_ms.p50";
        "srv.solve_ms.p50"; "srv.solve_ms.p99"; "srv.epilogue_ms.p50";
        "srv.overhead_ms.p50"; "srv.manager_reuses"; "srv.requeues";
        "srv.rejections"; "gen.late_ms.max";
      ]

let failures passes =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun o -> Option.map (fun why -> o.job.name ^ ": " ^ why) o.failure)
        p.outcomes)
    passes

let attempted passes = List.fold_left (fun a p -> a + List.length p.outcomes) 0 passes

(* Distinct model declarations of a job list, in first-use order. *)
let distinct_specs jobs =
  List.fold_left
    (fun acc j -> if List.mem j.spec acc then acc else acc @ [ j.spec ])
    [] jobs
