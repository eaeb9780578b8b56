(* In-memory span collection and per-layer self-time attribution.

   The benchmark adds no spans inside the library: it installs an
   in-memory sink on the tracer the library already reports to, wraps
   its own calls in "bench.*" spans, and attributes the spans that
   already exist (images, policy phases, termination checks,
   checkpoint saves) to layers by name.  A span's self time is its
   duration minus the part of its interval its child spans cover, so
   the self times of every span under one solve root add up to that
   root's duration. *)

type t = {
  tracer : Obs.Tracer.t;
  epoch_ns : int64;
  mutable spans : Obs.Tracer.span list;  (* newest first *)
}

let create () =
  let epoch_ns = Obs.Clock.now_ns () in
  let tracer = Obs.Tracer.create ~epoch_ns () in
  let t = { tracer; epoch_ns; spans = [] } in
  Obs.Tracer.add_sink tracer
    {
      Obs.Tracer.on_span = (fun s -> t.spans <- s :: t.spans);
      on_instant = ignore;
      flush = ignore;
    };
  t

(* Run [f] with [t] receiving every span this domain emits. *)
let record t f = Obs.Tracer.with_global t.tracer f

(* The spans recorded since the last [take], oldest first. *)
let take t =
  let s = List.rev t.spans in
  t.spans <- [];
  s

(* A span the benchmark times itself around one public call. *)
let bench name f = Obs.Tracer.with_span (Obs.Tracer.global ()) ~cat:"bench" name f

(* --- attribution ----------------------------------------------------- *)

type split = {
  solve_s : float;  (* summed duration of the solve roots *)
  fsm_s : float;
  simplify_s : float;
  evaluate_s : float;
  taut_s : float;
  checkpoint_s : float;
  mc_self_s : float;  (* everything else under a solve root *)
  image_calls : int;
}

let empty =
  {
    solve_s = 0.0;
    fsm_s = 0.0;
    simplify_s = 0.0;
    evaluate_s = 0.0;
    taut_s = 0.0;
    checkpoint_s = 0.0;
    mc_self_s = 0.0;
    image_calls = 0;
  }

let add a b =
  {
    solve_s = a.solve_s +. b.solve_s;
    fsm_s = a.fsm_s +. b.fsm_s;
    simplify_s = a.simplify_s +. b.simplify_s;
    evaluate_s = a.evaluate_s +. b.evaluate_s;
    taut_s = a.taut_s +. b.taut_s;
    checkpoint_s = a.checkpoint_s +. b.checkpoint_s;
    mc_self_s = a.mc_self_s +. b.mc_self_s;
    image_calls = a.image_calls + b.image_calls;
  }

(* The benchmark's own solve span, and the pool's for icvd jobs. *)
let is_solve_root name = name = "bench.solve" || name = "job.solve"

let add_self acc name self_s =
  match name with
  | "xici.back_image" | "bkwd.back_image" | "fwd.image" ->
    { acc with fsm_s = acc.fsm_s +. self_s; image_calls = acc.image_calls + 1 }
  | "policy.simplify" -> { acc with simplify_s = acc.simplify_s +. self_s }
  | "policy.evaluate" -> { acc with evaluate_s = acc.evaluate_s +. self_s }
  | "taut.check" -> { acc with taut_s = acc.taut_s +. self_s }
  | "checkpoint.save" -> { acc with checkpoint_s = acc.checkpoint_s +. self_s }
  | _ -> { acc with mc_self_s = acc.mc_self_s +. self_s }

type frame = {
  span : Obs.Tracer.span;
  stop : int64;
  mutable child_ns : int64;
  in_solve : bool;
}

let seconds ns = Int64.to_float ns /. 1e9

(* Rebuild each domain's span tree from interval nesting (parents start
   no later and end no earlier than their children) and sum self times
   by layer over every span at or below a solve root. *)
let split spans =
  let acc = ref empty in
  let close f =
    if f.in_solve then begin
      let self = Int64.sub f.span.Obs.Tracer.dur_ns f.child_ns in
      acc := add_self !acc f.span.Obs.Tracer.name (seconds (Int64.max 0L self));
      if is_solve_root f.span.Obs.Tracer.name then
        acc := { !acc with solve_s = !acc.solve_s +. seconds f.span.Obs.Tracer.dur_ns }
    end
  in
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun (s : Obs.Tracer.span) ->
      Hashtbl.replace by_dom s.dom
        (s :: Option.value (Hashtbl.find_opt by_dom s.dom) ~default:[]))
    spans;
  Hashtbl.iter
    (fun _ dom_spans ->
      let ordered =
        List.sort
          (fun (a : Obs.Tracer.span) (b : Obs.Tracer.span) ->
            match Int64.compare a.ts_ns b.ts_ns with
            | 0 -> Int64.compare b.dur_ns a.dur_ns
            | c -> c)
          dom_spans
      in
      let stack = ref [] in
      List.iter
        (fun (s : Obs.Tracer.span) ->
          let rec pop () =
            match !stack with
            | f :: rest when Int64.compare f.stop s.ts_ns <= 0 ->
              close f;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          let stop = Int64.add s.ts_ns s.dur_ns in
          let in_solve =
            is_solve_root s.name
            ||
            match !stack with
            | parent :: _ ->
              let covered = Int64.sub (Int64.min stop parent.stop) s.ts_ns in
              parent.child_ns <- Int64.add parent.child_ns covered;
              parent.in_solve
            | [] -> false
          in
          stack := { span = s; stop; child_ns = 0L; in_solve } :: !stack)
        ordered;
      List.iter close !stack)
    by_dom;
  !acc

(* Durations in seconds of every span with this name. *)
let durations name spans =
  List.filter_map
    (fun (s : Obs.Tracer.span) ->
      if s.name = name then Some (seconds s.dur_ns) else None)
    spans

(* --- files ----------------------------------------------------------- *)

(* One span of a JSONL trace file as [Obs.Tracer.jsonl_sink] writes it
   (icvd's per-job trace files); other lines are skipped. *)
let of_jsonl_line line =
  let open Obs.Json in
  match of_string line with
  | exception Parse_error _ -> None
  | json -> (
    let str k = Option.bind (member k json) to_str in
    let num k = Option.bind (member k json) to_float in
    match (str "type", str "name", num "ts_us", num "dur_us") with
    | Some "span", Some name, Some ts_us, Some dur_us ->
      Some
        {
          Obs.Tracer.name;
          cat = Option.value (str "cat") ~default:"";
          dom = Option.value (Option.bind (member "dom" json) to_int) ~default:0;
          ts_ns = Int64.of_float (ts_us *. 1e3);
          dur_ns = Int64.of_float (dur_us *. 1e3);
          args = [];
        }
    | _ -> None)

let read_jsonl path =
  match open_in path with
  | exception Sys_error _ -> ([], [])
  | ic ->
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let lines = List.rev !lines in
    (lines, List.filter_map of_jsonl_line lines)

(* Write recorded spans as JSONL, timestamps relative to [t]'s epoch. *)
let write t ~path spans =
  let oc = open_out path in
  let sink = Obs.Tracer.jsonl_sink (Obs.Tracer.create ~epoch_ns:t.epoch_ns ()) oc in
  List.iter sink.Obs.Tracer.on_span spans;
  close_out oc
