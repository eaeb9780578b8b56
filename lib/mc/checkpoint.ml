(* On-disk snapshots of XICI fixpoint state, so a run killed by a
   resource budget resumes at its last completed iteration instead of
   iteration 0 (the paper's "Exceeded 60MB" rows lose all G_i progress;
   this module is how the [Job.run] ladder keeps it).

   Format (text, versioned):

       icv-checkpoint 1
       model <%S-escaped name>
       nvars <n>
       iterations <k>
       termination <exact-equal|exact-implication|pointwise>
       policy <grow_threshold> <simplifier> <evaluation> <pair-factor|-1>
       current <conjunct count>
       gs <list count> <len_1> ... <len_m>
       <Bdd.Serialize block holding all conjuncts, fully shared>
       end

   The trailing "end" line makes truncation detectable; every field is
   parsed strictly and any failure (including a Serialize parse error or
   premature EOF) surfaces as [Corrupt], never as a silent wrong
   result.  Saves go through a temp file + rename so an interrupted
   write cannot destroy the previous good checkpoint. *)

type termination = [ `Exact_equal | `Exact_implication | `Pointwise ]

type t = {
  model_name : string;
  nvars : int;
  iterations : int;
  cfg : Ici.Policy.config;
  termination : termination;
  current : Ici.Clist.t;
  gs : Ici.Clist.t list;
}

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let version = 1

(* --- field encodings ------------------------------------------------ *)

let termination_string = function
  | `Exact_equal -> "exact-equal"
  | `Exact_implication -> "exact-implication"
  | `Pointwise -> "pointwise"

let termination_of_string = function
  | "exact-equal" -> `Exact_equal
  | "exact-implication" -> `Exact_implication
  | "pointwise" -> `Pointwise
  | s -> fail "bad termination %S" s

let simplifier_string = function
  | Ici.Policy.Restrict -> "restrict"
  | Ici.Policy.Constrain -> "constrain"
  | Ici.Policy.Multi_restrict -> "multi-restrict"
  | Ici.Policy.No_simplify -> "no-simplify"

let simplifier_of_string = function
  | "restrict" -> Ici.Policy.Restrict
  | "constrain" -> Ici.Policy.Constrain
  | "multi-restrict" -> Ici.Policy.Multi_restrict
  | "no-simplify" -> Ici.Policy.No_simplify
  | s -> fail "bad simplifier %S" s

let evaluation_string = function
  | Ici.Policy.Greedy -> "greedy"
  | Ici.Policy.Optimal_cover -> "optimal-cover"
  | Ici.Policy.No_evaluation -> "no-evaluation"

let evaluation_of_string = function
  | "greedy" -> Ici.Policy.Greedy
  | "optimal-cover" -> Ici.Policy.Optimal_cover
  | "no-evaluation" -> Ici.Policy.No_evaluation
  | s -> fail "bad evaluation %S" s

(* --- writing -------------------------------------------------------- *)

let write oc cp =
  Printf.fprintf oc "icv-checkpoint %d\n" version;
  Printf.fprintf oc "model %S\n" cp.model_name;
  Printf.fprintf oc "nvars %d\n" cp.nvars;
  Printf.fprintf oc "iterations %d\n" cp.iterations;
  Printf.fprintf oc "termination %s\n" (termination_string cp.termination);
  Printf.fprintf oc "policy %.17g %s %s %d\n" cp.cfg.Ici.Policy.grow_threshold
    (simplifier_string cp.cfg.Ici.Policy.simplifier)
    (evaluation_string cp.cfg.Ici.Policy.evaluation)
    (match cp.cfg.Ici.Policy.pair_step_factor with Some f -> f | None -> -1);
  Printf.fprintf oc "current %d\n" (List.length cp.current);
  Printf.fprintf oc "gs %d %s\n" (List.length cp.gs)
    (String.concat " " (List.map (fun l -> string_of_int (List.length l)) cp.gs));
  Bdd.Serialize.to_channel oc (cp.current @ List.concat cp.gs);
  output_string oc "end\n"

let save man path cp =
  ignore man;
  Obs.Tracer.with_span (Obs.Tracer.global ()) ~cat:"mc"
    ~args:(fun () ->
      [
        ("iteration", Obs.Json.Int cp.iterations);
        ("conjuncts", Obs.Json.Int (List.length cp.current));
      ])
    "checkpoint.save"
    (fun () ->
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc cp);
      Sys.rename tmp path)

(* --- reading -------------------------------------------------------- *)

let next_line ic =
  try input_line ic with End_of_file -> fail "truncated checkpoint"

let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "bad %s %S" what s

let keyed key line =
  let prefix = key ^ " " in
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    String.sub line n (String.length line - n)
  else fail "expected %S field, got %S" key line

let rec split_at n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> fail "conjunct count mismatch"
    | x :: rest ->
      let a, b = split_at (n - 1) rest in
      (x :: a, b)

let read man ic =
  (match String.split_on_char ' ' (next_line ic) with
  | [ "icv-checkpoint"; v ] ->
    let v = int_field "version" v in
    if v <> version then fail "unsupported checkpoint version %d" v
  | _ -> fail "not a checkpoint file");
  let model_name =
    let raw = keyed "model" (next_line ic) in
    try Scanf.sscanf raw "%S" Fun.id
    with Scanf.Scan_failure _ | End_of_file -> fail "bad model name %S" raw
  in
  let nvars = int_field "nvars" (keyed "nvars" (next_line ic)) in
  let iterations =
    int_field "iterations" (keyed "iterations" (next_line ic))
  in
  if nvars < 0 || iterations < 0 then fail "negative count";
  let termination =
    termination_of_string (keyed "termination" (next_line ic))
  in
  let cfg =
    match String.split_on_char ' ' (keyed "policy" (next_line ic)) with
    | [ thr; simp; eval; pair ] ->
      let grow_threshold =
        match float_of_string_opt thr with
        | Some f -> f
        | None -> fail "bad grow threshold %S" thr
      in
      let pair = int_field "pair factor" pair in
      {
        Ici.Policy.grow_threshold;
        simplifier = simplifier_of_string simp;
        evaluation = evaluation_of_string eval;
        pair_step_factor = (if pair < 0 then None else Some pair);
      }
    | _ -> fail "bad policy line"
  in
  let n_current = int_field "current" (keyed "current" (next_line ic)) in
  let gs_lens =
    match String.split_on_char ' ' (keyed "gs" (next_line ic)) with
    | count :: lens ->
      let count = int_field "gs count" count in
      let lens = List.map (int_field "gs length") lens in
      if List.length lens <> count then fail "gs length list mismatch";
      lens
    | [] -> fail "bad gs line"
  in
  if n_current < 0 || List.exists (fun l -> l < 0) gs_lens then
    fail "negative conjunct count";
  let roots =
    try Bdd.Serialize.of_channel man ic
    with Bdd.Serialize.Parse_error why -> fail "bad BDD payload: %s" why
  in
  let expected = n_current + List.fold_left ( + ) 0 gs_lens in
  if List.length roots <> expected then
    fail "root count %d does not match conjunct counts (%d)"
      (List.length roots) expected;
  (match next_line ic with
  | "end" -> ()
  | s -> fail "bad trailer %S" s);
  let current, rest = split_at n_current roots in
  let gs, rest =
    List.fold_left
      (fun (acc, rest) len ->
        let l, rest = split_at len rest in
        (l :: acc, rest))
      ([], rest) gs_lens
  in
  assert (rest = []);
  { model_name; nvars; iterations; cfg; termination; current;
    gs = List.rev gs }

let load man path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read man ic)

(* Resumption must never be worse than a cold start: a checkpoint file
   that is truncated (the writer died mid-rename-window on a weird
   filesystem), corrupt, or unreadable is treated exactly like an
   absent one.  [load] keeps raising -- callers asking for a specific
   file still get the diagnosis -- but the opportunistic path degrades
   with a logged warning. *)
let load_opt man path =
  if not (Sys.file_exists path) then None
  else
    match load man path with
    | cp -> Some cp
    | exception Corrupt why ->
      Log.degraded ~what:"checkpoint"
        ~detail:(Printf.sprintf "%s is corrupt (%s); starting cold" path why);
      None
    | exception Sys_error why ->
      Log.degraded ~what:"checkpoint"
        ~detail:(Printf.sprintf "%s is unreadable (%s); starting cold" path why);
      None

(* A checkpoint only makes sense against the model that produced it:
   conjunct BDDs mention that model's variable levels. *)
let check_compatible cp model =
  let man = Model.man model in
  if cp.model_name <> model.Model.name then
    fail "checkpoint is for model %S, not %S" cp.model_name
      model.Model.name;
  if cp.nvars <> Bdd.num_vars man then
    fail "checkpoint has %d variables, model has %d" cp.nvars
      (Bdd.num_vars man)
