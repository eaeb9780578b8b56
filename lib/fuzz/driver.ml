(* The deterministic fuzz driver.

   Work is done in batches: a batch is (target, seed, count), where seed
   initialises a private [Random.State.t] and count is the number of
   QCheck2 cases generated from it.  The same triple always generates
   the same cases, so every batch — and in particular every failing
   batch — is replayable from its corpus line alone.  Shrinking is
   QCheck2's integrated shrinking: the counterexamples reported for a
   failing batch are already minimal. *)

type target = Diff | Metamorph | Taut | Bddops | Tinycache | Batchfuzz | Srv

let all_targets = [ Diff; Metamorph; Taut; Bddops; Tinycache; Batchfuzz; Srv ]

let target_name = function
  | Diff -> "diff"
  | Metamorph -> "metamorph"
  | Taut -> "taut"
  | Bddops -> "bddops"
  | Tinycache -> "tinycache"
  | Batchfuzz -> "batch"
  | Srv -> "srv"

let target_of_string = function
  | "diff" -> Some Diff
  | "metamorph" -> Some Metamorph
  | "taut" -> Some Taut
  | "bddops" -> Some Bddops
  | "tinycache" -> Some Tinycache
  | "batch" -> Some Batchfuzz
  | "srv" -> Some Srv
  | _ -> None

type failure = { entry : Corpus.entry; counterexamples : string list }

let pp_failure f =
  String.concat "\n"
    (("FAIL " ^ Corpus.line f.entry)
    :: List.map (fun ce -> "  " ^ ce) f.counterexamples)

(* Each property re-runs its check inside the QCheck2 printer, so the
   shrunk counterexample is reported together with the disagreement it
   triggers (shrinking may land on a different disagreement than the
   original case; what matters is that it still has one). *)
let with_diag to_string check v =
  to_string v ^ "\n  -> "
  ^
  match check v with
  | Some d -> Oracle.to_string d
  | None -> "(no disagreement on the shrunk case)"

let with_diag_result to_string check v =
  to_string v ^ "\n  -> "
  ^
  match check v with
  | Error e -> e
  | Ok () -> "(no disagreement on the shrunk case)"

let test_of_target target ~count =
  let name = target_name target in
  match target with
  | Diff ->
    QCheck2.Test.make ~count ~name
      ~print:(with_diag Spec.to_string (fun s -> Oracle.check_spec s))
      (Spec.gen ())
      (fun spec -> Oracle.check_spec spec = None)
  (* Like Diff, but every method manager runs on a 256-slot computed
     table, so eviction and generation-invalidation paths fire
     constantly: lossy caching must still never change a verdict. *)
  | Tinycache ->
    QCheck2.Test.make ~count ~name
      ~print:
        (with_diag Spec.to_string (fun s ->
             Oracle.check_spec ~cache_budget:256 s))
      (Spec.gen ())
      (fun spec -> Oracle.check_spec ~cache_budget:256 spec = None)
  | Metamorph ->
    QCheck2.Test.make ~count ~name
      ~print:(with_diag Spec.to_string (fun s -> Metamorph.check_spec s))
      (Spec.gen ())
      (fun spec -> Metamorph.check_spec spec = None)
  | Batchfuzz ->
    QCheck2.Test.make ~count ~name
      ~print:(with_diag Batchfuzz.print_case (fun c -> Batchfuzz.check_case c))
      Batchfuzz.gen
      (fun c -> Batchfuzz.check_case c = None)
  | Taut ->
    QCheck2.Test.make ~count ~name
      ~print:(with_diag_result Tautfuzz.print_list Tautfuzz.check_tautology)
      Tautfuzz.gen_list
      (fun es -> Result.is_ok (Tautfuzz.check_tautology es))
  | Bddops ->
    QCheck2.Test.make ~count ~name
      ~print:(with_diag_result Tautfuzz.print_pair Tautfuzz.check_ops)
      Tautfuzz.gen_pair
      (fun p -> Result.is_ok (Tautfuzz.check_ops p))
  (* The worker pool's rules under seeded schedules on a simulated
     clock: no domain, no BDD. *)
  | Srv ->
    QCheck2.Test.make ~count ~name
      ~print:(with_diag_result Srvfuzz.print Srvfuzz.check)
      Srvfuzz.gen
      (fun c -> Result.is_ok (Srvfuzz.check c))

let run_batch target ~seed ~count =
  let entry = { Corpus.target = target_name target; seed; count } in
  let rand = Random.State.make [| seed |] in
  match QCheck2.Test.check_exn ~rand (test_of_target target ~count) with
  | () -> Ok ()
  | exception QCheck2.Test.Test_fail (_, ces) ->
    Error { entry; counterexamples = ces }
  | exception QCheck2.Test.Test_error (_, ce, e, _) ->
    Error
      { entry;
        counterexamples = [ ce ^ " raised " ^ Printexc.to_string e ] }

let run_entry (e : Corpus.entry) =
  match target_of_string e.Corpus.target with
  | Some t -> run_batch t ~seed:e.Corpus.seed ~count:e.Corpus.count
  | None ->
    Error
      { entry = e;
        counterexamples = [ "unknown fuzz target " ^ e.Corpus.target ] }

let run_corpus ?(log = ignore) entries =
  List.filter_map
    (fun e ->
      log (Printf.sprintf "corpus %s" (Corpus.line e));
      match run_entry e with Ok () -> None | Error f -> Some f)
    entries

(* Per-batch seed derivation: deterministic in (root seed, batch index),
   decorrelated enough that adjacent batches do not share prefixes.  The
   derived seed is what gets printed and replayed, so the scheme only
   needs to be reproducible, not clever. *)
let derive_seed root i = ((root * 1_000_003) + (i * 8_191) + i) land 0x3FFFFFFF

type summary = { batches : int; cases : int; failures : failure list }

let run_timed ?(targets = all_targets) ?(log = ignore) ~minutes ~seed ~batch ()
    =
  if targets = [] then invalid_arg "run_timed: no targets";
  let deadline = Mc.Monotonic.now () +. (minutes *. 60.) in
  let failures = ref [] and batches = ref 0 and cases = ref 0 in
  let i = ref 0 in
  while Mc.Monotonic.now () < deadline do
    let target = List.nth targets (!i mod List.length targets) in
    let bseed = derive_seed seed !i in
    log
      (Printf.sprintf "batch %d: %s %d %d" !i (target_name target) bseed batch);
    (match run_batch target ~seed:bseed ~count:batch with
    | Ok () -> ()
    | Error f ->
      log (pp_failure f);
      failures := f :: !failures);
    incr i;
    incr batches;
    cases := !cases + batch
  done;
  { batches = !batches; cases = !cases; failures = List.rev !failures }
