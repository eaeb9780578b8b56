(* fuzz: the differential-fuzzing harness.

   Three modes, in priority order:

     fuzz --replay TARGET:SEED[:COUNT]   re-run one batch
     fuzz --corpus FILE                  re-run every batch in a corpus file
     fuzz --minutes N [--seed S]         timed round-robin fuzzing

   Every failure is printed as a `FAIL <target> <seed> <count>` corpus
   line followed by the shrunk counterexamples, and the same report is
   written to --out so CI can upload it as an artifact.  Exit status is
   1 when any batch failed, 2 on usage errors. *)

open Cmdliner

let parse_targets spec =
  List.map
    (fun s ->
      match Fuzz.Driver.target_of_string (String.trim s) with
      | Some t -> t
      | None -> failwith (Printf.sprintf "unknown fuzz target %S" s))
    (String.split_on_char ',' spec)

let parse_replay spec =
  let bad () =
    failwith (Printf.sprintf "bad --replay spec %S (TARGET:SEED[:COUNT])" spec)
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> bad () in
  match String.split_on_char ':' spec with
  | [ target; seed ] | [ target; seed; "" ] ->
    { Fuzz.Corpus.target; seed = int seed; count = 1 }
  | [ target; seed; count ] ->
    { Fuzz.Corpus.target; seed = int seed; count = int count }
  | _ -> bad ()

let write_report path failures =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun f -> output_string oc (Fuzz.Driver.pp_failure f ^ "\n"))
        failures)

(* Replay batches across worker domains.  Every batch builds its own
   managers and models from its seed, so batches are shared-nothing;
   the only cross-domain state is the atomic work index and the
   (domain-safe) Obs registry the instruments report into. *)
let run_parallel ~domains ~log entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let next = Atomic.make 0 in
  let failures : Fuzz.Driver.failure option array = Array.make n None in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match Fuzz.Driver.run_entry arr.(i) with
        | Ok () -> ()
        | Error f -> failures.(i) <- Some f);
        loop ()
      end
    in
    loop ()
  in
  log
    (Printf.sprintf "replaying %d batch(es) on %d domains" n
       (min domains n));
  let spawned =
    List.init (min domains n) (fun _ ->
        Domain.spawn (fun () -> try Ok (worker ()) with e -> Error e))
  in
  let outcomes = List.map Domain.join spawned in
  List.iter (function Error e -> raise e | Ok () -> ()) outcomes;
  List.filter_map Fun.id (Array.to_list failures)

let finish ~out failures =
  if failures = [] then begin
    print_endline "no disagreements";
    0
  end
  else begin
    List.iter (fun f -> print_endline (Fuzz.Driver.pp_failure f)) failures;
    write_report out failures;
    Printf.printf "%d failing batch(es); report written to %s\n"
      (List.length failures) out;
    1
  end

let run_checked minutes seed batch targets_spec corpus replay domains out
    quiet =
  let log = if quiet then ignore else print_endline in
  match (replay, corpus) with
  | Some spec, _ ->
    let entry = parse_replay spec in
    log (Printf.sprintf "replaying %s" (Fuzz.Corpus.line entry));
    (* One batch runs on one domain whatever --domains says. *)
    finish ~out
      (match Fuzz.Driver.run_entry entry with Ok () -> [] | Error f -> [ f ])
  | None, Some path ->
    let entries = Fuzz.Corpus.load path in
    log (Printf.sprintf "replaying %d corpus batch(es) from %s"
           (List.length entries) path);
    let failures =
      if domains >= 2 then run_parallel ~domains ~log entries
      else Fuzz.Driver.run_corpus ~log entries
    in
    finish ~out failures
  | None, None ->
    let targets = parse_targets targets_spec in
    let seed =
      match seed with
      | Some s -> s
      | None -> int_of_float (Unix.time ()) land 0x3FFFFFFF
    in
    (* Always print the root seed: it is the whole run's replay key. *)
    Printf.printf "fuzzing %s for %.3g minute(s), root seed %d, batch %d\n%!"
      targets_spec minutes seed batch;
    let summary = Fuzz.Driver.run_timed ~targets ~log ~minutes ~seed ~batch () in
    Printf.printf
      "ran %d batch(es), %d case(s), %d method configs per diff case\n"
      summary.Fuzz.Driver.batches summary.Fuzz.Driver.cases
      Fuzz.Oracle.configs_per_spec;
    finish ~out summary.Fuzz.Driver.failures

let run minutes seed batch targets corpus replay domains out quiet =
  try run_checked minutes seed batch targets corpus replay domains out quiet
  with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
    Format.eprintf "fuzz: %s@." msg;
    2

let () =
  let minutes =
    Arg.(
      value & opt float 1.0
      & info [ "minutes" ] ~doc:"Wall-clock fuzzing budget in minutes.")
  in
  let seed =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Root seed; per-batch seeds derive from it deterministically. \
             Defaults to the current time, printed for replay.")
  in
  let batch =
    Arg.(
      value & opt int 5
      & info [ "batch" ] ~doc:"QCheck2 cases per batch.")
  in
  let targets =
    Arg.(
      value & opt string "diff,metamorph,taut,bddops,batch,srv"
      & info [ "targets" ] ~docv:"T1,T2,..."
          ~doc:
            "Comma-separated targets: diff, metamorph, taut, bddops, \
             tinycache, batch, srv.")
  in
  let corpus =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Replay every batch in a seed-corpus file instead of fuzzing.")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"TARGET:SEED[:COUNT]"
          ~doc:"Replay a single batch (as printed in a FAIL line).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Replay corpus batches on $(docv) worker domains (corpus mode; \
             batches are shared-nothing, and a --replay is one batch).")
  in
  let out =
    Arg.(
      value & opt string "fuzz-failures.txt"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Failure report for CI artifact upload.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-batch progress.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:"Differential fuzzing of the verification methods")
      Term.(
        const run $ minutes $ seed $ batch $ targets $ corpus $ replay
        $ domains $ out $ quiet)
  in
  exit (Cmd.eval' cmd)
