(* The [icv] command line, run as a subprocess: flags must reach the run
   they configure. *)

(* The test runs from the build tree, next to [bin/]. *)
let icv =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "icv.exe" ]

(* Run [icv] with [args]; its standard output and exit code. *)
let run args =
  let ic = Unix.open_process_args_in icv (Array.of_list ("icv" :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (out, code)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "icv was killed"

(* Run [icv] with [args]; its standard error and exit code. *)
let run_err args =
  let out, inp, err =
    Unix.open_process_args_full icv (Array.of_list ("icv" :: args))
      (Unix.environment ())
  in
  close_out inp;
  ignore (In_channel.input_all out);
  let msg = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> (msg, code)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "icv was killed"

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let fifo_xici = [ "--model"; "fifo"; "--depth"; "4"; "--method"; "xici" ]

(* A plain (non-resilient) run honours --max-created-nodes: the model
   proves with no budget and is cut off under a tiny one. *)
let test_max_created_nodes () =
  let out, code = run fifo_xici in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "proves without a budget" true
    (contains ~sub:"proved" out);
  let out, code = run (fifo_xici @ [ "--max-created-nodes"; "100" ]) in
  Alcotest.(check int) "exit code under a budget" 0 code;
  Alcotest.(check bool)
    ("exceeded under a 100-node budget:\n" ^ out)
    true
    (contains ~sub:"EXCEEDED: exceeded 100 BDD nodes" out)

(* A size flag the chosen family does not read is refused with exit 2,
   not silently ignored; one it reads still configures the run. *)
let test_unread_flag () =
  let out, code = run [ "--model"; "abp"; "--depth"; "8" ] in
  Alcotest.(check int) "abp does not read --depth" 2 code;
  Alcotest.(check bool) "no verdict printed" false (contains ~sub:"proved" out);
  let out, code = run [ "--model"; "filter"; "--depth"; "8" ] in
  Alcotest.(check int) "filter reads --depth" 0 code;
  Alcotest.(check bool) ("filter-8 proves:\n" ^ out) true
    (contains ~sub:"avg-filter(depth=8" out && contains ~sub:"proved" out)

(* The filter needs a power-of-two depth: any other, the default 5
   included, is a one-line user error, not an internal one. *)
let test_filter_depth () =
  List.iter
    (fun args ->
      let msg, code = run_err ("--model" :: "filter" :: args) in
      let what = String.concat " " ("filter" :: args) in
      Alcotest.(check int) (what ^ " exit code") 2 code;
      Alcotest.(check bool)
        (what ^ " names the rule in one line:\n" ^ msg)
        true
        (contains ~sub:"icv: " msg
        && contains ~sub:"power of two" msg
        && String.index_opt (String.trim msg) '\n' = None))
    [ []; [ "--depth"; "6" ] ]

let () =
  Alcotest.run "cli"
    [
      ( "icv",
        [
          Alcotest.test_case "--max-created-nodes outside the ladder" `Quick
            test_max_created_nodes;
          Alcotest.test_case "a flag the model does not read" `Quick
            test_unread_flag;
          Alcotest.test_case "a filter depth that is not a power of two"
            `Quick test_filter_depth;
        ] );
    ]
