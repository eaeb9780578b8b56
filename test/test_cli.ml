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

let () =
  Alcotest.run "cli"
    [
      ( "icv",
        [
          Alcotest.test_case "--max-created-nodes outside the ladder" `Quick
            test_max_created_nodes;
        ] );
    ]
