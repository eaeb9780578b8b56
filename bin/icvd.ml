(* icvd: resident verification daemon.

   Server mode (default): serve newline-JSON jobs over a Unix-domain
   socket (--socket) and/or stdin (--stdio), on a supervised pool of
   worker domains.  See Srv.Daemon for the drain/overload contract.

   Client mode (--connect SOCK): submit job lines from a file or
   stdin to a running daemon, print every event received, and exit
   once all submitted jobs have resolved -- the shape the CI smoke
   script and the throughput bench both use. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* --- client mode ----------------------------------------------------- *)

let read_job_lines = function
  | None ->
    let rec go acc =
      match input_line stdin with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  | Some file ->
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

let submit_id line =
  match Obs.Json.of_string line with
  | exception Obs.Json.Parse_error _ -> None
  | json -> (
    match Option.bind (Obs.Json.member "type" json) Obs.Json.to_str with
    | Some t when t <> "submit" -> None
    | _ -> Option.bind (Obs.Json.member "id" json) Obs.Json.to_str)

let run_client socket jobs_file timeout =
  let lines =
    List.filter (fun l -> String.trim l <> "") (read_job_lines jobs_file)
  in
  let pending = Hashtbl.create 16 in
  List.iter
    (fun l ->
      match submit_id l with
      | Some id -> Hashtbl.replace pending id ()
      | None -> ())
    lines;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let out = Unix.out_channel_of_descr fd in
  List.iter
    (fun l ->
      output_string out l;
      output_char out '\n')
    lines;
  flush out;
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let handle_event line =
    print_endline line;
    match Obs.Json.of_string line with
    | exception Obs.Json.Parse_error _ -> ()
    | json -> (
      match Option.bind (Obs.Json.member "type" json) Obs.Json.to_str with
      | Some ("result" | "rejected") -> (
        match Option.bind (Obs.Json.member "id" json) Obs.Json.to_str with
        | Some id -> Hashtbl.remove pending id
        | None -> ())
      | _ -> ())
  in
  let consume () =
    let data = Buffer.contents buf in
    Buffer.clear buf;
    let parts = String.split_on_char '\n' data in
    let rec go = function
      | [] -> ()
      | [ tail ] -> Buffer.add_string buf tail
      | line :: rest ->
        handle_event line;
        go rest
    in
    go parts
  in
  let rec loop () =
    if Hashtbl.length pending = 0 then 0
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then begin
        Format.eprintf "icvd: timed out with %d jobs unresolved@."
          (Hashtbl.length pending);
        1
      end
      else begin
        let ready, _, _ =
          match Unix.select [ fd ] [] [] (Float.min remaining 1.0) with
          | r -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        match ready with
        | [] -> loop ()
        | _ -> (
          match Unix.read fd bytes 0 (Bytes.length bytes) with
          | 0 ->
            if Hashtbl.length pending > 0 then begin
              Format.eprintf
                "icvd: daemon closed the connection with %d jobs unresolved@."
                (Hashtbl.length pending);
              1
            end
            else 0
          | n ->
            Buffer.add_subbytes buf bytes 0 n;
            consume ();
            loop ())
      end
    end
  in
  let rc = loop () in
  (try Unix.close fd with _ -> ());
  exit rc

(* --- introspection client --------------------------------------------- *)

(* One-shot or streaming query against a running daemon: stats (JSON or
   Prometheus text), health, ping, or a metrics watch stream.  The prom
   format unwraps the exposition text from its JSON envelope so the
   output is directly scrapeable:
     icvd --connect SOCK --client stats --format prom  *)
let run_query socket cmd format interval timeout =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let out = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let req =
    match cmd with
    | `Stats when format = `Prom -> {|{"type":"stats","format":"prom"}|}
    | `Stats -> {|{"type":"stats"}|}
    | `Health -> {|{"type":"health"}|}
    | `Ping -> {|{"type":"ping"}|}
    | `Watch -> Printf.sprintf {|{"type":"watch","interval_s":%g}|} interval
  in
  output_string out (req ^ "\n");
  flush out;
  let print_event line =
    match (cmd, format) with
    | `Stats, `Prom -> (
      match Obs.Json.of_string line with
      | exception Obs.Json.Parse_error _ -> print_endline line
      | json -> (
        match Option.bind (Obs.Json.member "prom" json) Obs.Json.to_str with
        | Some text -> print_string text
        | None -> print_endline line))
    | _ -> print_endline line
  in
  let rc =
    match cmd with
    | `Watch ->
      (* Stream frames until the daemon closes or the timeout ends the
         session; each frame is one JSON line on stdout. *)
      let deadline = Unix.gettimeofday () +. timeout in
      let rec go () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then 0
        else
          match Unix.select [ fd ] [] [] (Float.min remaining 1.0) with
          | [], _, _ -> go ()
          | _ -> (
            match input_line ic with
            | line ->
              print_event line;
              flush stdout;
              go ()
            | exception End_of_file -> 0)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()
    | _ -> (
      match input_line ic with
      | line ->
        print_event line;
        0
      | exception End_of_file ->
        Format.eprintf "icvd: daemon closed the connection without replying@.";
        1)
  in
  (try Unix.close fd with _ -> ());
  exit rc

(* --- entry point ------------------------------------------------------ *)

let run connect socket stdio workers queue_capacity checkpoint_dir trace_dir
    deadline hang_timeout max_total_live max_attempts portfolio_domains
    jobs_file client_timeout client_cmd format interval verbose =
  setup_logs verbose;
  match (connect, client_cmd) with
  | Some sock, Some cmd -> run_query sock cmd format interval client_timeout
  | None, Some _ ->
    Format.eprintf "icvd: --client requires --connect SOCK@.";
    exit 2
  | Some sock, None -> run_client sock jobs_file client_timeout
  | None, None ->
    if socket = None && not stdio then begin
      Format.eprintf "icvd: nothing to serve; pass --socket PATH or --stdio@.";
      exit 2
    end;
    let cfg =
      {
        Srv.Daemon.socket_path = socket;
        stdio;
        workers;
        queue_capacity;
        checkpoint_dir;
        trace_dir;
        default_deadline_s = deadline;
        hang_timeout_s = hang_timeout;
        max_total_live;
        max_attempts;
        portfolio_domains;
      }
    in
    (try Srv.Daemon.run cfg with
    | Unix.Unix_error (e, fn, arg) ->
      Format.eprintf "icvd: %s(%s): %s@." fn arg (Unix.error_message e);
      exit 2
    | Sys_error msg ->
      Format.eprintf "icvd: %s@." msg;
      exit 2);
    exit 0

let () =
  let connect =
    Arg.(
      value & opt (some string) None
      & info [ "connect" ] ~docv:"SOCK"
          ~doc:
            "Client mode: submit job lines (from --jobs or stdin) to the \
             daemon at $(docv), print every event, exit when all submitted \
             jobs have resolved.")
  in
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen for clients on a Unix-domain socket at $(docv).")
  in
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve stdin/stdout as a client: read job lines from stdin, \
             write events to stdout, drain and exit on EOF.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Worker domains.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 16
      & info [ "queue-capacity" ]
          ~doc:"Admission queue bound; submissions beyond it are rejected.")
  in
  let checkpoint_dir =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Write per-job XICI checkpoints under $(docv) so retried jobs \
             resume instead of restarting.")
  in
  let trace_dir =
    Arg.(
      value & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Write per-job span-tree JSONL files for jobs submitted with \
             \"trace\": true under $(docv) (default: the checkpoint dir, \
             else the system temp dir).  Render one with icv explain.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-job deadline for jobs that do not set one.")
  in
  let hang_timeout =
    Arg.(
      value & opt float 10.0
      & info [ "hang-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Heartbeat silence after which a busy worker is cancelled; \
             twice this and its slot is abandoned and replaced.")
  in
  let max_total_live =
    Arg.(
      value & opt (some int) None
      & info [ "max-total-live" ] ~docv:"NODES"
          ~doc:
            "Soft cap on live BDD nodes across all workers; approaching it \
             degrades cache budgets and portfolio width, reaching it \
             rejects new work.")
  in
  let max_attempts =
    Arg.(
      value & opt int 2
      & info [ "max-attempts" ]
          ~doc:"Total attempts per job (crash/hang retries included).")
  in
  let portfolio_domains =
    Arg.(
      value & opt int 2
      & info [ "portfolio-domains" ]
          ~doc:"Domains for portfolio-method jobs.")
  in
  let jobs_file =
    Arg.(
      value & opt (some string) None
      & info [ "jobs" ] ~docv:"FILE"
          ~doc:"Client mode: read job lines from $(docv) instead of stdin.")
  in
  let client_timeout =
    Arg.(
      value & opt float 120.0
      & info [ "client-timeout" ] ~docv:"SECONDS"
          ~doc:"Client mode: give up if jobs are still unresolved.")
  in
  let client_cmd =
    let kinds =
      [
        ("stats", `Stats); ("health", `Health); ("watch", `Watch);
        ("ping", `Ping);
      ]
    in
    Arg.(
      value & opt (some (enum kinds)) None
      & info [ "client" ] ~docv:"CMD"
          ~doc:
            "With --connect: query the daemon instead of submitting jobs. \
             $(docv) is one of stats (registry snapshot; see --format), \
             health (queue depth, inflight, per-worker liveness, memory \
             pressure, uptime), watch (stream metric deltas until \
             --client-timeout), or ping.")
  in
  let format =
    Arg.(
      value & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format for --client stats: json (one event line) or \
             prom (Prometheus text exposition, directly scrapeable).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Frame interval for --client watch.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "icvd" ~doc:"Resident verification daemon")
      Term.(
        const run $ connect $ socket $ stdio $ workers $ queue_capacity
        $ checkpoint_dir $ trace_dir $ deadline $ hang_timeout
        $ max_total_live $ max_attempts $ portfolio_domains $ jobs_file
        $ client_timeout $ client_cmd $ format $ interval $ verbose)
  in
  exit (Cmd.eval cmd)
