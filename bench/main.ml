(* Benchmark harness: regenerates every data artifact of the paper
   (Tables 1, 2 and 3 -- Figures 1-3 are an algorithm listing and two
   block diagrams, so the tables are the complete set), plus ablation
   benchmarks for the design choices called out in DESIGN.md, the
   batch amortisation gate and the daemon latency bench.

   Node counts are machine-independent and comparable with the paper;
   wall times are this machine's.  Each row prints the paper's reported
   numbers alongside ours ("paper: time/iter/nodes") so the shape
   comparison is immediate.  Resource budgets reproduce the paper's
   "Exceeded 60MB" (live-node budget: 60MB at roughly 20 bytes/node in
   the 1994 package is about 3M nodes) and "Exceeded 40 minutes" rows. *)

(* The paper's 60MB at David Long's ~20 bytes/node is ~3M nodes; our
   OCaml nodes cost ~5x more memory but the machine has plenty, so the
   default budget errs high to let the paper's *successful* slow rows
   (network-7 forward took 11:53 in 1994) complete, while still
   cutting off the rows the paper itself reports as blowing up. *)
let default_max_live = 12_000_000
let default_max_seconds = 600.0

type budgets = { max_live : int; max_seconds : float; max_iterations : int }

let limits_of budgets man =
  Mc.Limits.start ~max_live_nodes:budgets.max_live
    ~max_seconds:budgets.max_seconds ~max_iterations:budgets.max_iterations
    man

(* Machine-readable artifacts (--json): each table accumulates one JSON
   object per row -- the report fields plus a full telemetry snapshot
   (registry + per-iteration log), reset before every row so snapshots
   are per-row, not cumulative across the table. *)
let json_mode = ref false
let json_rows : Obs.Json.t list ref = ref []

let with_json_artifact file f =
  if not !json_mode then f ()
  else begin
    json_rows := [];
    Fun.protect
      ~finally:(fun () ->
        let oc = open_out file in
        output_string oc
          (Obs.Json.to_string (Obs.Json.List (List.rev !json_rows)));
        output_char oc '\n';
        close_out oc;
        Format.printf "  wrote %s (%d rows)@.%!" file
          (List.length !json_rows))
      f
  end

(* A table row: run one method on one model and print it next to the
   paper's reported numbers. *)
let run_row ?(label = "") budgets ?xici_cfg ?termination meth model ~paper =
  if !json_mode then Mc.Telemetry.reset ();
  let alloc0 = Gc.allocated_bytes () in
  let r =
    (Mc.Job.attempt ~limits:(limits_of budgets) ?xici_cfg ?termination
       (Mc.Job.Method meth) model)
      .Mc.Job.report
  in
  let allocated = Gc.allocated_bytes () -. alloc0 in
  Format.printf "  %-10s %a   alloc=%.1fMB   [paper: %s]@.%!" label
    Mc.Report.pp_row r
    (allocated /. 1_048_576.)
    paper;
  (if !json_mode then
     let row =
       match Mc.Report.to_json r with
       | Obs.Json.Obj fields ->
         Obs.Json.Obj
           (fields
           @ [
               ("label", Obs.Json.String label);
               ("allocated_bytes", Obs.Json.Float allocated);
               ("telemetry", Mc.Telemetry.snapshot_json (Mc.Model.man model));
             ])
       | other -> other
     in
     json_rows := row :: !json_rows);
  r

let head fmt = Format.printf (fmt ^^ "@.")

let table_header () =
  Format.printf "  %-10s %s   [paper: time iter bdd-nodes]@." "" Mc.Report.header

(* ------------------------------------------------------------------ *)
(* Tables 1-3: the paper's rows as data                                 *)
(* ------------------------------------------------------------------ *)

let fifo_model depth () =
  Models.Typed_fifo.make { Models.Typed_fifo.default with depth }

let network_model procs () =
  Models.Network.make { Models.Network.procs; bug = false }

let filter_model ?(assisted = false) depth () =
  Models.Avg_filter.make { Models.Avg_filter.default with depth; assisted }

let cpu_model ?(assisted = false) regs width () =
  Models.Pipeline_cpu.make
    { Models.Pipeline_cpu.regs; width; assisted; bug = false }

(* One row of Tables 1-3: [section] is the heading printed when it
   changes ("" for none), [paper] the paper's "time iter bdd-nodes". *)
type paper_row = {
  table : int;
  section : string;
  label : string;
  model : unit -> Mc.Model.t;
  meth : Mc.Runner.meth;
  paper : string;
}

let table_titles =
  [
    (1, "=== Table 1: Performance vs. Previous Methods ===");
    (2, "=== Table 2: Moving Average Filter without Assisting Invariants ===");
    (3, "=== Table 3: Pipelined Processor ===");
  ]

let paper_rows =
  let open Mc.Runner in
  (* The methods run on one model, each with its paper string. *)
  let rows table section label model cases =
    List.map
      (fun (meth, paper) -> { table; section; label; model; meth; paper })
      cases
  in
  let fifo = rows 1 "-- Table 1a: 8-bit wide typed FIFO buffer --" in
  let network =
    rows 1 "-- Table 1b: processors sending messages through network --"
  in
  let filter_inv =
    rows 1 "-- Table 1c: 8-bit moving average filter (assisting invariants) --"
  in
  let filter depth =
    rows 2 "" (Printf.sprintf "depth=%d" depth) (filter_model depth)
  in
  let cpu regs width =
    rows 3 "" (Printf.sprintf "%dR,%dB" regs width) (cpu_model regs width)
  in
  List.concat
    [
      fifo "depth=5" (fifo_model 5)
        [ (Forward, "0:03 6 543"); (Backward, "0:01 1 543");
          (Ici, "0:00 1 41=(5x9)"); (Xici, "0:00 1 41=(5x9)") ];
      fifo "depth=10" (fifo_model 10)
        [ (Forward, "5:37 11 32767"); (Backward, "1:56 1 32767");
          (Ici, "0:03 1 81=(10x9)"); (Xici, "0:03 1 81=(10x9)") ];
      network "procs=4" (network_model 4)
        [ (Forward, "0:04 9 1198"); (Backward, "0:02 1 994");
          (Fd, "0:13 9 41"); (Ici, "0:02 1 245=(4x62)");
          (Xici, "0:02 1 245=(4x62)") ];
      network "procs=7" (network_model 7)
        [ (Forward, "11:53 15 88647"); (Backward, "2:15 1 61861");
          (Fd, "3:20 15 169"); (Ici, "0:14 1 1086=(7x156)");
          (Xici, "0:22 1 1086=(7x156)") ];
      filter_inv "depth=4" (filter_model ~assisted:true 4)
        [ (Forward, "0:54 3 11267"); (Backward, "0:04 1 490");
          (Ici, "0:03 1 146=(102,45)"); (Xici, "0:03 1 146=(102,45)") ];
      filter_inv "depth=8" (filter_model ~assisted:true 8)
        [ (Forward, "exceeded 60MB"); (Backward, "exceeded 40min");
          (Ici, "0:25 1 638=(390,169,81)"); (Xici, "0:28 1 638=(390,169,81)") ];
      filter_inv "depth=16" (filter_model ~assisted:true 16)
        [ (Ici, "3:26 1 2558=(1501,629,290,141)");
          (Xici, "3:41 1 2558=(1501,629,290,141)") ];
      filter 4
        [ (Forward, "0:52 3 11267"); (Backward, "0:04 1 490");
          (Ici, "0:04 1 490"); (Xici, "0:03 2 146=(45,102)") ];
      filter 8
        [ (Forward, "exceeded 60MB"); (Backward, "exceeded 40min");
          (Ici, "exceeded 40min"); (Xici, "0:31 3 638=(61,169,390)") ];
      filter 16 [ (Xici, "5:45 4 2558=(141,290,629,1501)") ];
      cpu 2 1
        [ (Forward, "5:11 4 284745"); (Backward, "0:27 4 10745");
          (Ici, "0:27 4 10745"); (Xici, "0:31 4 10745") ];
      cpu 2 2
        [ (Forward, "exceeded 60MB"); (Backward, "exceeded 60MB");
          (Ici, "exceeded 60MB"); (Xici, "1:48 4 8485=(45,441,1345,6657)") ];
      cpu 2 3 [ (Xici, "13:35 4 57510=(189,2503,9591,45230)") ];
      cpu 4 1 [ (Xici, "7:06 4 12947=(45,849,1290,10767)") ];
      rows 3
        "-- Table 3 footnote: hand-constructed assisting invariants, 2R 3B --"
        "2R,3B+inv"
        (cpu_model ~assisted:true 2 3)
        [ (Ici, "6:19 2 6602"); (Xici, "6:19 2 6602") ];
    ]

(* Run one table's rows, printing each section heading and the column
   header where the section changes. *)
let paper_table budgets table =
  head "%s" (List.assoc table table_titles);
  let section = ref None in
  List.iter
    (fun row ->
      if row.table = table then begin
        if !section <> Some row.section then begin
          section := Some row.section;
          if row.section <> "" then head "%s" row.section;
          table_header ()
        end;
        let model = row.model () in
        ignore (run_row ~label:row.label budgets row.meth model ~paper:row.paper)
      end)
    paper_rows

(* ------------------------------------------------------------------ *)
(* Ablations (design choices flagged in DESIGN.md / Section V)         *)
(* ------------------------------------------------------------------ *)

let ablation_grow budgets =
  head "=== Ablation: GrowThreshold sweep (Section V, para 1) ===";
  table_header ();
  List.iter
    (fun threshold ->
      let cfg = { Ici.Policy.default with grow_threshold = threshold } in
      List.iter
        (fun (name, model) ->
          ignore
            (run_row
               ~label:(Printf.sprintf "thr=%.2f" threshold)
               budgets ~xici_cfg:cfg Mc.Runner.Xici (model ())
               ~paper:(Printf.sprintf "on %s" name)))
        [
          ("fifo-10", fifo_model 10);
          ("filter-8", filter_model 8);
        ])
    [ 1.0; 1.25; 1.5; 2.0; 4.0 ]

let ablation_cofactor budgets =
  head "=== Ablation: termination-test cofactor variable choice ===";
  List.iter
    (fun (name, var_choice) ->
      let stats = Ici.Tautology.fresh_stats () in
      let model = filter_model 8 () in
      let r =
        Mc.Xici.run ~limits:(limits_of budgets) ~var_choice
          ~tautology_stats:stats model
      in
      Format.printf "  %-12s %a  expansions=%d simplifications=%d@.%!" name
        Mc.Report.pp_row r stats.Ici.Tautology.expansions
        stats.Ici.Tautology.simplifications)
    [
      ("first-top", Ici.Tautology.First_top);
      ("lowest", Ici.Tautology.Lowest_level);
      ("most-common", Ici.Tautology.Most_common);
    ]

let ablation_cover budgets =
  head "=== Ablation: greedy (Fig. 1) vs optimal pairwise cover (Thm 2) ===";
  table_header ();
  List.iter
    (fun (name, evaluation) ->
      let cfg = { Ici.Policy.default with evaluation } in
      List.iter
        (fun (mname, model) ->
          ignore
            (run_row ~label:name budgets ~xici_cfg:cfg Mc.Runner.Xici
               (model ())
               ~paper:(Printf.sprintf "on %s" mname)))
        [
          ("network-4", network_model 4);
          ("filter-8", filter_model 8);
        ])
    [
      ("greedy", Ici.Policy.Greedy);
      ("opt-cover", Ici.Policy.Optimal_cover);
      ("no-eval", Ici.Policy.No_evaluation);
    ]

let ablation_simplify budgets =
  head "=== Ablation: Restrict vs Constrain vs no simplification ===";
  table_header ();
  List.iter
    (fun (name, simplifier) ->
      let cfg = { Ici.Policy.default with simplifier } in
      List.iter
        (fun (mname, model) ->
          ignore
            (run_row ~label:name budgets ~xici_cfg:cfg Mc.Runner.Xici
               (model ())
               ~paper:(Printf.sprintf "on %s" mname)))
        [
          ("fifo-10", fifo_model 10);
          ("filter-8", filter_model 8);
        ])
    [
      ("restrict", Ici.Policy.Restrict);
      ("constrain", Ici.Policy.Constrain);
      ("none", Ici.Policy.No_simplify);
    ]

let ablation_termination budgets =
  head "=== Ablation: exact vs pointwise termination test ===";
  table_header ();
  List.iter
    (fun (name, termination) ->
      List.iter
        (fun (mname, model) ->
          ignore
            (run_row ~label:name budgets ~termination Mc.Runner.Xici
               (model ())
               ~paper:(Printf.sprintf "on %s" mname)))
        [
          ("filter-8", filter_model 8);
          ("cpu-2R2B", cpu_model 2 2);
        ])
    [
      ("exact-eq", `Exact_equal);
      ("exact-imp", `Exact_implication);
      ("pointwise", `Pointwise);
    ]

let ablation_image budgets =
  head "=== Ablation: BackImage via composition vs relational product ===";
  List.iter
    (fun (name, via) ->
      List.iter
        (fun (mname, model) ->
          let r =
            Mc.Backward.run ~limits:(limits_of budgets) ~image_via:via
              (model ())
          in
          Format.printf "  %-10s %a   [%s]@.%!" name Mc.Report.pp_row r mname)
        [
          ("network-4", network_model 4);
          ("filter-8a", filter_model ~assisted:true 8);
        ])
    [ ("auto", `Auto); ("compose", `Compose); ("relational", `Relational) ]

let ablation_pairbound budgets =
  head
    "=== Ablation: size-bounded pairwise conjunctions (Section V, future \
     work) ===";
  table_header ();
  List.iter
    (fun (name, pair_step_factor) ->
      let cfg = { Ici.Policy.default with pair_step_factor } in
      ignore
        (run_row ~label:name budgets ~xici_cfg:cfg Mc.Runner.Xici
           (filter_model 8 ()) ~paper:"on filter-8"))
    [
      ("unbounded", None);
      ("16x", Some 16);
      ("64x", Some 64);
      ("256x", Some 256);
    ]

(* Exponential worst case of the termination test (the paper concedes
   the test is exponential in theory).  The members are the three
   "sum of bits = r (mod 3)" counting functions over n variables: a
   tautology with no pairwise shortcut.  Without memoisation the
   Shannon expansion explores ~2^n paths; the subproblem memo (this
   library's improvement) collapses the symmetric structure. *)
let ablation_worstcase _budgets =
  head "=== Ablation: termination-test worst case (mod-3 counters) ===";
  let mod3_members man n =
    let vars = List.init n (fun _ -> Bdd.new_var man) in
    let start = [| Bdd.tru man; Bdd.fls man; Bdd.fls man |] in
    let counters =
      List.fold_left
        (fun acc lvl ->
          let x = Bdd.var man lvl in
          Array.init 3 (fun r ->
              Bdd.ite man x acc.((r + 2) mod 3) acc.(r)))
        start vars
    in
    Array.to_list counters
  in
  (* Crossing both ingredients: the Theorem-3 Restrict filter resolves
     this family without any expansion at all; with it disabled, the
     raw Shannon recursion is exponential unless the subproblem memo
     collapses the symmetric structure. *)
  List.iter
    (fun n ->
      List.iter
        (fun (label, simplify, memo) ->
          let man = Bdd.create () in
          let members = mod3_members man n in
          let stats = Ici.Tautology.fresh_stats () in
          let t0 = Unix.gettimeofday () in
          let verdict =
            try
              Bool.to_string
                (Ici.Tautology.check ~simplify ~memo ~fuel:2_000_000 ~stats
                   man members)
            with Ici.Tautology.Out_of_fuel -> "out-of-fuel"
          in
          Format.printf
            "  n=%-3d %-22s %-12s %8.2fs expansions=%-9d memo_hits=%d@.%!" n
            label verdict
            (Unix.gettimeofday () -. t0)
            stats.Ici.Tautology.expansions stats.Ici.Tautology.memo_hits)
        [ ("thm3+memo", true, true);
          ("thm3, no memo", true, false);
          ("no thm3, memo", false, true);
          ("no thm3, no memo", false, false) ])
    [ 8; 12; 16; 20 ]

(* The implicit-disjunction dual (this library's extension) on the
   tables' workloads, next to Fwd (same direction, monolithic set). *)
let ablation_idi budgets =
  head "=== Ablation: implicit-disjunction forward traversal (IDI) ===";
  table_header ();
  List.iter
    (fun (name, model) ->
      List.iter
        (fun meth ->
          ignore (run_row ~label:name budgets meth (model ()) ~paper:"-"))
        [ Mc.Runner.Forward; Mc.Runner.Idi ])
    [
      ("fifo-10", fifo_model 10);
      ("network-4", network_model 4);
      ("filter-4", filter_model 4);
    ]

(* Variable-order sensitivity: the FIFO's monolithic blowup (543 /
   32767 nodes) is an artifact of the interleaved bit-slice order the
   datapath needs.  The offline reorderer recovers the slot-major order
   and collapses the conjunction to linear size -- quantifying how much
   of Table 1a's gap is ordering and how much is intrinsic to keeping
   one BDD. *)
let ablation_reorder _budgets =
  head "=== Ablation: variable-order sensitivity of the FIFO conjunction ===";
  List.iter
    (fun depth ->
      let model = fifo_model depth () in
      let man = Mc.Model.man model in
      let g = Bdd.conj man (Mc.Model.property model) in
      let before = Bdd.size g in
      let t0 = Unix.gettimeofday () in
      let perm = Bdd.Reorder.sift man [ g ] in
      let dst = Bdd.create () in
      for _ = 1 to Bdd.num_vars man do
        ignore (Bdd.new_var dst)
      done;
      let after =
        match Bdd.Reorder.apply ~dst man [ g ] perm with
        | [ g' ] -> Bdd.size g'
        | _ -> -1
      in
      Format.printf
        "  depth=%-3d interleaved=%-6d reordered=%-6d (%.1fs search)@.%!"
        depth before after
        (Unix.gettimeofday () -. t0))
    [ 4; 5 ]

(* Batch verification: every conjunct of a family's property verified
   as its own property in one pooled Mc.Batch run (shared manager,
   proven invariants pooled) vs the n-fold sequential unrolling -- a
   fresh model and manager per property, exactly what n independent
   icv invocations would pay.  The per-family rows land in
   BENCH_batch.json under --json; the speedup column carries the
   amortisation claim, and bench_compare --require-speedup gates it. *)
let bench_batch budgets ~quick =
  head "=== Batch: multi-property run vs n sequential runs ===";
  let cases =
    [
      ("network-4", network_model 4);
      (if quick then ("fifo-5", fifo_model 5) else ("fifo-10", fifo_model 10));
      ( "abp-8",
        fun () -> Models.Abp.make { Models.Abp.width = 8; bug = false } );
    ]
    @ if quick then [] else [ ("cpu-2R1B", cpu_model 2 1) ]
  in
  (* Only a proved <-> violated flip is a soundness alarm; an Exceeded
     on one side is a budget artifact (the batch arm's traversal order
     differs, so a heavy property can blow a --quick budget the
     sequential arm squeaks under). *)
  let decided s =
    if s = "proved" then Some true
    else if String.length s >= 8 && String.sub s 0 8 = "violated" then
      Some false
    else None
  in
  let genuine_flip a b =
    match (decided a, decided b) with
    | Some x, Some y -> x <> y
    | None, _ | _, None -> false
  in
  List.iter
    (fun (name, make) ->
      let n = List.length (make ()).Mc.Model.good in
      (* Sequential arm: property i on a fresh manager. *)
      let seq_time = ref 0.0 in
      let seq_statuses =
        List.init n (fun i ->
            let m = make () in
            let props = Mc.Batch.of_goods m in
            let sub =
              Mc.Model.make ~assisting:m.Mc.Model.assisting
                ~name:m.Mc.Model.name ~space:m.Mc.Model.space
                ~trans:m.Mc.Model.trans ~init:m.Mc.Model.init
                ~good:(List.nth props i).Mc.Batch.goods ()
            in
            let t0 = Unix.gettimeofday () in
            let r =
              Mc.Runner.run ~limits:(limits_of budgets) Mc.Runner.Xici sub
            in
            seq_time := !seq_time +. (Unix.gettimeofday () -. t0);
            Mc.Report.status_string r)
      in
      let model = make () in
      let base_nodes = Bdd.created_nodes (Mc.Model.man model) in
      let res =
        Mc.Batch.run ~limits:(limits_of budgets) model
          (Mc.Batch.of_goods model)
      in
      let nodes = Bdd.created_nodes (Mc.Model.man model) - base_nodes in
      let batch_statuses =
        List.map
          (fun (it : Mc.Batch.item) ->
            Mc.Report.status_string it.Mc.Batch.report)
          res.Mc.Batch.items
      in
      (* The differential harness proves verdict equality on random
         specs; here it guards the benchmark itself against comparing
         apples to oranges. *)
      if List.exists2 genuine_flip batch_statuses seq_statuses then
        Format.printf "  %-10s WARNING: batch/sequential verdicts differ!@."
          name;
      let wall = res.Mc.Batch.wall_time_s in
      let speedup = if wall > 0.0 then !seq_time /. wall else 0.0 in
      let shared = res.Mc.Batch.stats.Mc.Batch.invariants_shared in
      let status =
        if List.for_all (( = ) "proved") batch_statuses then "proved"
        else "mixed"
      in
      Format.printf
        "  %-10s %d props   seq %6.2fs   batch %6.2fs (%.3fs/prop)   speedup \
         %.2fx   shared=%d@.%!"
        name n !seq_time wall
        (wall /. float_of_int (max 1 n))
        speedup shared;
      if !json_mode then
        json_rows :=
          Obs.Json.Obj
            [
              ("model", Obs.Json.String name);
              ("method", Obs.Json.String "batch:xici");
              ("label", Obs.Json.String "");
              ("status", Obs.Json.String status);
              ("properties", Obs.Json.Int n);
              ("nodes_created", Obs.Json.Int nodes);
              ("sequential_seconds", Obs.Json.Float !seq_time);
              ("wall_seconds", Obs.Json.Float wall);
              ( "amortised_per_property_seconds",
                Obs.Json.Float (wall /. float_of_int (max 1 n)) );
              ("speedup", Obs.Json.Float speedup);
              ("invariants_shared", Obs.Json.Int shared);
            ]
          :: !json_rows)
    cases

(* Daemon throughput: a resident icvd on a Unix socket under synthetic
   many-client load (each client is a domain with its own connection
   submitting a batch of small jobs), plus an overload row against a
   deliberately tiny daemon showing that excess submissions are
   rejected explicitly instead of queueing without bound.  Wall-clock
   jobs/sec; verdict work is the same fifo/filter jobs icv runs. *)
let bench_daemon _budgets ~quick =
  head "=== Daemon: throughput under many-client load ===";
  let dir = Filename.temp_file "icvd-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let with_daemon cfg f =
    let ready = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          Srv.Daemon.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
    in
    while not (Atomic.get ready) do
      Unix.sleepf 0.005
    done;
    Fun.protect
      ~finally:(fun () ->
        (match cfg.Srv.Daemon.socket_path with
        | Some sock -> (
          (* ask for a drain and wait for the loop to return *)
          try
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX sock);
            let line = Srv.Protocol.to_line (Obs.Json.Obj [ ("type", Obs.Json.String "shutdown") ]) in
            ignore (Unix.write fd (Bytes.of_string line) 0 (String.length line));
            Unix.close fd
          with Unix.Unix_error _ -> ())
        | None -> ());
        Domain.join d)
      f
  in
  (* One synthetic client: submit [lines], block until every submitted
     id is resolved (result or rejection), count both and collect the
     daemon-reported queue_s/e2e_s latencies off each result. *)
  let run_client sock lines =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    let pending = Hashtbl.create 64 in
    List.iter
      (fun l ->
        (match Obs.Json.member "id" (Obs.Json.of_string l) with
        | Some (Obs.Json.String id) -> Hashtbl.replace pending id ()
        | _ -> ());
        output_string oc l;
        output_char oc '\n')
      lines;
    flush oc;
    let resolved = ref 0 and rejected = ref 0 in
    let queue_s = ref [] and e2e_s = ref [] in
    (try
       while Hashtbl.length pending > 0 do
         let line = input_line ic in
         let json = Obs.Json.of_string line in
         let typ = Option.bind (Obs.Json.member "type" json) Obs.Json.to_str in
         let id = Option.bind (Obs.Json.member "id" json) Obs.Json.to_str in
         match (typ, id) with
         | Some "result", Some id ->
           incr resolved;
           (match Option.bind (Obs.Json.member "queue_s" json) Obs.Json.to_float
            with
           | Some q -> queue_s := q :: !queue_s
           | None -> ());
           (match Option.bind (Obs.Json.member "e2e_s" json) Obs.Json.to_float
            with
           | Some e -> e2e_s := e :: !e2e_s
           | None -> ());
           Hashtbl.remove pending id
         | Some "rejected", Some id ->
           incr rejected;
           Hashtbl.remove pending id
         | _ -> ()
       done
     with End_of_file -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (!resolved, !rejected, !queue_s, !e2e_s)
  in
  (* Nearest-rank percentile over exact samples (these are the raw
     per-result latencies, not the daemon's log2-bucketed histograms,
     so the bench rows carry full precision for regression gating). *)
  let percentile samples q =
    match List.sort compare samples with
    | [] -> 0.0
    | sorted ->
      let n = List.length sorted in
      let rank =
        int_of_float (ceil (q *. float_of_int n)) |> max 1 |> min n
      in
      List.nth sorted (rank - 1)
  in
  let latency_fields queue_s e2e_s =
    [
      ("queue_p50_s", Obs.Json.Float (percentile queue_s 0.50));
      ("queue_p99_s", Obs.Json.Float (percentile queue_s 0.99));
      ("e2e_p50_s", Obs.Json.Float (percentile e2e_s 0.50));
      ("e2e_p99_s", Obs.Json.Float (percentile e2e_s 0.99));
    ]
  in
  let job id family extra =
    Printf.sprintf "{\"id\":%S,\"model\":{\"family\":%S%s},\"method\":\"xici\"}"
      id family extra
  in
  (* Throughput row *)
  let sock = Filename.concat dir "icvd-bench.sock" in
  let clients = 4 in
  let workers = 2 in
  let per_client = if quick then 8 else 32 in
  let throughput_row =
    with_daemon
      {
        Srv.Daemon.default_config with
        socket_path = Some sock;
        workers;
        queue_capacity = 4096;
      }
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let doms =
          List.init clients (fun c ->
              Domain.spawn (fun () ->
                  let lines =
                    List.init per_client (fun j ->
                        let id = Printf.sprintf "c%d-j%d" c j in
                        if j mod 4 = 3 then
                          job id "filter" ",\"depth\":4"
                        else job id "fifo" "")
                  in
                  run_client sock lines))
        in
        let results = List.map Domain.join doms in
        let wall = Unix.gettimeofday () -. t0 in
        let resolved = List.fold_left (fun a (r, _, _, _) -> a + r) 0 results in
        let rejected = List.fold_left (fun a (_, r, _, _) -> a + r) 0 results in
        let queue_s = List.concat_map (fun (_, _, q, _) -> q) results in
        let e2e_s = List.concat_map (fun (_, _, _, e) -> e) results in
        let jps = if wall > 0.0 then float_of_int resolved /. wall else 0.0 in
        Format.printf
          "  %d clients x %d jobs on %d workers: %d resolved, %d rejected, \
           %.2fs wall, %.1f jobs/s@.  queue p50/p99 %.3fs/%.3fs, e2e p50/p99 \
           %.3fs/%.3fs@.%!"
          clients per_client workers resolved rejected wall jps
          (percentile queue_s 0.50) (percentile queue_s 0.99)
          (percentile e2e_s 0.50) (percentile e2e_s 0.99);
        Obs.Json.Obj
          ([
             ("scenario", Obs.Json.String "throughput");
             ("clients", Obs.Json.Int clients);
             ("jobs_per_client", Obs.Json.Int per_client);
             ("workers", Obs.Json.Int workers);
             ("resolved", Obs.Json.Int resolved);
             ("rejected", Obs.Json.Int rejected);
             ("wall_seconds", Obs.Json.Float wall);
             ("jobs_per_s", Obs.Json.Float jps);
           ]
          @ latency_fields queue_s e2e_s))
  in
  (* Overload row: one worker, a queue of 4 and a burst of slow jobs;
     the surplus must come back as explicit rejections. *)
  let sock2 = Filename.concat dir "icvd-overload.sock" in
  let overload_row =
    with_daemon
      {
        Srv.Daemon.default_config with
        socket_path = Some sock2;
        workers = 1;
        queue_capacity = 4;
        default_deadline_s = Some 60.0;
      }
      (fun () ->
        let burst = 12 in
        let lines =
          List.init burst (fun j ->
              (* power-of-2 depth (the filter model asserts it); the
                 whole burst lands in one socket write, so the surplus
                 over 1 running + 4 queued must bounce *)
              job (Printf.sprintf "burst-%d" j) "filter"
                (if quick then ",\"depth\":4" else ",\"depth\":8"))
        in
        let t0 = Unix.gettimeofday () in
        let resolved, rejected, queue_s, e2e_s = run_client sock2 lines in
        let wall = Unix.gettimeofday () -. t0 in
        Format.printf
          "  overload burst of %d on 1 worker (queue 4): %d resolved, %d \
           rejected explicitly, %.2fs wall@.%!"
          burst resolved rejected wall;
        Obs.Json.Obj
          ([
             ("scenario", Obs.Json.String "overload");
             ("burst", Obs.Json.Int burst);
             ("workers", Obs.Json.Int 1);
             ("queue_capacity", Obs.Json.Int 4);
             ("resolved", Obs.Json.Int resolved);
             ("rejected", Obs.Json.Int rejected);
             ("wall_seconds", Obs.Json.Float wall);
           ]
          @ latency_fields queue_s e2e_s))
  in
  if !json_mode then json_rows := [ overload_row; throughput_row ];
  (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())

let ablations budgets =
  ablation_worstcase budgets;
  ablation_reorder budgets;
  ablation_idi budgets;
  ablation_grow budgets;
  ablation_cofactor budgets;
  ablation_cover budgets;
  ablation_simplify budgets;
  ablation_termination budgets;
  ablation_image budgets;
  ablation_pairbound budgets

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let run tables run_ablations daemon batch max_live max_seconds quick json =
  json_mode := json;
  let budgets =
    if quick then
      { max_live = 400_000; max_seconds = 30.0; max_iterations = 100 }
    else { max_live; max_seconds; max_iterations = 100 }
  in
  let all =
    tables = [] && (not run_ablations) && (not daemon) && not batch
  in
  let wants t = all || List.mem t tables in
  List.iter
    (fun (t, _) ->
      if wants t then
        with_json_artifact (Printf.sprintf "BENCH_table%d.json" t) (fun () ->
            paper_table budgets t))
    table_titles;
  if run_ablations || all then ablations budgets;
  if daemon then
    with_json_artifact "BENCH_daemon.json" (fun () ->
        bench_daemon budgets ~quick);
  if batch then
    with_json_artifact "BENCH_batch.json" (fun () -> bench_batch budgets ~quick);
  head "done."

let () =
  let open Cmdliner in
  let tables =
    Arg.(value & opt_all int [] & info [ "table" ] ~doc:"Run table N (1-3).")
  in
  let ablations_flag =
    Arg.(value & flag & info [ "ablations" ] ~doc:"Run ablation benchmarks.")
  in
  let daemon =
    Arg.(
      value & flag
      & info [ "daemon" ]
          ~doc:
            "Benchmark icvd throughput under synthetic many-client load \
             (jobs/sec) plus an overload-rejection scenario.  Writes \
             BENCH_daemon.json under --json.")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Benchmark Mc.Batch multi-property verification (amortised \
             per-property cost) against the n-fold sequential unrolling.  \
             Writes BENCH_batch.json under --json.")
  in
  let max_live =
    Arg.(
      value & opt int default_max_live
      & info [ "max-live-nodes" ]
          ~doc:"Live-node budget (the paper's 60MB analog).")
  in
  let max_seconds =
    Arg.(
      value & opt float default_max_seconds
      & info [ "max-seconds" ] ~doc:"Per-run wall-clock budget.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Small budgets (smoke-testing the harness).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Also write machine-readable artifacts: one BENCH_tableN.json \
             per table run, each row carrying the report fields plus a \
             per-row telemetry snapshot.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"Regenerate the paper's tables and ablations")
      Term.(
        const run $ tables $ ablations_flag $ daemon $ batch $ max_live
        $ max_seconds $ quick $ json)
  in
  exit (Cmd.eval cmd)
