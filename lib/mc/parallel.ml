(* Shared-nothing parallel verification on OCaml 5 domains.

   BDD managers are strictly single-domain (no locks anywhere near the
   unique/computed tables), so parallelism here never shares a manager:
   the model is FROZEN to an immutable string (declarations + one
   Bdd.Serialize block) and each worker domain THAWS its own private
   copy into a fresh manager.

   [portfolio] runs N method/policy configurations concurrently; the
   first sound verdict (Proved/Violated) wins and the losers are
   cancelled through the existing fault-hook machinery (they raise
   [Limits.Exceeded "cancelled by portfolio"], which every method
   already converts into a clean Exceeded report).  All methods are
   sound, so whichever config wins the race carries the same verdict a
   sequential run would have produced. *)

exception Corrupt of string

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- model freeze / thaw --------------------------------------------- *)

(* The frozen form is one immutable string:

       frozen-model 1
       name <model name>
       decls <count>
       s <state bit name>          (one per declaration, in level order;
       i <input name>               a state bit owns levels L and L+1)
       counts <assigns> <good> <assisting>
       fd <level> ... <level>
       <Bdd.Serialize block: next-state functions (state-bit order),
        input constraint, init, good..., assisting...>

   Thawing replays the declarations into a fresh [Fsm.Space] -- in the
   same order, so every BDD lands on the same level it had -- then
   rebuilds the transition relation with [Fsm.Trans.make].  Strings are
   immutable, so a frozen model is safe to hand to any number of
   domains. *)
type frozen = string

let freeze (model : Model.t) : frozen =
  let sp = model.Model.space in
  let man = Model.man model in
  let trans = model.Model.trans in
  let bits = Fsm.Space.state_bits sp in
  let by_cur = Hashtbl.create 16 in
  List.iter
    (fun (bit : Fsm.Space.bit) -> Hashtbl.replace by_cur bit.Fsm.Space.cur bit)
    bits;
  let input_set = Hashtbl.create 16 in
  List.iter
    (fun l -> Hashtbl.replace input_set l ())
    (Fsm.Space.input_levels sp);
  let nvars = Bdd.num_vars man in
  let decls = Buffer.create 256 in
  let ndecls = ref 0 in
  let l = ref 0 in
  while !l < nvars do
    incr ndecls;
    match Hashtbl.find_opt by_cur !l with
    | Some (bit : Fsm.Space.bit) ->
      if bit.Fsm.Space.next <> !l + 1 then
        fail "freeze: state bit at level %d is not cur/next interleaved" !l;
      Buffer.add_string decls
        (Printf.sprintf "s %s\n" (Bdd.var_name man !l));
      l := !l + 2
    | None ->
      if not (Hashtbl.mem input_set !l) then
        fail "freeze: level %d is neither a state bit nor an input" !l;
      Buffer.add_string decls
        (Printf.sprintf "i %s\n" (Bdd.var_name man !l));
      incr l
  done;
  let assigns = Fsm.Trans.assigns trans in
  let fn_of (bit : Fsm.Space.bit) =
    match
      List.find_opt
        (fun ((a : Fsm.Space.bit), _) -> a.Fsm.Space.cur = bit.Fsm.Space.cur)
        assigns
    with
    | Some (_, f) -> f
    | None ->
      fail "freeze: state bit at level %d has no next-state function"
        bit.Fsm.Space.cur
  in
  let fns = List.map fn_of bits in
  let b = Buffer.create 4096 in
  Buffer.add_string b "frozen-model 1\n";
  Buffer.add_string b (Printf.sprintf "name %s\n" model.Model.name);
  Buffer.add_string b (Printf.sprintf "decls %d\n" !ndecls);
  Buffer.add_buffer b decls;
  Buffer.add_string b
    (Printf.sprintf "counts %d %d %d\n" (List.length fns)
       (List.length model.Model.good)
       (List.length model.Model.assisting));
  Buffer.add_string b
    (Printf.sprintf "fd %s\n"
       (String.concat " " (List.map string_of_int model.Model.fd_candidates)));
  let roots =
    fns
    @ [ Fsm.Trans.input_constraint trans; model.Model.init ]
    @ model.Model.good @ model.Model.assisting
  in
  Buffer.add_string b (Bdd.Serialize.to_string roots);
  Buffer.contents b

let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "thaw: bad %s %S" what s

let rec take n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> fail "thaw: missing serialized roots"
    | x :: rest ->
      let front, back = take (n - 1) rest in
      (x :: front, back)

let thaw ?cache_budget ?on_manager (s : frozen) : Model.t =
  let pos = ref 0 in
  let len = String.length s in
  let next_line () =
    if !pos >= len then fail "thaw: truncated frozen model"
    else begin
      let nl = try String.index_from s !pos '\n' with Not_found -> len in
      let line = String.sub s !pos (nl - !pos) in
      pos := nl + 1;
      line
    end
  in
  let rest_after prefix line =
    let pl = String.length prefix in
    if String.length line > pl && String.sub line 0 pl = prefix then
      String.sub line pl (String.length line - pl)
    else fail "thaw: expected %S line, got %S" prefix line
  in
  (match next_line () with
  | "frozen-model 1" -> ()
  | l -> fail "thaw: bad header %S" l);
  let name = rest_after "name " (next_line ()) in
  let ndecls = int_field "decl count" (rest_after "decls " (next_line ())) in
  let sp = Fsm.Space.create ?cache_budget () in
  (* Hand the fresh manager to the caller before any reconstruction:
     rebuilding a large model (deserialize + transition relation) is
     real BDD work, and a supervised caller wants its liveness hooks
     beating during that stretch, not only once the run proper
     starts. *)
  (match on_manager with
  | Some f -> f (Fsm.Space.man sp)
  | None -> ());
  for _ = 1 to ndecls do
    let line = next_line () in
    if String.length line < 3 then fail "thaw: bad decl line %S" line;
    let bit_name = String.sub line 2 (String.length line - 2) in
    match (line.[0], line.[1]) with
    | 's', ' ' -> ignore (Fsm.Space.state_bit ~name:bit_name sp)
    | 'i', ' ' -> ignore (Fsm.Space.input_bit ~name:bit_name sp)
    | _ -> fail "thaw: bad decl line %S" line
  done;
  let n_fns, n_good, n_assisting =
    match
      String.split_on_char ' ' (rest_after "counts " (next_line ()))
    with
    | [ a; g; s ] ->
      ( int_field "assign count" a,
        int_field "good count" g,
        int_field "assisting count" s )
    | _ -> fail "thaw: bad counts line"
  in
  let fd_candidates =
    let line = next_line () in
    if line = "fd" || line = "fd " then []
    else
      List.map (int_field "fd level")
        (List.filter
           (fun f -> f <> "")
           (String.split_on_char ' ' (rest_after "fd " line)))
  in
  let man = Fsm.Space.man sp in
  let roots =
    try Bdd.Serialize.of_string man (String.sub s !pos (len - !pos))
    with Bdd.Serialize.Parse_error why -> fail "thaw: bad BDD block: %s" why
  in
  let bits = Fsm.Space.state_bits sp in
  if List.length bits <> n_fns then
    fail "thaw: %d state bits but %d next-state functions"
      (List.length bits) n_fns;
  let fns, rest = take n_fns roots in
  match rest with
  | input_constraint :: init :: rest ->
    let good, rest = take n_good rest in
    let assisting, rest = take n_assisting rest in
    if rest <> [] then fail "thaw: %d extra roots" (List.length rest);
    let trans =
      Fsm.Trans.make ~input_constraint sp ~assigns:(List.combine bits fns)
    in
    Model.make ~assisting ~fd_candidates ~name ~space:sp ~trans ~init ~good
      ()
  | _ -> fail "thaw: missing input constraint / init roots"

(* --- portfolio ------------------------------------------------------- *)

type config = {
  label : string;
  meth : Runner.meth;
  xici_cfg : Ici.Policy.config option;
  termination : Xici.termination option;
  var_choice : Ici.Tautology.var_choice option;
}

let config ?label ?xici_cfg ?termination ?var_choice meth =
  {
    label = (match label with Some l -> l | None -> Runner.name meth);
    meth;
    xici_cfg;
    termination;
    var_choice;
  }

(* Convergence-rate sensitivity is the whole premise of a portfolio:
   different policies/termination tests win on different models, so the
   default mixes the paper's XICI variants with the monolithic methods
   that beat it on small-reachable-set models. *)
let default_portfolio =
  [
    config Runner.Xici;
    config Runner.Backward;
    config ~label:"XICI-constrain"
      ~xici_cfg:{ Ici.Policy.default with Ici.Policy.simplifier = Ici.Policy.Constrain }
      Runner.Xici;
    config Runner.Fd;
    config ~label:"XICI-implication" ~termination:`Exact_implication
      Runner.Xici;
    config ~label:"XICI-lowest" ~var_choice:Ici.Tautology.Lowest_level
      Runner.Xici;
    config Runner.Forward;
    config ~label:"XICI-cover"
      ~xici_cfg:{ Ici.Policy.default with Ici.Policy.evaluation = Ici.Policy.Optimal_cover }
      Runner.Xici;
  ]

type result = {
  winner : (config * Report.t) option;
  reports : (config * Report.t) list;
  domains_used : int;
  wall_time_s : float;
}

module M = struct
  let reg = Obs.Registry.default
  let portfolio_runs = Obs.Registry.counter reg "parallel.portfolio_runs"
  let cancelled = Obs.Registry.counter reg "parallel.cancelled_configs"
  let crashed = Obs.Registry.counter reg "parallel.crashed_configs"
end

(* Join every domain even when one dies: a worker exception must not
   leak the others.  The first worker error is re-raised after the
   joins. *)
let join_all spawned =
  let outcomes = List.map Domain.join spawned in
  List.iter (function Error e -> raise e | Ok () -> ()) outcomes

let portfolio ?(domains = 2) ?(configs = default_portfolio) ?limits
    ?cache_budget ?should_cancel ?on_progress ?iter_sink model =
  if domains < 1 then invalid_arg "Parallel.portfolio: domains < 1";
  if configs = [] then invalid_arg "Parallel.portfolio: empty portfolio";
  Obs.Registry.incr M.portfolio_runs;
  let t0 = Monotonic.now () in
  (* The caller (e.g. a supervised pool worker) observes liveness
     through hooks on its own manager -- which this function never
     touches: all the work happens on private managers in child
     domains.  [should_cancel]/[on_progress]/[iter_sink] re-thread the
     caller's cancel signal and heartbeat into those domains, so a
     supervisor can both see a long portfolio run making progress and
     abort it. *)
  let externally_cancelled () =
    match should_cancel with Some f -> f () | None -> false
  in
  let frozen = freeze model in
  let arr = Array.of_list configs in
  let n = Array.length arr in
  let cancel = Atomic.make false in
  let next = Atomic.make 0 in
  let winner = Atomic.make (-1) in
  let results : Report.t option array = Array.make n None in
  let tracer = Obs.Tracer.global () in
  (* Tracer override and ambient attributes (e.g. a job's trace id) are
     domain-local, so child domains must re-install both — otherwise a
     supervised job's per-config spans would land on the process-wide
     tracer instead of the job's own trace. *)
  let span_attrs = Obs.Tracer.current_attrs () in
  let model_name = model.Model.name in
  (* An exception escaping one config -- a raising user hook, a thaw
     failure, an allocation blowup -- must lose that config, not tear
     the whole run down: the surviving configs are the robustness the
     portfolio exists to provide.  Anything that is not a clean budget
     abort becomes a structured per-config "worker crashed" report. *)
  let abort_report c why time_s =
    {
      Report.model = model_name;
      method_name = c.label;
      status = Report.Exceeded why;
      iterations = 0;
      peak_set_nodes = 0;
      peak_conjuncts = [];
      nodes_created = 0;
      peak_live_nodes = 0;
      time_s;
    }
  in
  let crash_report c why time_s =
    Obs.Registry.incr M.crashed;
    abort_report c (Printf.sprintf "worker crashed: %s" why) time_s
  in
  let run_config c =
    let t1 = Monotonic.now () in
    (* Hooks go onto the fresh manager before the model is rebuilt
       (via thaw's [on_manager]), so cancellation and heartbeats cover
       the thaw itself -- on a large model the rebuild is long enough
       to read as a hang otherwise.  The fault hook is consulted on
       every node creation, so a cancelled loser aborts within one BDD
       operation; the raise surfaces as a clean Exceeded report
       through the method's Fixpoint frame, whose budget guard chains
       whatever progress hook is already installed, so per-config
       budgets keep working on top. *)
    let install man =
      Bdd.set_fault_hook man
        (Some
           (fun _ ->
             if Atomic.get cancel then
               raise (Limits.Exceeded "cancelled by portfolio");
             if externally_cancelled () then
               raise (Limits.Exceeded "cancelled")));
      match on_progress with
      | None -> ()
      | Some f ->
        Bdd.set_progress_hook man
          (Some (fun m -> f ~live:(Bdd.live_nodes m)))
    in
    match thaw ?cache_budget ~on_manager:install frozen with
    | exception Limits.Exceeded why ->
      (* Cancelled mid-thaw: an abort, not a crash. *)
      abort_report c why (Monotonic.now () -. t1)
    | exception e -> crash_report c (Printexc.to_string e) 0.0
    | m ->
      let frame = Fixpoint.start ~meth:c.label m in
      let exceeded why = Fixpoint.report frame (Report.Exceeded why) in
      (try
         Obs.Tracer.with_span tracer ~cat:"parallel"
           ~args:(fun () -> [ ("config", Obs.Json.String c.label) ])
           "parallel.config"
           (fun () ->
             Runner.run ?limits ?xici_cfg:c.xici_cfg
               ?termination:c.termination ?var_choice:c.var_choice c.meth m)
       with
      | Limits.Exceeded why -> exceeded why
      | Bdd.Node_budget_exhausted -> exceeded "node budget exhausted"
      | e -> crash_report c (Printexc.to_string e) (Monotonic.now () -. t1))
  in
  let worker () =
    (match iter_sink with
    | None -> ()
    | Some s -> Obs.Iterlog.set_sink (Some s));
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && not (Atomic.get cancel) && not (externally_cancelled ())
      then begin
        let c = arr.(i) in
        let report = run_config c in
        let report = Report.relabel report ~method_name:c.label in
        results.(i) <- Some report;
        if Report.decided report then begin
          if Atomic.compare_and_set winner (-1) i then Atomic.set cancel true
        end
        else if Atomic.get cancel then Obs.Registry.incr M.cancelled;
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> Obs.Iterlog.set_sink None) loop
  in
  let k = min domains n in
  let spawned =
    List.init k (fun _ ->
        Domain.spawn (fun () ->
            try
              Ok
                (Obs.Tracer.with_global tracer (fun () ->
                     Obs.Tracer.with_attrs span_attrs worker))
            with e -> Error e))
  in
  join_all spawned;
  let reports = ref [] in
  for i = n - 1 downto 0 do
    match results.(i) with
    | Some r -> reports := (arr.(i), r) :: !reports
    | None -> ()
  done;
  let winner =
    match Atomic.get winner with
    | -1 -> None
    | i -> Option.map (fun r -> (arr.(i), r)) results.(i)
  in
  {
    winner;
    reports = !reports;
    domains_used = k;
    wall_time_s = Monotonic.now () -. t0;
  }
