(* Explicit-state verification: breadth-first search over concrete
   states stored in a hash table.

   This is the brute-force baseline of the paper's introduction ("a
   brute-force approach that stores states explicitly in a hash table
   [13] has generally out-performed BDD-based approaches" on industrial
   examples) -- the Murphi-style approach of Dill, Drexler, Hu and
   Yang.  It runs on the same machines as the symbolic methods, using
   [Fsm.Trans.step] over an enumeration of the legal inputs, so it both
   serves as a baseline in benchmarks and cross-checks the symbolic
   engines on models whose reachable state count is tractable.

   States are packed into byte strings (one bit per state bit) for
   compact hashing.  The input space is enumerated exhaustively per
   state, so the method suits models with few input bits; the [Limits]
   budgets guard the rest.  The report's "iterations" is the BFS depth
   reached, comparable to the symbolic methods' iteration counts. *)

type packed = Bytes.t

let pack levels env =
  let n = List.length levels in
  let b = Bytes.make ((n + 7) / 8) '\000' in
  List.iteri
    (fun i l ->
      if env.(l) then
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8)))))
    levels;
  b

let unpack levels ~size packed =
  let env = Array.make size false in
  List.iteri
    (fun i l ->
      env.(l) <-
        Char.code (Bytes.get packed (i / 8)) land (1 lsl (i mod 8)) <> 0)
    levels;
  env

let run_full ?limits model =
  let man = Model.man model in
  let trans = model.Model.trans in
  let space = Fsm.Trans.space trans in
  let levels = Fsm.Space.current_levels space in
  let inputs = Fsm.Space.input_levels space in
  let property = Ici.Clist.of_list man (Model.property model) in
  let size = max 1 (Bdd.num_vars man) in
  let seen : (packed, packed option) Hashtbl.t = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let n_inputs = List.length inputs in
  let trace_from packed_state =
    let rec back p acc =
      match Hashtbl.find_opt seen p with
      | Some (Some pred) -> back pred (unpack levels ~size p :: acc)
      | Some None | None -> unpack levels ~size p :: acc
    in
    back packed_state []
  in
  let report =
    Fixpoint.run ?limits ~meth:"Expl" model (fun fx ->
        Seq.iter
          (fun env ->
            let p = pack levels env in
            if not (Hashtbl.mem seen p) then begin
              Hashtbl.replace seen p None;
              Queue.add (p, 0) queue
            end)
          (Bdd.minterms man ~vars:levels model.Model.init);
        let result = ref None in
        let checked = ref 0 in
        while !result = None && not (Queue.is_empty queue) do
          incr checked;
          if !checked land 0xFFF = 0 then Fixpoint.check fx;
          let p, depth = Queue.pop queue in
          (* Breadth-first: depths leave the queue in order, one level
             at a time, so the iteration count is the depth reached. *)
          if depth > Fixpoint.iterations fx then Fixpoint.advance fx;
          let env = unpack levels ~size p in
          if not (Ici.Clist.eval man env property) then
            result := Some (Report.Violated (trace_from p))
          else
            for inp = 0 to (1 lsl n_inputs) - 1 do
              List.iteri
                (fun i l -> env.(l) <- (inp lsr i) land 1 = 1)
                inputs;
              if Fsm.Trans.legal_input trans env then begin
                let succ = Fsm.Trans.step trans env in
                let ps = pack levels succ in
                if not (Hashtbl.mem seen ps) then begin
                  Hashtbl.replace seen ps (Some p);
                  Queue.add (ps, depth + 1) queue
                end
              end
            done
        done;
        Fixpoint.search_row fx ~states:(Hashtbl.length seen);
        Option.value ~default:Report.Proved !result)
  in
  (report, Hashtbl.length seen)

let run ?limits model = fst (run_full ?limits model)
