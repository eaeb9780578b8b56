(* Model tests.

   Each paper example gets an independently written concrete reference
   simulator; random runs must agree state-for-state with the symbolic
   next-state functions (via [Fsm.Trans.step]).  On top of that the
   suite checks verification outcomes (including planted-bug variants
   with validated counterexample traces), and the claims table states
   the paper's comparisons that EXPERIMENTS.md reports as reproduced
   (typed FIFO: 41 = "5 x 9 nodes" implicit vs 543 monolithic, ...). *)

let seed = 0xC0FFEE

let limits man =
  Mc.Limits.start ~max_iterations:60 ~max_created_nodes:4_000_000 man

(* --- environment encoding helpers ------------------------------------- *)

let env_size man = max 1 (Bdd.num_vars man)

let set_word env (word : Fsm.Space.word) v =
  Array.iteri
    (fun i (b : Fsm.Space.bit) -> env.(b.cur) <- (v lsr i) land 1 = 1)
    word

let get_word env (word : Fsm.Space.word) =
  let v = ref 0 in
  Array.iteri
    (fun i (b : Fsm.Space.bit) -> if env.(b.cur) then v := !v lor (1 lsl i))
    word;
  !v

let set_input env levels v =
  Array.iteri (fun i l -> env.(l) <- (v lsr i) land 1 = 1) levels

let set_bit env (b : Fsm.Space.bit) v = env.(b.cur) <- v
let get_bit env (b : Fsm.Space.bit) = env.(b.cur)

(* --- typed FIFO -------------------------------------------------------- *)

let test_fifo_reference () =
  let p = { Models.Typed_fifo.default with depth = 4; width = 5; bound = 17 } in
  let model, h = Models.Typed_fifo.make_full p in
  let man = Mc.Model.man model in
  let trans = model.Mc.Model.trans in
  let rng = Random.State.make [| seed |] in
  let slots = Array.make p.depth 0 in
  for _ = 1 to 200 do
    let v = Random.State.int rng (p.bound + 1) in
    let env = Array.make (env_size man) false in
    Array.iteri (fun i w -> set_word env w slots.(i)) h.Models.Typed_fifo.slots;
    set_input env h.Models.Typed_fifo.input v;
    Alcotest.(check bool) "input legal" true (Fsm.Trans.legal_input trans env);
    let env' = Fsm.Trans.step trans env in
    (* Reference: shift. *)
    for i = p.depth - 1 downto 1 do
      slots.(i) <- slots.(i - 1)
    done;
    slots.(0) <- v;
    Array.iteri
      (fun i w ->
        Alcotest.(check int)
          (Printf.sprintf "slot %d" i)
          slots.(i) (get_word env' w))
      h.Models.Typed_fifo.slots
  done

let test_fifo_all_methods () =
  let p = { Models.Typed_fifo.default with depth = 3; width = 4; bound = 9 } in
  let model = Models.Typed_fifo.make p in
  List.iter
    (fun meth ->
      let r = Mc.Runner.run ~limits meth model in
      Alcotest.(check bool)
        (Mc.Runner.name meth ^ " proves fifo")
        true (Mc.Report.is_proved r))
    Mc.Runner.all

let check_violated_with_trace model meth =
  let r = Mc.Runner.run ~limits meth model in
  match r.Mc.Report.status with
  | Mc.Report.Violated tr ->
    let man = Mc.Model.man model in
    Alcotest.(check bool)
      (Mc.Runner.name meth ^ " trace validates")
      true
      (Mc.Trace.validate model.Mc.Model.trans ~init:model.Mc.Model.init
         ~good:(Ici.Clist.of_list man (Mc.Model.property model))
         tr)
  | Mc.Report.Proved | Mc.Report.Exceeded _ ->
    Alcotest.fail (Mc.Runner.name meth ^ " should violate")

let test_fifo_bug () =
  let p = { Models.Typed_fifo.depth = 3; width = 4; bound = 9; bug = true } in
  let model = Models.Typed_fifo.make p in
  List.iter (check_violated_with_trace model) Mc.Runner.all

let test_fifo_explicit_count () =
  (* A depth-d delay line over values 0..bound reaches exactly
     (bound+1)^d states from the all-zero start. *)
  let p = { Models.Typed_fifo.depth = 3; width = 3; bound = 4; bug = false } in
  let model = Models.Typed_fifo.make p in
  let r, states = Mc.Explicit.run_full ~limits model in
  Alcotest.(check bool) "explicit proves" true (Mc.Report.is_proved r);
  Alcotest.(check int) "reachable count" (5 * 5 * 5) states;
  Alcotest.(check int) "BFS depth = fill depth" 3 r.Mc.Report.iterations

let test_fifo_conjunct_formula () =
  (* With an MSB-style bound (2^(w-1)) the per-slot constraint costs
     exactly w+1 nodes and the implicit conjunction shares only the
     terminal: depth x w internal nodes + 1.  This is the arithmetic
     behind the paper's "(5 x 9 nodes)" annotations, checked across a
     parameter sweep. *)
  List.iter
    (fun (depth, width) ->
      let p =
        { Models.Typed_fifo.depth; width; bound = 1 lsl (width - 1);
          bug = false }
      in
      let r = Mc.Ici_method.run ~limits (Models.Typed_fifo.make p) in
      Alcotest.(check bool)
        (Printf.sprintf "proves d=%d w=%d" depth width)
        true (Mc.Report.is_proved r);
      let expected_conjuncts =
        if depth = 1 then [] (* singletons are not annotated *)
        else List.init depth (fun _ -> width + 1)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "conjunct sizes d=%d w=%d" depth width)
        expected_conjuncts r.Mc.Report.peak_conjuncts;
      Alcotest.(check int)
        (Printf.sprintf "shared size d=%d w=%d" depth width)
        ((depth * width) + 1)
        r.Mc.Report.peak_set_nodes)
    [ (1, 4); (2, 3); (3, 5); (4, 4); (5, 8) ]

(* --- network ------------------------------------------------------------ *)

type net_ref = {
  mutable cnt : int array;
  slots : (bool * bool * int) array; (* valid, req, addr *)
}

let test_network_reference () =
  let p = { Models.Network.procs = 3; bug = false } in
  let model, h = Models.Network.make_full p in
  let man = Mc.Model.man model in
  let trans = model.Mc.Model.trans in
  let rng = Random.State.make [| seed + 1 |] in
  let n = p.procs in
  let state =
    { cnt = Array.make n 0; slots = Array.make n (false, false, 0) }
  in
  let encode () =
    let env = Array.make (env_size man) false in
    Array.iteri
      (fun q w -> set_word env w state.cnt.(q))
      h.Models.Network.counters;
    Array.iteri
      (fun s (v, r, a) ->
        set_bit env h.Models.Network.valids.(s) v;
        set_bit env h.Models.Network.reqs.(s) r;
        set_word env h.Models.Network.addrs.(s) a)
      state.slots;
    env
  in
  let encode_action env act sel preq =
    let code =
      match act with
      | Models.Network.Idle -> 0
      | Models.Network.Issue -> 1
      | Models.Network.Serve -> 2
      | Models.Network.Deliver -> 3
    in
    set_input env h.Models.Network.act code;
    set_input env h.Models.Network.sel sel;
    set_input env h.Models.Network.preq preq
  in
  for _ = 1 to 400 do
    (* Choose a random action; verify legality agrees with the
       reference, retry until a legal one is found (Idle always is). *)
    let act =
      match Random.State.int rng 4 with
      | 0 -> Models.Network.Idle
      | 1 -> Models.Network.Issue
      | 2 -> Models.Network.Serve
      | _ -> Models.Network.Deliver
    in
    let sel = Random.State.int rng n in
    let preq = Random.State.int rng n in
    let v, r, a = state.slots.(sel) in
    let legal_ref =
      match act with
      | Models.Network.Idle -> true
      | Models.Network.Issue -> not v
      | Models.Network.Serve -> v && r
      | Models.Network.Deliver -> v && (not r) && preq = a
    in
    let env = encode () in
    encode_action env act sel preq;
    Alcotest.(check bool) "legality agrees" legal_ref
      (Fsm.Trans.legal_input trans env);
    if legal_ref then begin
      let env' = Fsm.Trans.step trans env in
      (match act with
      | Models.Network.Idle -> ()
      | Models.Network.Issue ->
        state.slots.(sel) <- (true, true, preq);
        state.cnt.(preq) <- state.cnt.(preq) + 1
      | Models.Network.Serve -> state.slots.(sel) <- (true, false, a)
      | Models.Network.Deliver ->
        state.slots.(sel) <- (false, false, a);
        state.cnt.(preq) <- state.cnt.(preq) - 1);
      Array.iteri
        (fun q w ->
          Alcotest.(check int)
            (Printf.sprintf "counter %d" q)
            state.cnt.(q) (get_word env' w))
        h.Models.Network.counters;
      Array.iteri
        (fun s (v, r, a) ->
          Alcotest.(check bool) "valid" v
            (get_bit env' h.Models.Network.valids.(s));
          Alcotest.(check bool) "req" r
            (get_bit env' h.Models.Network.reqs.(s));
          if v then
            Alcotest.(check int) "addr" a
              (get_word env' h.Models.Network.addrs.(s)))
        state.slots
    end
  done

let test_network_all_methods () =
  let model = Models.Network.make { Models.Network.procs = 2; bug = false } in
  List.iter
    (fun meth ->
      let r = Mc.Runner.run ~limits meth model in
      Alcotest.(check bool)
        (Mc.Runner.name meth ^ " proves network")
        true (Mc.Report.is_proved r))
    Mc.Runner.all

let test_network_fd_reduction () =
  (* The FD method must exploit the counter dependencies: its peak
     representation must be smaller than plain forward's. *)
  let model = Models.Network.make { Models.Network.procs = 3; bug = false } in
  let fwd = Mc.Forward.run ~limits model in
  let fd = Mc.Fd.run ~limits model in
  Alcotest.(check bool) "both prove" true
    (Mc.Report.is_proved fwd && Mc.Report.is_proved fd);
  Alcotest.(check bool) "FD representation smaller" true
    (fd.Mc.Report.peak_set_nodes < fwd.Mc.Report.peak_set_nodes)

let test_network_bug () =
  let model = Models.Network.make { Models.Network.procs = 2; bug = true } in
  List.iter (check_violated_with_trace model)
    [ Mc.Runner.Forward; Mc.Runner.Backward; Mc.Runner.Xici ]

(* --- moving-average filter ---------------------------------------------- *)

let test_filter_reference () =
  let p = { Models.Avg_filter.depth = 4; sample_width = 4; assisted = true;
            bug = false } in
  let model, h = Models.Avg_filter.make_full p in
  let man = Mc.Model.man model in
  let trans = model.Mc.Model.trans in
  let rng = Random.State.make [| seed + 2 |] in
  let k = p.depth in
  let levels = 2 in
  let window = Array.make k 0 in
  let layers = Array.init levels (fun l0 -> Array.make (k lsr (l0 + 1)) 0) in
  let dfifo = Array.make levels 0 in
  for _ = 1 to 300 do
    let x = Random.State.int rng (1 lsl p.sample_width) in
    let env = Array.make (env_size man) false in
    Array.iteri (fun i w -> set_word env w window.(i)) h.Models.Avg_filter.window;
    Array.iteri
      (fun l0 arr ->
        Array.iteri
          (fun j v -> set_word env h.Models.Avg_filter.layers.(l0).(j) v)
          arr)
      layers;
    Array.iteri (fun l0 v -> set_word env h.Models.Avg_filter.dfifo.(l0) v) dfifo;
    set_input env h.Models.Avg_filter.x x;
    let env' = Fsm.Trans.step trans env in
    (* Reference update (all from old state). *)
    let old_window = Array.copy window in
    let old_layers = Array.map Array.copy layers in
    for i = k - 1 downto 1 do
      window.(i) <- window.(i - 1)
    done;
    window.(0) <- x;
    Array.iteri
      (fun l0 arr ->
        let prev j = if l0 = 0 then old_window.(j) else old_layers.(l0 - 1).(j) in
        Array.iteri (fun j _ -> arr.(j) <- prev (2 * j) + prev ((2 * j) + 1)) arr)
      layers;
    for l0 = levels - 1 downto 1 do
      dfifo.(l0) <- dfifo.(l0 - 1)
    done;
    dfifo.(0) <- Array.fold_left ( + ) 0 old_window;
    Array.iteri
      (fun i w ->
        Alcotest.(check int) "window" window.(i) (get_word env' w))
      h.Models.Avg_filter.window;
    Array.iteri
      (fun l0 arr ->
        Array.iteri
          (fun j v ->
            Alcotest.(check int) "layer" v
              (get_word env' h.Models.Avg_filter.layers.(l0).(j)))
          arr)
      layers;
    Array.iteri
      (fun l0 v ->
        Alcotest.(check int) "dfifo" v
          (get_word env' h.Models.Avg_filter.dfifo.(l0)))
      dfifo
  done

let test_filter_verification () =
  let base = { Models.Avg_filter.depth = 2; sample_width = 3;
               assisted = false; bug = false } in
  (* Unassisted: XICI proves. *)
  let model = Models.Avg_filter.make base in
  let r = Mc.Xici.run ~limits model in
  Alcotest.(check bool) "XICI unassisted" true (Mc.Report.is_proved r);
  (* Assisted: ICI and XICI prove. *)
  let model = Models.Avg_filter.make { base with assisted = true } in
  let r = Mc.Ici_method.run ~limits model in
  Alcotest.(check bool) "ICI assisted" true (Mc.Report.is_proved r);
  let r = Mc.Xici.run ~limits model in
  Alcotest.(check bool) "XICI assisted" true (Mc.Report.is_proved r);
  (* Forward agrees. *)
  let model = Models.Avg_filter.make base in
  let r = Mc.Forward.run ~limits model in
  Alcotest.(check bool) "forward" true (Mc.Report.is_proved r)

let test_filter_bug () =
  let p = { Models.Avg_filter.depth = 2; sample_width = 3; assisted = false;
            bug = true } in
  let model = Models.Avg_filter.make p in
  List.iter (check_violated_with_trace model)
    [ Mc.Runner.Forward; Mc.Runner.Xici ]

(* --- pipelined processor ------------------------------------------------ *)

type cpu_ref = {
  mutable rf : int array;
  mutable rfs : int array;
  mutable f : int;
  mutable b1 : int;
  mutable b2 : int;
  mutable e_we : bool;
  mutable e_isbr : bool;
  mutable e_dst : int;
  mutable e_val : int;
}

let cpu_reference_step p (st : cpu_ref) instr =
  let lay = Models.Pipeline_cpu.layout p in
  let mask = (1 lsl lay.b) - 1 in
  let opcode i = i land 7 in
  let src i = (i lsr 3) land ((1 lsl lay.r) - 1) in
  let dst i = (i lsr (3 + lay.r)) land ((1 lsl lay.r) - 1) in
  let imm i = (i lsr (3 + (2 * lay.r))) land mask in
  let we op =
    List.mem op
      [ Models.Pipeline_cpu.op_ld; Models.Pipeline_cpu.op_add;
        Models.Pipeline_cpu.op_sub; Models.Pipeline_cpu.op_mov;
        Models.Pipeline_cpu.op_sr ]
  in
  let exec op iv sv dv =
    (if op = Models.Pipeline_cpu.op_ld then iv
     else if op = Models.Pipeline_cpu.op_add then dv + sv
     else if op = Models.Pipeline_cpu.op_sub then dv - sv
     else if op = Models.Pipeline_cpu.op_mov then sv
     else if op = Models.Pipeline_cpu.op_sr then dv lsr 1
     else 0)
    land mask
  in
  let stall = opcode st.f = Models.Pipeline_cpu.op_br || st.e_isbr in
  let eff = if stall then 0 else instr in
  (* Execute stage reads the old register file with bypass from E. *)
  let read_bypassed idx =
    if (not p.Models.Pipeline_cpu.bug) && st.e_we && st.e_dst = idx then
      st.e_val
    else st.rf.(idx)
  in
  let fop = opcode st.f in
  let new_e_we = we fop in
  let new_e_isbr = fop = Models.Pipeline_cpu.op_br in
  let new_e_dst = dst st.f in
  let new_e_val =
    exec fop (imm st.f) (read_bypassed (src st.f)) (read_bypassed (dst st.f))
  in
  (* Writeback from the old E. *)
  let new_rf = Array.copy st.rf in
  if st.e_we then new_rf.(st.e_dst) <- st.e_val;
  (* Spec executes B2 atomically. *)
  let new_rfs = Array.copy st.rfs in
  let b2op = opcode st.b2 in
  if we b2op then
    new_rfs.(dst st.b2) <-
      exec b2op (imm st.b2) st.rfs.(src st.b2) st.rfs.(dst st.b2);
  st.rf <- new_rf;
  st.rfs <- new_rfs;
  st.b2 <- st.b1;
  st.b1 <- eff;
  st.f <- eff;
  st.e_we <- new_e_we;
  st.e_isbr <- new_e_isbr;
  st.e_dst <- new_e_dst;
  st.e_val <- new_e_val

let test_cpu_reference () =
  List.iter
    (fun bug ->
      let p = { Models.Pipeline_cpu.regs = 2; width = 2; assisted = false;
                bug } in
      let lay = Models.Pipeline_cpu.layout p in
      let model, h = Models.Pipeline_cpu.make_full p in
      let man = Mc.Model.man model in
      let trans = model.Mc.Model.trans in
      let rng = Random.State.make [| seed + 3 |] in
      let st =
        { rf = Array.make p.regs 0; rfs = Array.make p.regs 0; f = 0; b1 = 0;
          b2 = 0; e_we = false; e_isbr = false; e_dst = 0; e_val = 0 }
      in
      for _ = 1 to 400 do
        let instr = Random.State.int rng (1 lsl lay.iw) in
        let env = Array.make (env_size man) false in
        set_word env h.Models.Pipeline_cpu.f st.f;
        set_word env h.Models.Pipeline_cpu.b1 st.b1;
        set_word env h.Models.Pipeline_cpu.b2 st.b2;
        set_bit env h.Models.Pipeline_cpu.e_we st.e_we;
        set_bit env h.Models.Pipeline_cpu.e_isbr st.e_isbr;
        set_word env h.Models.Pipeline_cpu.e_dst st.e_dst;
        set_word env h.Models.Pipeline_cpu.e_val st.e_val;
        Array.iteri (fun i w -> set_word env w st.rf.(i))
          h.Models.Pipeline_cpu.rf;
        Array.iteri (fun i w -> set_word env w st.rfs.(i))
          h.Models.Pipeline_cpu.rfs;
        set_input env h.Models.Pipeline_cpu.instr_in instr;
        let env' = Fsm.Trans.step trans env in
        cpu_reference_step p st instr;
        Alcotest.(check int) "F" st.f (get_word env' h.Models.Pipeline_cpu.f);
        Alcotest.(check int) "B1" st.b1
          (get_word env' h.Models.Pipeline_cpu.b1);
        Alcotest.(check int) "B2" st.b2
          (get_word env' h.Models.Pipeline_cpu.b2);
        Alcotest.(check bool) "e_we" st.e_we
          (get_bit env' h.Models.Pipeline_cpu.e_we);
        Alcotest.(check bool) "e_isbr" st.e_isbr
          (get_bit env' h.Models.Pipeline_cpu.e_isbr);
        Alcotest.(check int) "e_dst" st.e_dst
          (get_word env' h.Models.Pipeline_cpu.e_dst);
        Alcotest.(check int) "e_val" st.e_val
          (get_word env' h.Models.Pipeline_cpu.e_val);
        Array.iteri
          (fun i w -> Alcotest.(check int) "rf" st.rf.(i) (get_word env' w))
          h.Models.Pipeline_cpu.rf;
        Array.iteri
          (fun i w -> Alcotest.(check int) "rfs" st.rfs.(i) (get_word env' w))
          h.Models.Pipeline_cpu.rfs
      done)
    [ false; true ]

let test_cpu_verification () =
  (* Forward traversal is intentionally omitted: the module-grouped
     variable order makes the monolithic reachable set blow up (that is
     Table 3's whole point) and the run takes minutes; forward/backward
     agreement on this machine shape is covered by the random-machine
     suite in test_mc. *)
  let p = { Models.Pipeline_cpu.regs = 2; width = 1; assisted = false;
            bug = false } in
  let model = Models.Pipeline_cpu.make p in
  List.iter
    (fun meth ->
      let r = Mc.Runner.run ~limits meth model in
      Alcotest.(check bool)
        (Mc.Runner.name meth ^ " proves cpu")
        true (Mc.Report.is_proved r))
    [ Mc.Runner.Backward; Mc.Runner.Ici; Mc.Runner.Xici ]

let test_cpu_assisted () =
  (* The footnote experiment: hand invariants make the problem inductive
     in very few iterations. *)
  let p = { Models.Pipeline_cpu.regs = 2; width = 1; assisted = true;
            bug = false } in
  let model = Models.Pipeline_cpu.make p in
  let r = Mc.Xici.run ~limits model in
  Alcotest.(check bool) "XICI assisted proves" true (Mc.Report.is_proved r);
  Alcotest.(check bool) "few iterations" true (r.Mc.Report.iterations <= 2)

let test_cpu_bug () =
  (* Without the bypass the classic LD/ADD hazard must surface. *)
  let p = { Models.Pipeline_cpu.regs = 2; width = 1; assisted = false;
            bug = true } in
  let model = Models.Pipeline_cpu.make p in
  List.iter (check_violated_with_trace model)
    [ Mc.Runner.Forward; Mc.Runner.Xici ]

(* --- alternating-bit protocol ------------------------------------------- *)

type abp_ref = {
  mutable smsg : int;
  mutable sseq : bool;
  mutable fval : bool;
  mutable fseq : bool;
  mutable fdata : int;
  mutable aval : bool;
  mutable aseq : bool;
  mutable rexp : bool;
  mutable rdata : int;
}

let test_abp_reference () =
  List.iter
    (fun bug ->
      let p = { Models.Abp.width = 3; bug } in
      let model, h = Models.Abp.make_full p in
      let man = Mc.Model.man model in
      let trans = model.Mc.Model.trans in
      let rng = Random.State.make [| seed + 4 |] in
      let st =
        { smsg = 0; sseq = false; fval = false; fseq = false; fdata = 0;
          aval = false; aseq = false; rexp = false; rdata = 0 }
      in
      for _ = 1 to 500 do
        let act = Random.State.int rng 6 in
        let fresh = Random.State.int rng 8 in
        let legal_ref =
          match act with
          | 2 | 3 -> st.fval
          | 4 | 5 -> st.aval
          | _ -> true
        in
        let env = Array.make (env_size man) false in
        set_word env h.Models.Abp.sender_msg st.smsg;
        set_bit env h.Models.Abp.sender_seq st.sseq;
        set_bit env h.Models.Abp.frame_valid st.fval;
        set_bit env h.Models.Abp.frame_seq st.fseq;
        set_word env h.Models.Abp.frame_data st.fdata;
        set_bit env h.Models.Abp.ack_valid st.aval;
        set_bit env h.Models.Abp.ack_seq st.aseq;
        set_bit env h.Models.Abp.recv_expected st.rexp;
        set_word env h.Models.Abp.recv_data st.rdata;
        set_input env h.Models.Abp.act act;
        set_input env h.Models.Abp.fresh fresh;
        Alcotest.(check bool) "legality" legal_ref
          (Fsm.Trans.legal_input trans env);
        if legal_ref then begin
          let env' = Fsm.Trans.step trans env in
          (match act with
          | 1 (* Send *) ->
            st.fval <- true;
            st.fseq <- st.sseq;
            st.fdata <- st.smsg
          | 2 (* DropF *) -> st.fval <- false
          | 3 (* Deliver *) ->
            let accept = bug || st.fseq = st.rexp in
            st.fval <- false;
            if accept then begin
              st.aval <- true;
              st.aseq <- st.fseq;
              st.rexp <- not st.rexp;
              st.rdata <- st.fdata
            end
          | 4 (* DropA *) -> st.aval <- false
          | 5 (* Ack *) ->
            let ok = st.aseq = st.sseq in
            st.aval <- false;
            if ok then begin
              st.smsg <- fresh;
              st.sseq <- not st.sseq
            end
          | _ (* Idle *) -> ());
          Alcotest.(check int) "smsg" st.smsg
            (get_word env' h.Models.Abp.sender_msg);
          Alcotest.(check bool) "sseq" st.sseq
            (get_bit env' h.Models.Abp.sender_seq);
          Alcotest.(check bool) "fval" st.fval
            (get_bit env' h.Models.Abp.frame_valid);
          Alcotest.(check bool) "aval" st.aval
            (get_bit env' h.Models.Abp.ack_valid);
          Alcotest.(check bool) "rexp" st.rexp
            (get_bit env' h.Models.Abp.recv_expected);
          Alcotest.(check int) "rdata" st.rdata
            (get_word env' h.Models.Abp.recv_data);
          if st.fval then begin
            Alcotest.(check bool) "fseq" st.fseq
              (get_bit env' h.Models.Abp.frame_seq);
            Alcotest.(check int) "fdata" st.fdata
              (get_word env' h.Models.Abp.frame_data)
          end;
          if st.aval then
            Alcotest.(check bool) "aseq" st.aseq
              (get_bit env' h.Models.Abp.ack_seq)
        end
      done)
    [ false; true ]

let test_abp_verification () =
  let model = Models.Abp.make { Models.Abp.width = 2; bug = false } in
  List.iter
    (fun meth ->
      let r = Mc.Runner.run ~limits meth model in
      Alcotest.(check bool)
        (Mc.Runner.name meth ^ " proves abp")
        true (Mc.Report.is_proved r))
    Mc.Runner.all

let test_abp_bug () =
  let model = Models.Abp.make { Models.Abp.width = 2; bug = true } in
  List.iter (check_violated_with_trace model)
    [ Mc.Runner.Forward; Mc.Runner.Backward; Mc.Runner.Xici; Mc.Runner.Idi ]

(* --- the paper's claims as data ---------------------------------------- *)

(* One row per claim of EXPERIMENTS.md's Tables 1-3 comparison: a name,
   the expected outcome and the input, checked at the bench's --quick
   budgets.  A claim that stops holding fails its row; changing a claim
   means editing its row and saying why in EXPERIMENTS.md. *)

let quick_limits man =
  Mc.Limits.start ~max_live_nodes:400_000 ~max_seconds:30.0
    ~max_iterations:100 man

type expect =
  | Proved of {
      iterations : int option;
      set : int option;
      conjuncts : int list option;
    }  (** proved; each given number must match the report *)
  | Proved_like of Mc.Runner.meth
      (** proved, with the iterations and set size of this method's
          run on the same input *)
  | Exceeded  (** a budget ran out *)

type claim = {
  name : string;
  expect : expect;
  meth : Mc.Runner.meth;
  model : unit -> Mc.Model.t;
}

let proved ?iterations ?set ?conjuncts () =
  Proved { iterations; set; conjuncts }

let fifo depth () =
  Models.Typed_fifo.make { Models.Typed_fifo.default with depth }

let filter ?(assisted = false) depth () =
  Models.Avg_filter.make { Models.Avg_filter.default with depth; assisted }

let cpu regs width () =
  Models.Pipeline_cpu.make { Models.Pipeline_cpu.default with regs; width }

let claims =
  let open Mc.Runner in
  let row name meth model expect = { name; expect; meth; model } in
  let nines n = List.init n (fun _ -> 9) in
  [
    (* Table 1a: the implicit conjunction holds depth x 9 nodes where
       the monolithic good set needs 543 and 32767. *)
    row "T1a fifo-5 ICI: 41 = 5 x 9" Ici (fifo 5)
      (proved ~iterations:1 ~set:41 ~conjuncts:(nines 5) ());
    row "T1a fifo-5 XICI: 41 = 5 x 9" Xici (fifo 5)
      (proved ~iterations:1 ~set:41 ~conjuncts:(nines 5) ());
    row "T1a fifo-5 Bkwd: 543 monolithic" Backward (fifo 5)
      (proved ~iterations:1 ~set:543 ());
    row "T1a fifo-10 ICI: 81 = 10 x 9" Ici (fifo 10)
      (proved ~iterations:1 ~set:81 ~conjuncts:(nines 10) ());
    row "T1a fifo-10 XICI: 81 = 10 x 9" Xici (fifo 10)
      (proved ~iterations:1 ~set:81 ~conjuncts:(nines 10) ());
    row "T1a fifo-10 Bkwd: 32767 monolithic" Backward (fifo 10)
      (proved ~iterations:1 ~set:32767 ());
    (* Table 1c: with the assisting invariants, ICI and XICI prove
       depth 8 in one iteration (at the quick budgets since the image
       race reclaims abandoned attempts). *)
    row "T1c filter-8+inv ICI: one iteration" Ici (filter ~assisted:true 8)
      (proved ~iterations:1 ());
    row "T1c filter-8+inv XICI: one iteration" Xici (filter ~assisted:true 8)
      (proved ~iterations:1 ());
    (* Table 2: without help, ICI degenerates to Bkwd; XICI needs the
       paper's 2, 3 and 4 iterations; forward traversal blows up. *)
    row "T2 filter-4 ICI: set nodes = Bkwd's" Ici (filter 4)
      (Proved_like Backward);
    row "T2 filter-8 ICI: set nodes = Bkwd's" Ici (filter 8)
      (Proved_like Backward);
    row "T2 filter-4 XICI: 2 iterations" Xici (filter 4)
      (proved ~iterations:2 ());
    row "T2 filter-8 XICI: 3 iterations" Xici (filter 8)
      (proved ~iterations:3 ());
    row "T2 filter-16 XICI: 4 iterations" Xici (filter 16)
      (proved ~iterations:4 ());
    row "T2 filter-8 Fwd: exceeds" Forward (filter 8) Exceeded;
    (* Table 3: ICI works at 2R,1B and dies at 2R,2B; XICI proves
       4R,1B. *)
    row "T3 cpu-2R1B ICI: proves" Ici (cpu 2 1) (proved ());
    row "T3 cpu-2R2B ICI: fails" Ici (cpu 2 2) Exceeded;
    row "T3 cpu-4R1B XICI: proves" Xici (cpu 4 1) (proved ());
  ]

let check_claim c () =
  let run meth = Mc.Runner.run ~limits:quick_limits meth (c.model ()) in
  let r = run c.meth in
  let status = Mc.Report.status_string r in
  let expect_proved () =
    Alcotest.(check bool) ("proved, not " ^ status) true (Mc.Report.is_proved r)
  in
  let check_opt what v actual =
    Option.iter (fun v -> Alcotest.(check int) what v actual) v
  in
  match c.expect with
  | Proved { iterations; set; conjuncts } ->
    expect_proved ();
    check_opt "iterations" iterations r.Mc.Report.iterations;
    check_opt "set nodes" set r.Mc.Report.peak_set_nodes;
    Option.iter
      (fun v ->
        Alcotest.(check (list int)) "conjunct sizes" v
          r.Mc.Report.peak_conjuncts)
      conjuncts
  | Proved_like other ->
    expect_proved ();
    let o = run other in
    Alcotest.(check bool) "the other method proves" true
      (Mc.Report.is_proved o);
    Alcotest.(check int) "iterations" o.Mc.Report.iterations
      r.Mc.Report.iterations;
    Alcotest.(check int) "set nodes" o.Mc.Report.peak_set_nodes
      r.Mc.Report.peak_set_nodes
  | Exceeded ->
    Alcotest.(check bool) ("exceeded, not " ^ status) true
      (match r.Mc.Report.status with
      | Mc.Report.Exceeded _ -> true
      | Mc.Report.Proved | Mc.Report.Violated _ -> false)

let () =
  Alcotest.run "models"
    [
      ( "claims",
        List.map
          (fun c -> Alcotest.test_case c.name `Quick (check_claim c))
          claims );
      ( "typed-fifo",
        [
          Alcotest.test_case "reference simulation" `Quick
            test_fifo_reference;
          Alcotest.test_case "all methods prove" `Quick test_fifo_all_methods;
          Alcotest.test_case "bug variant violated" `Quick test_fifo_bug;
          Alcotest.test_case "explicit-state reachable count" `Quick
            test_fifo_explicit_count;
          Alcotest.test_case "conjunct-size formula sweep" `Quick
            test_fifo_conjunct_formula;
        ] );
      ( "network",
        [
          Alcotest.test_case "reference simulation" `Quick
            test_network_reference;
          Alcotest.test_case "all methods prove" `Quick
            test_network_all_methods;
          Alcotest.test_case "FD exploits dependencies" `Quick
            test_network_fd_reduction;
          Alcotest.test_case "bug variant violated" `Quick test_network_bug;
        ] );
      ( "avg-filter",
        [
          Alcotest.test_case "reference simulation" `Quick
            test_filter_reference;
          Alcotest.test_case "verification outcomes" `Quick
            test_filter_verification;
          Alcotest.test_case "bug variant violated" `Quick test_filter_bug;
        ] );
      ( "abp",
        [
          Alcotest.test_case "reference simulation (with/without bug)"
            `Quick test_abp_reference;
          Alcotest.test_case "all methods prove" `Quick test_abp_verification;
          Alcotest.test_case "bug variant violated" `Quick test_abp_bug;
        ] );
      ( "pipeline-cpu",
        [
          Alcotest.test_case "reference simulation (with/without bypass)"
            `Quick test_cpu_reference;
          Alcotest.test_case "verification outcomes" `Quick
            test_cpu_verification;
          Alcotest.test_case "assisted invariants (footnote)" `Quick
            test_cpu_assisted;
          Alcotest.test_case "no-bypass bug violated" `Quick test_cpu_bug;
        ] );
    ]
