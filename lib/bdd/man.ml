(* BDD manager: unique table, variable bookkeeping, the shared computed
   table and statistics counters.  All node creation goes through [mk],
   which enforces the two canonicity invariants (no redundant node, THEN
   edge regular), so semantically equal BDDs are always the same
   edge.

   The two kernel tables live in their own modules: [Unique] (the int
   node store and its open-addressed unique table) and [Computed]
   (lossy, direct-mapped, allocation-free).  This module owns their
   lifecycle (trim / clear / gc) and the per-operator hit/miss
   accounting. *)

type varset = {
  vid : int;                    (* interning key within the manager *)
  levels : int array;           (* strictly increasing *)
  member : bool array;          (* indexed by level, padded on demand *)
}

(* Per-operator hit/miss accounting.  Plain mutable fields: the
   increments sit next to computed-table lookups on every operator's
   hot path, so they must cost nothing beyond a store. *)
type cstat = { mutable hits : int; mutable misses : int }

(* Simultaneous-substitution vectors are interned by PHYSICAL equality
   (callers reuse one array across calls and must not mutate it after
   first use); the hash is structural over a bounded prefix, which is
   compatible with [==] and stable because the edge of a held handle
   never changes. *)
module Subst_tbl = Hashtbl.Make (struct
  type t = Repr.t option array

  let equal = ( == )

  let hash (a : t) =
    let n = Array.length a in
    let h = ref (n * 0x9e3779b1) in
    for i = 0 to min (n - 1) 7 do
      let v = match a.(i) with None -> -1 | Some e -> e.Repr.edge in
      h := (!h * 0x85ebca6b) lxor v
    done;
    !h land max_int
end)

type t = {
  store : Repr.store;
  computed : Computed.t;
  mutable nvars : int;
  mutable names : string array;
  mutable created : int;        (* total nodes ever interned *)
  mutable steps : int;          (* non-cached recursion steps, all ops *)
  mutable peak_live : int;
  varsets : (int list, varset) Hashtbl.t;
  mutable next_vid : int;
  perms : (int array, int) Hashtbl.t; (* interned renamings *)
  mutable next_perm_id : int;
  stat_ite : cstat;
  stat_and_exists : cstat;
  stat_exists : cstat;
  stat_restrict : cstat;
  stat_constrain : cstat;
  stat_cofactor : cstat;
  stat_rename : cstat;
  stat_vcompose : cstat;
  mutable gc_events : int;      (* cache trims + explicit gc calls *)
  vcomposes : (int * int array) Subst_tbl.t;
      (* id and edge vector (-1 = keep the variable) per interned
         substitution *)
  mutable next_vcompose_id : int;
  mutable cache_entries_budget : int;
  mutable progress_hook : (t -> unit) option;
  mutable fault_hook : (t -> unit) option;
  mutable node_limit : int;     (* [intern] raises rather than pass it *)
}

let fresh_cstat () = { hits = 0; misses = 0 }

let create ?(cache_budget = 2_000_000) () =
  {
    store = Unique.create ();
    computed = Computed.create ~budget:cache_budget;
    nvars = 0;
    names = [||];
    created = 0;
    steps = 0;
    peak_live = 0;
    varsets = Hashtbl.create 16;
    next_vid = 0;
    perms = Hashtbl.create 16;
    next_perm_id = 0;
    stat_ite = fresh_cstat ();
    stat_and_exists = fresh_cstat ();
    stat_exists = fresh_cstat ();
    stat_restrict = fresh_cstat ();
    stat_constrain = fresh_cstat ();
    stat_cofactor = fresh_cstat ();
    stat_rename = fresh_cstat ();
    stat_vcompose = fresh_cstat ();
    gc_events = 0;
    vcomposes = Subst_tbl.create 16;
    next_vcompose_id = 0;
    cache_entries_budget = cache_budget;
    progress_hook = None;
    fault_hook = None;
    node_limit = max_int;
  }

(* O(1) invalidation of all memo state (generation bump). *)
let clear_caches man = Computed.trim man.computed

(* With the lossy computed table the budget is enforced structurally
   (the table never grows past the power of two at or below the
   budget), so the old drop-everything-and-Gc.major path is gone: an
   over-budget occupancy -- only possible after shrinking the budget of
   a live manager -- costs a generation bump, counted like the cache
   drops it replaced via [gc_events]. *)
let maybe_trim_caches man =
  if Computed.occupied man.computed > man.cache_entries_budget then begin
    man.gc_events <- man.gc_events + 1;
    Computed.trim man.computed
  end

(* The progress hook runs once per [progress_period] node creations and
   once per [progress_period] recursion steps. *)
let progress_period = 0x10000

(* Bump the operation-step counter; drives the progress hook at the
   same cadence as node creation so budgets also catch computations
   that churn without creating nodes (pure cache-hit avalanches). *)
let tick man =
  man.steps <- man.steps + 1;
  (match man.fault_hook with None -> () | Some hook -> hook man);
  if man.steps land (progress_period - 1) = 0 then
    match man.progress_hook with None -> () | Some hook -> hook man

let steps man = man.steps

(* O(1): the store maintains the counter.  Nothing is freed between
   [gc] calls, so it counts every node interned since the last one. *)
let live_nodes man =
  let live = man.store.Repr.live in
  if live > man.peak_live then man.peak_live <- live;
  live

let created_nodes man = man.created
let num_vars man = man.nvars

(* The only collector.  The registry of handles is the root set: the
   substitution vectors interned above hold handles too, so they are
   dropped first (a later [vector_compose] re-interns its vector under
   a fresh id), then a full major GC leaves exactly the handles the
   program can still reach.  Their nodes are marked, the rest go on
   the free list, and the computed table is emptied because its keys
   and results may name freed nodes.  Never called inside an
   operation, so no kernel frame holds an unrooted edge. *)
let gc man =
  man.gc_events <- man.gc_events + 1;
  Subst_tbl.reset man.vcomposes;
  Computed.clear man.computed;
  Gc.full_major ();
  let st = man.store in
  Repr.compact_handles st;
  Unique.collect st (fun mark ->
      for i = 0 to st.Repr.handle_count - 1 do
        match Weak.get st.Repr.handles i with
        | Some h -> mark h.Repr.edge
        | None -> ()
      done)

let gc_events man = man.gc_events
let check_invariants man = Unique.check man.store

(* Hot-path cache accounting; callers touch these on every memo-cache
   lookup, so they are bare stores. *)
let hit s = s.hits <- s.hits + 1
let miss s = s.misses <- s.misses + 1

(* (name, hits, misses) per memoised operator, fixed order. *)
let cache_stats man =
  [
    ("ite", man.stat_ite.hits, man.stat_ite.misses);
    ("and_exists", man.stat_and_exists.hits, man.stat_and_exists.misses);
    ("exists", man.stat_exists.hits, man.stat_exists.misses);
    ("restrict", man.stat_restrict.hits, man.stat_restrict.misses);
    ("constrain", man.stat_constrain.hits, man.stat_constrain.misses);
    ("cofactor", man.stat_cofactor.hits, man.stat_cofactor.misses);
    ("rename", man.stat_rename.hits, man.stat_rename.misses);
    ("vcompose", man.stat_vcompose.hits, man.stat_vcompose.misses);
  ]

let computed_table_stats man = Computed.stats man.computed
let unique_table_stats man = Unique.stats man.store

exception Node_budget_exhausted

(* Interning; returns the node index.  [hi] must be a regular edge.
   A creation that would pass [node_limit] raises instead, so a budget
   set by [with_node_budget] stops its computation at an exact count. *)
let intern man lvl lo hi =
  let st = man.store in
  let found = Unique.find st lvl lo hi in
  if found > 0 then found
  else begin
    if man.created >= man.node_limit then raise Node_budget_exhausted;
    let n = Unique.add st (lnot found) lvl lo hi in
    man.created <- man.created + 1;
    (match man.fault_hook with None -> () | Some hook -> hook man);
    (* The live counter is O(1), so the peak is seeded on every
       creation (short runs no longer report a peak of 0); the 64K
       cadence below only drives the progress hook (resource-limit
       checks that can interrupt a blown-up operation) and the cache
       budget check. *)
    let live = st.Repr.live in
    if live > man.peak_live then man.peak_live <- live;
    if man.created land (progress_period - 1) = 0 then begin
      maybe_trim_caches man;
      match man.progress_hook with None -> () | Some hook -> hook man
    end;
    n
  end

(* The canonicity rule for complement edges: if the THEN edge would be
   complemented, build the complemented node instead and return a
   complemented edge to it (node(v,l,h) = not node(v, not l, not h)). *)
let mk man lvl ~low ~high =
  if low = high then low
  else begin
    let st = man.store in
    assert (lvl < Repr.level st low && lvl < Repr.level st high);
    if high land 1 = 1 then
      (intern man lvl (Repr.neg low) (Repr.neg high) lsl 1) lor 1
    else intern man lvl low high lsl 1
  end

(* [names] is a growable array: [nvars] is the logical length, the rest
   is spare capacity doubled on demand (wide models allocate thousands
   of variables, so per-variable reallocation would be quadratic). *)
let new_var ?name man =
  let lvl = man.nvars in
  man.nvars <- man.nvars + 1;
  let label = match name with Some s -> s | None -> Printf.sprintf "v%d" lvl in
  if man.nvars > Array.length man.names then begin
    let grown = Array.make (max 16 (2 * Array.length man.names)) "" in
    Array.blit man.names 0 grown 0 (Array.length man.names);
    man.names <- grown
  end;
  man.names.(lvl) <- label;
  lvl

let var_name man lvl =
  if lvl >= 0 && lvl < man.nvars then man.names.(lvl)
  else Printf.sprintf "v%d" lvl

(* The BDD for a single variable / its negation. *)
let var man lvl =
  assert (lvl >= 0 && lvl < man.nvars);
  mk man lvl ~low:Repr.fls ~high:Repr.tru

let nvar man lvl = Repr.neg (var man lvl)

let varset man levels =
  let levels = List.sort_uniq compare levels in
  match Hashtbl.find_opt man.varsets levels with
  | Some vs -> vs
  | None ->
    let arr = Array.of_list levels in
    let width = man.nvars in
    let member = Array.make (max width 1) false in
    Array.iter (fun l -> member.(l) <- true) arr;
    let vs = { vid = man.next_vid; levels = arr; member } in
    man.next_vid <- man.next_vid + 1;
    Hashtbl.add man.varsets levels vs;
    vs

let varset_mem vs lvl = lvl < Array.length vs.member && vs.member.(lvl)

let varset_max vs =
  let n = Array.length vs.levels in
  if n = 0 then -1 else vs.levels.(n - 1)

(* Intern a renaming permutation so it can serve as a memo key
   (structural hashing: int arrays hash and compare by contents). *)
let perm_id man perm =
  match Hashtbl.find_opt man.perms perm with
  | Some id -> id
  | None ->
    let id = man.next_perm_id in
    man.next_perm_id <- man.next_perm_id + 1;
    Hashtbl.add man.perms (Array.copy perm) id;
    id

let set_progress_hook man hook = man.progress_hook <- hook
let progress_hook man = man.progress_hook

(* Unlike the (sampled) progress hook, the fault hook is consulted on
   every recursion step and every node creation, so a hook keyed on
   [created] or [steps] fires at an exact, reproducible point.  Used by
   the resilience tests to inject deterministic budget blowups. *)
let set_fault_hook man hook = man.fault_hook <- hook

(* Intern a simultaneous-substitution vector (compared physically: the
   caller keeps the array alive -- and unmutated -- for the duration of
   its use); returns its id and its edges, -1 where the variable is
   kept. *)
let vcompose_entry man subst =
  match Subst_tbl.find_opt man.vcomposes subst with
  | Some entry -> entry
  | None ->
    let id = man.next_vcompose_id in
    man.next_vcompose_id <- man.next_vcompose_id + 1;
    let edges =
      Array.map (function None -> -1 | Some h -> h.Repr.edge) subst
    in
    Subst_tbl.add man.vcomposes subst (id, edges);
    (id, edges)

(* Run [f] under a budget of [max_new_nodes] more node creations; [None]
   on abort.  The budget is exact: the manager's [node_limit] makes a
   creation that would pass it raise instead.  Only this region's own
   exhaustion is caught: an enclosing budget that runs out inside it, or
   a fault hook raising [Node_budget_exhausted], propagates. *)
let with_node_budget man ~max_new_nodes f =
  let limit =
    if max_new_nodes >= max_int - man.created then max_int
    else man.created + max_new_nodes
  in
  let outer = man.node_limit in
  man.node_limit <- min outer limit;
  Fun.protect
    ~finally:(fun () -> man.node_limit <- outer)
    (fun () ->
      try Some (f ())
      with Node_budget_exhausted when man.created >= limit -> None)
