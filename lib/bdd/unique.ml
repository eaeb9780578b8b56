(* The node store and its unique table.

   Nodes live in one flat [int array] of (level, low, high) triples that
   doubles when full.  The unique table is an open-addressed [int array]
   with linear probing; a slot holds a node index and 16 bits of its
   hash (0 = empty), and a probe compares the three words of a candidate
   node only when those bits match.  The table holds no pointer.

   Nothing leaves the table inside an operation.  [collect] (driven by
   [Bdd.gc]) is the only place nodes are freed: it marks every node
   reachable from the given roots, threads the rest onto a free list
   that later insertions reuse, and rebuilds the table from the
   survivors.  Between collections [live] counts every node interned
   since the last one; right after a collection it is exact. *)

open Repr

let initial_buckets = 1 lsl 14
let initial_nodes = 1 lsl 12

let create () =
  let nodes = Array.make (3 * initial_nodes) 0 in
  (* the terminal: node 0, below every variable *)
  nodes.(0) <- terminal_level;
  {
    nodes;
    next = 1;
    free = 0;
    live = 0;
    buckets = Array.make initial_buckets 0;
    mask = initial_buckets - 1;
    resizes = 0;
    sweeps = 0;
    stamps = Array.make initial_nodes 0;
    stamp = 0;
    handles = Weak.create 1024;
    handle_count = 0;
  }

let[@inline] hash lvl lo hi =
  let h = (lvl * 0x9e3779b1) lxor lo in
  let h = (h * 0x85ebca6b) lxor hi in
  h lxor (h lsr 16)

(* A bucket holds [node lsl 16 lor tag], where [tag] is 16 bits of the
   node's hash that the slot index does not use: a probe dereferences a
   candidate node only when its tag matches. *)
let[@inline] tag_of h = (h lsr 40) land 0xFFFF

(* Place node [n] (known absent) in [buckets]. *)
let reinsert st n =
  let nodes = st.nodes in
  let b = 3 * n in
  let mask = st.mask in
  let h = hash nodes.(b) nodes.(b + 1) nodes.(b + 2) in
  let i = ref (h land mask) in
  while st.buckets.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  st.buckets.(!i) <- (n lsl 16) lor tag_of h

(* A fresh table of [cap] slots holding every interned node. *)
let rebuild st cap =
  st.buckets <- Array.make cap 0;
  st.mask <- cap - 1;
  let nodes = st.nodes in
  for n = 1 to st.next - 1 do
    if nodes.(3 * n) <> free_level then reinsert st n
  done

(* The node (level, lo, hi), or [lnot slot] for the empty slot where it
   belongs.  [hi] is a regular edge. *)
let find st lvl lo hi =
  let nodes = st.nodes and buckets = st.buckets and mask = st.mask in
  (* a loop, not a local recursive function: that would allocate a
     closure on every call *)
  let h = hash lvl lo hi in
  let tag = tag_of h in
  let i = ref (h land mask) in
  let result = ref 0 in
  while !result = 0 do
    let w = Array.unsafe_get buckets !i in
    if w = 0 then result := lnot !i
    else begin
      let n = w lsr 16 in
      let b = 3 * n in
      if
        w land 0xFFFF = tag
        && Array.unsafe_get nodes b = lvl
        && Array.unsafe_get nodes (b + 1) = lo
        && Array.unsafe_get nodes (b + 2) = hi
      then result := n
      else i := (!i + 1) land mask
    end
  done;
  !result

let grow_nodes st =
  let cap = Array.length st.stamps in
  let nodes = Array.make (6 * cap) 0 in
  Array.blit st.nodes 0 nodes 0 (3 * cap);
  st.nodes <- nodes;
  let stamps = Array.make (2 * cap) 0 in
  Array.blit st.stamps 0 stamps 0 cap;
  st.stamps <- stamps

(* Intern (level, lo, hi) at [slot], the empty slot [find] returned, and
   return the new node.  Reuses a freed node before a never-used one. *)
let add st slot lvl lo hi =
  let n =
    if st.free <> 0 then begin
      let n = st.free in
      st.free <- st.nodes.((3 * n) + 1);
      n
    end
    else begin
      if st.next = Array.length st.stamps then grow_nodes st;
      let n = st.next in
      st.next <- n + 1;
      n
    end
  in
  let nodes = st.nodes in
  let b = 3 * n in
  nodes.(b) <- lvl;
  nodes.(b + 1) <- lo;
  nodes.(b + 2) <- hi;
  st.buckets.(slot) <- (n lsl 16) lor tag_of (hash lvl lo hi);
  st.live <- st.live + 1;
  (* keep the load at most 1/2, so a miss stops within a few probes *)
  if 2 * st.live > st.mask + 1 then begin
    st.resizes <- st.resizes + 1;
    rebuild st (2 * (st.mask + 1))
  end;
  n

(* Free every node not reachable from the root edges [iter_roots]
   enumerates, then rebuild the table at a size fitting the survivors. *)
let collect st iter_roots =
  let s = new_stamp st in
  let nodes = st.nodes and stamps = st.stamps in
  let rec mark n =
    if stamps.(n) <> s then begin
      stamps.(n) <- s;
      if n <> 0 then begin
        mark (nodes.((3 * n) + 1) lsr 1);
        mark (nodes.((3 * n) + 2) lsr 1)
      end
    end
  in
  iter_roots (fun e -> mark (node e));
  (* Thread the dead onto the free list from the top down, so the
     lowest free index is reused first. *)
  st.free <- 0;
  st.live <- 0;
  for n = st.next - 1 downto 1 do
    let b = 3 * n in
    if nodes.(b) = free_level || stamps.(n) <> s then begin
      nodes.(b) <- free_level;
      nodes.(b + 1) <- st.free;
      nodes.(b + 2) <- 0;
      st.free <- n
    end
    else st.live <- st.live + 1
  done;
  st.sweeps <- st.sweeps + 1;
  let cap = ref initial_buckets in
  while !cap < 2 * st.live do
    cap := 2 * !cap
  done;
  rebuild st !cap

let stats st =
  [
    ("slots", st.mask + 1);
    ("live", st.live);
    ("resizes", st.resizes);
    ("sweeps", st.sweeps);
  ]
