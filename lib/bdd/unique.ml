(* The node store and its unique table.

   Nodes live in a directory of segments of two words per node
   ([Repr.seg_bits], [Repr.pack]): segment 0 doubles until it holds
   2^16 nodes, then the store grows by a whole segment at a time, so
   growing never copies a node.  The unique table is an open-addressed
   [int array] with linear probing; a slot holds a node index and the
   low 32 bits of the node's hash (0 = empty).  A probe reads a
   candidate node only when those bits match, so the table fills to
   3/4 before it doubles: a longer probe run costs sequential slot
   reads, rarely a node.  Since the bits include every bit a slot index
   uses, a resize or a rebuild places each entry from its own word
   without reading the node store.  The table holds no pointer.

   Hash-consing compares a node's level and children only: its first
   word whole and the low 32 bits of its second, never the stamp a walk
   left there.

   Nothing leaves the table inside an operation.  [collect] (driven by
   [Bdd.gc]) is the only place nodes are freed: it marks every node
   reachable from the given roots, threads the rest onto a free list
   that later insertions reuse, and keeps only the survivors' entries,
   in a table at most half full.  Between collections [live] counts
   every node interned since the last one; right after a collection it
   is exact. *)

open Repr

let initial_buckets = 1 lsl 14
let initial_nodes = 1 lsl 12

let create () =
  let seg0 = ints (2 * initial_nodes) 0 in
  (* the terminal: node 0, below every variable *)
  seg0.(0) <- pack terminal_level 0;
  {
    segs = [| seg0 |];
    capacity = initial_nodes;
    next = 1;
    free = 0;
    live = 0;
    buckets = ints initial_buckets 0;
    mask = initial_buckets - 1;
    resizes = 0;
    sweeps = 0;
    stamp = 0;
    handles = Weak.create 1024;
    handle_count = 0;
  }

(* The slot index is the hash's low bits, so every input bit must reach
   them: the last multiply and the fold of its high half do that for
   [hi], which would otherwise pass into the index almost unmixed and,
   at 3/4 load, cluster the table into probe runs averaging 18 slots on
   abp-8 XICI. *)
let[@inline] hash lvl lo hi =
  let h = (lvl * 0x9e3779b1) lxor lo in
  let h = ((h * 0x85ebca6b) lxor hi) * 0xc2b2ae35 in
  h lxor (h lsr 32)

(* A bucket holds [node lsl 32 lor hash_bits h]: a probe dereferences a
   candidate node only when those bits match.  A table never has more
   than 2^32 slots, so a slot index is [bucket land mask]. *)
let hash_mask = 0xFFFF_FFFF
let[@inline] hash_bits h = h land hash_mask
let[@inline] entry n h = (n lsl 32) lor hash_bits h

(* Replace the table by one of [cap] slots holding the old table's
   entries, or only those whose node carries the stamp [only] when it
   is positive.  One sequential pass over the old slots; no node is
   read. *)
let rehash st cap ~only =
  let old = st.buckets in
  let buckets = ints cap 0 in
  let mask = cap - 1 in
  for j = 0 to Array.length old - 1 do
    let w = Array.unsafe_get old j in
    if w <> 0 && (only <= 0 || stamp_of st (w lsr 32) = only) then begin
      let i = ref (w land mask) in
      while Array.unsafe_get buckets !i <> 0 do
        i := (!i + 1) land mask
      done;
      Array.unsafe_set buckets !i w
    end
  done;
  st.buckets <- buckets;
  st.mask <- mask;
  release (Array.length old)

(* Does node [n] hold the triple (lvl, lo, hi)?  [w0] is [pack lvl
   lo]; the stamp above [hi] is ignored. *)
let[@inline] is st n w0 hi =
  let s = seg st n and b = base n in
  Array.unsafe_get s b = w0 && Array.unsafe_get s (b + 1) land field_mask = hi

(* The node (level, lo, hi), or [lnot slot] for the empty slot where it
   belongs.  [hi] is a regular edge. *)
let find st lvl lo hi =
  let buckets = st.buckets and mask = st.mask in
  (* a loop, not a local recursive function: that would allocate a
     closure on every call *)
  let h = hash_bits (hash lvl lo hi) in
  let w0 = pack lvl lo in
  let i = ref (h land mask) in
  let result = ref 0 in
  while !result = 0 do
    let w = Array.unsafe_get buckets !i in
    if w = 0 then result := lnot !i
    else if w land hash_mask = h && is st (w lsr 32) w0 hi then
      result := w lsr 32
    else i := (!i + 1) land mask
  done;
  !result

(* Room for more nodes: double segment 0 while it is not full, else add
   a segment. *)
let grow_nodes st =
  let cap = st.capacity in
  if cap < seg_nodes then begin
    let old = st.segs.(0) in
    let grown = ints (4 * cap) 0 in
    for i = 0 to (2 * cap) - 1 do
      Array.unsafe_set grown i (Array.unsafe_get old i)
    done;
    st.segs.(0) <- grown;
    st.capacity <- 2 * cap
  end
  else begin
    if cap >= max_nodes then failwith "Bdd: node store full";
    st.segs <- Array.append st.segs [| ints (2 * seg_nodes) 0 |];
    st.capacity <- cap + seg_nodes
  end

(* Intern (level, lo, hi) at [slot], the empty slot [find] returned, and
   return the new node.  Reuses a freed node before a never-used one. *)
let add st slot lvl lo hi =
  let n =
    if st.free <> 0 then begin
      let n = st.free in
      st.free <- node_low st n;
      n
    end
    else begin
      if st.next = st.capacity then grow_nodes st;
      let n = st.next in
      st.next <- n + 1;
      n
    end
  in
  (* a new node's stamp is 0, below every walk's *)
  let s = seg st n and b = base n in
  s.(b) <- pack lvl lo;
  s.(b + 1) <- hi;
  st.buckets.(slot) <- entry n (hash lvl lo hi);
  st.live <- st.live + 1;
  (* keep the load at most 3/4: a miss stops at the first empty slot,
     and the hash bits spare it every node read on the way *)
  if 4 * st.live > 3 * (st.mask + 1) then begin
    st.resizes <- st.resizes + 1;
    rehash st (2 * (st.mask + 1)) ~only:0
  end;
  n

(* Free every node not reachable from the root edges [iter_roots]
   enumerates, then keep the survivors in a table sized to fit them. *)
let collect st iter_roots =
  let s = new_stamp st in
  let rec mark n =
    if stamp_of st n <> s then begin
      set_stamp st n s;
      if n <> 0 then begin
        mark (node_low st n lsr 1);
        mark (node_high st n lsr 1)
      end
    end
  in
  iter_roots (fun e -> mark (node e));
  (* Thread the dead onto the free list from the top down, so the
     lowest free index is reused first. *)
  st.free <- 0;
  st.live <- 0;
  for n = st.next - 1 downto 1 do
    if node_level st n = free_level || stamp_of st n <> s then begin
      let sg = seg st n and b = base n in
      sg.(b) <- pack free_level st.free;
      sg.(b + 1) <- 0;
      st.free <- n
    end
    else st.live <- st.live + 1
  done;
  st.sweeps <- st.sweeps + 1;
  let cap = ref initial_buckets in
  while !cap < 2 * st.live do
    cap := 2 * !cap
  done;
  rehash st !cap ~only:s

(* Check the store against its invariants; [Failure] names the first
   one broken.  Linear in the nodes and slots; for tests. *)
let check st =
  let fail fmt = Printf.ksprintf failwith ("Bdd.check_invariants: " ^^ fmt) in
  let interned n = n > 0 && n < st.next && node_level st n <> free_level in
  (* a walk's stamp is new only if no node carries it yet *)
  for n = 0 to st.next - 1 do
    if stamp_of st n > st.stamp then
      fail "node %d: stamp %d is past the counter %d" n (stamp_of st n) st.stamp
  done;
  (* each slot names an interned node, carries its hash bits, and no
     node is in two slots *)
  let s = new_stamp st in
  let used = ref 0 in
  for j = 0 to st.mask do
    let w = st.buckets.(j) in
    if w <> 0 then begin
      incr used;
      let n = w lsr 32 in
      if not (interned n) then fail "slot %d names node %d, not interned" j n;
      let h = hash (node_level st n) (node_low st n) (node_high st n) in
      if w land hash_mask <> hash_bits h then
        fail "slot %d: hash bits do not match node %d" j n;
      if stamp_of st n = s then fail "node %d is in two slots" n;
      set_stamp st n s
    end
  done;
  if 4 * !used > 3 * (st.mask + 1) then fail "table more than 3/4 full";
  let nonfree = ref 0 in
  for n = 1 to st.next - 1 do
    let lvl = node_level st n in
    if lvl = free_level then begin
      (* the low field links the free list (checked below); the rest of
         the node is zero *)
      let w1 = Array.unsafe_get (seg st n) (base n + 1) in
      if w1 <> 0 then fail "free node %d: second word is %d, not 0" n w1
    end
    else begin
      incr nonfree;
      let lo = node_low st n and hi = node_high st n in
      if hi land 1 <> 0 then fail "node %d: THEN edge complemented" n;
      if lo = hi then fail "node %d: low = high" n;
      let below e =
        let m = node e in
        if m <> 0 && not (interned m) then fail "node %d: child %d freed" n m;
        if level st e <= lvl then fail "node %d: a child's level is not below" n
      in
      below lo;
      below hi;
      if stamp_of st n <> s then fail "node %d is in no slot" n;
      (* [find] stops at the first match, so a second node with the
         same triple would be answered by its twin *)
      if find st lvl lo hi <> n then fail "node %d: its triple is not found as it" n
    end
  done;
  if !nonfree <> st.live then
    fail "live is %d, but %d nodes are interned" st.live !nonfree;
  if !used <> st.live then fail "%d slots used for %d live nodes" !used st.live;
  let rec free_list n k =
    if n = 0 then k
    else if n >= st.next || node_level st n <> free_level then
      fail "free list reaches node %d, which is not free" n
    else free_list (node_low st n) (k + 1)
  in
  let free = free_list st.free 0 in
  if free <> st.next - 1 - st.live then
    fail "free list holds %d of %d free nodes" free (st.next - 1 - st.live)

let stats st =
  [
    ("slots", st.mask + 1);
    ("bytes", 8 * (st.mask + 1));
    ("live", st.live);
    ("resizes", st.resizes);
    ("sweeps", st.sweeps);
  ]

let node_stats st =
  [
    ("capacity", st.capacity);
    ("bytes", Array.fold_left (fun b sg -> b + 8 * Array.length sg) 0 st.segs);
    ("handles", Weak.length st.handles);
  ]
