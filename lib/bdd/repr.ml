(* Internal representation of BDD nodes and edges.

   The package follows the classic Brace-Rudell-Bryant design: reduced
   ordered BDDs with hash-consed nodes and complement ("negative") edges.
   The complement bit lives on edges, never on nodes; to keep the
   representation canonical the THEN (high) edge of every node is regular
   (not complemented).  Negation is therefore a constant-time bit flip,
   which the verification algorithms built on top rely on.

   No node is an OCaml heap object.  A node is an index into the node
   store, a directory of [int array] segments of two words per node,
   and an edge is the int [node lsl 1 lor neg].  Word 0 of a node is
   [level lsl 32 lor low] and word 1 is [stamp lsl 32 lor high]: the
   level and the two child edges, plus the mark a walk leaves, in 16
   bytes.  Node 0 is the terminal, so the edge 0 is TRUE and the edge 1
   is FALSE.  The kernel computes on edges alone: an operation step
   allocates nothing, stores no pointer and needs no write barrier.

   The public [Bdd.t] is a handle [{edge; store}] built only at the
   facade.  Every handle that names an internal node is recorded in the
   store's weak registry, and the registry is the only root set: nodes
   are freed by [Man.gc] alone, which marks from the handles that
   survive a full major collection. *)

type t = { edge : int; store : store }

and store = {
  mutable segs : int array array;
      (* the node store: node [n] is the 2 words at [2 * (n land
         seg_mask)] of segment [n lsr seg_bits], [level lsl 32 lor low]
         then [stamp lsl 32 lor high].  The terminal's level is
         [terminal_level]; a free node's level is [free_level] and its
         low field links the free list. *)
  mutable capacity : int; (* nodes the segments hold *)
  mutable next : int; (* first node index never handed out *)
  mutable free : int; (* head of the free list; 0 = empty *)
  mutable live : int; (* interned internal nodes *)
  mutable buckets : int array;
      (* the unique table: open addressing, linear probing; a slot
         holds [node lsl 32 lor] the low 32 bits of the node's hash,
         0 = empty (see [Unique]) *)
  mutable mask : int; (* Array.length buckets - 1 *)
  mutable resizes : int;
  mutable sweeps : int;
  mutable stamp : int;
      (* the current walk's stamp: a walk marks a node visited by writing
         it into the node's stamp field, so walks never clear anything *)
  mutable handles : t Weak.t; (* the registry of rooted handles *)
  mutable handle_count : int; (* registry slots in use *)
}

(* A node word holds a child edge in its low 32 bits and the level or
   the stamp in the 31 bits above, read with [asr] for the level (so
   [free_level] reads back) and [lsr] for the stamp.  Nodes, levels and
   stamps stay below 2^30: the edges then fit their field, and a
   unique-table slot, [node lsl 32] above 32 hash bits, stays
   positive. *)
let field_bits = 32
let field_mask = (1 lsl field_bits) - 1
let terminal_level = (1 lsl 30) - 1
let free_level = -1
let max_nodes = 1 lsl 30
let max_stamp = (1 lsl 30) - 1

(* A segment holds 2^16 nodes, 1 MB.  Segment 0 starts smaller and
   doubles until it is full, so a small manager stays small; after that
   the store grows by whole segments, and growing never moves a node. *)
let seg_bits = 16
let seg_nodes = 1 lsl seg_bits
let seg_mask = seg_nodes - 1

(* A fresh [int array] of [n] words, each [v], in a block the major GC
   never scans: every kernel table is one, so marking never walks
   millions of ints.  The block is uninitialised until the loop fills
   it, and nothing but this loop may write it first: [Array.fill] and
   [Array.blit] would read the garbage as pointers. *)
let ints n v : int array =
  let a : int array = Obj.obj (Obj.new_block Obj.abstract_tag n) in
  for i = 0 to n - 1 do
    Array.unsafe_set a i v
  done;
  a

(* Call after a table of [words] words was replaced by a bigger one.  A
   big old table would stay resident until the GC next completes a
   cycle, often after the next doubling too, so it is released at once.
   The kernel's arrays are not scanned, so a full major costs only the
   rest of the heap, about a millisecond. *)
let release words = if words >= 1 lsl 20 then Gc.full_major ()

let tru = 0
let fls = 1

let[@inline] is_const e = e <= 1
let[@inline] is_true e = e = 0
let[@inline] is_false e = e = 1
let[@inline] neg e = e lxor 1
let[@inline] node e = e lsr 1
let of_bool b = if b then tru else fls

(* The segment holding node [n], and the offset of its first word
   there.  Every node the kernel handles is interned in this store (the
   facade rejects handles of another store), so the reads need no
   bounds check. *)
let[@inline] seg st n = Array.unsafe_get st.segs (n lsr seg_bits)
let[@inline] base n = 2 * (n land seg_mask)

(* A node's first word. *)
let[@inline] pack lvl lo = (lvl lsl field_bits) lor lo

(* Node fields, by node index. *)
let[@inline] node_level st n =
  Array.unsafe_get (seg st n) (base n) asr field_bits
let[@inline] node_low st n =
  Array.unsafe_get (seg st n) (base n) land field_mask
let[@inline] node_high st n =
  Array.unsafe_get (seg st n) (base n + 1) land field_mask

(* Node fields, by edge. *)
let[@inline] level st e = node_level st (e lsr 1)
let[@inline] low st e = node_low st (e lsr 1) lxor (e land 1)
let[@inline] high st e = node_high st (e lsr 1) lxor (e land 1)

(* Cofactors of [e] with respect to the variable at level [v]: [e]
   itself when its root lies below [v]. *)
let[@inline] cof0 st e v = if level st e = v then low st e else e
let[@inline] cof1 st e v = if level st e = v then high st e else e

let[@inline] stamp_of st n =
  Array.unsafe_get (seg st n) (base n + 1) lsr field_bits

let[@inline] set_stamp st n s =
  let sg = seg st n and b = base n + 1 in
  Array.unsafe_set sg b
    ((s lsl field_bits) lor (Array.unsafe_get sg b land field_mask))

(* Start a walk: afterwards [stamp_of st n = stamp] means "visited".
   When the counter has used its 30 bits, every stamp is cleared once
   and the count starts again. *)
let new_stamp st =
  if st.stamp = max_stamp then begin
    for n = 0 to st.next - 1 do
      set_stamp st n 0
    done;
    st.stamp <- 0
  end;
  st.stamp <- st.stamp + 1;
  st.stamp

(* --- handles ----------------------------------------------------------- *)

(* Drop the registry entries whose handles the OCaml GC has collected. *)
let sweep_handles st =
  let w = st.handles in
  let kept = ref 0 in
  for i = 0 to st.handle_count - 1 do
    if Weak.check w i then begin
      if i <> !kept then Weak.blit w i w !kept 1;
      incr kept
    end
  done;
  Weak.fill w !kept (st.handle_count - !kept) None;
  st.handle_count <- !kept

(* A registry of this many slots is collected before it doubles. *)
let collect_handles_at = 1 lsl 14

(* Sweep, and double the registry when more than half of it is still in
   use.  An entry passes [Weak.check] until the major GC has finished
   with its dead handle, so on a manager that is reused run after run
   most entries of a big registry are dead handles that the GC has not
   reached: a big registry forces a collection and sweeps again before
   it doubles.  The collection finishes the major cycle in progress and
   runs one whole cycle, which clears every handle dead before it
   began; [Gc.full_major] would run a third, at more than twice the
   pause in a daemon.  A small registry never forces a collection,
   which would cost a cold run more than the slots it saves. *)
let compact_handles st =
  let full () = 2 * st.handle_count > Weak.length st.handles in
  sweep_handles st;
  if full () && Weak.length st.handles >= collect_handles_at then begin
    Gc.major ();
    Gc.major ();
    sweep_handles st
  end;
  if full () then begin
    let grown = Weak.create (2 * Weak.length st.handles) in
    Weak.blit st.handles 0 grown 0 st.handle_count;
    st.handles <- grown
  end

(* The handle for [e].  Constants need no root: the terminal is never
   freed. *)
let handle st e =
  let h = { edge = e; store = st } in
  if e > 1 then begin
    if st.handle_count = Weak.length st.handles then compact_handles st;
    Weak.set st.handles st.handle_count (Some h);
    st.handle_count <- st.handle_count + 1
  end;
  h
