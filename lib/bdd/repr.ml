(* Internal representation of BDD nodes and edges.

   The package follows the classic Brace-Rudell-Bryant design: reduced
   ordered BDDs with hash-consed nodes and complement ("negative") edges.
   The complement bit lives on edges, never on nodes; to keep the
   representation canonical the THEN (high) edge of every node is regular
   (not complemented).  Negation is therefore a constant-time bit flip,
   which the verification algorithms built on top rely on.

   No node is an OCaml heap object.  A node is an index into one flat
   [int array] of (level, low, high) triples, and an edge is the int
   [node lsl 1 lor neg].  Node 0 is the terminal, so the edge 0 is TRUE
   and the edge 1 is FALSE.  The kernel computes on edges alone: an
   operation step allocates nothing, stores no pointer and needs no
   write barrier.

   The public [Bdd.t] is a handle [{edge; store}] built only at the
   facade.  Every handle that names an internal node is recorded in the
   store's weak registry, and the registry is the only root set: nodes
   are freed by [Man.gc] alone, which marks from the handles that
   survive a full major collection. *)

type t = { edge : int; store : store }

and store = {
  mutable nodes : int array;
      (* 3 words per node: level, low edge, high edge.  The terminal's
         level is [terminal_level]; a free node's level is [free_level]
         and its low word links the free list. *)
  mutable next : int; (* first node index never handed out *)
  mutable free : int; (* head of the free list; 0 = empty *)
  mutable live : int; (* interned internal nodes *)
  mutable buckets : int array;
      (* the unique table: open addressing, linear probing; a slot
         holds [node lsl 16 lor hash bits], 0 = empty (see [Unique]) *)
  mutable mask : int; (* Array.length buckets - 1 *)
  mutable resizes : int;
  mutable sweeps : int;
  mutable stamps : int array;
      (* one word per node: a walk marks a node visited by writing the
         current [stamp], so walks never clear anything *)
  mutable stamp : int;
  mutable handles : t Weak.t; (* the registry of rooted handles *)
  mutable handle_count : int; (* registry slots in use *)
}

let terminal_level = max_int
let free_level = -1

let tru = 0
let fls = 1

let[@inline] is_const e = e <= 1
let[@inline] is_true e = e = 0
let[@inline] is_false e = e = 1
let[@inline] neg e = e lxor 1
let[@inline] node e = e lsr 1
let of_bool b = if b then tru else fls

(* Node fields.  Every edge the kernel handles names an interned node of
   this store (the facade rejects handles of another store), so the
   reads need no bounds check. *)
let[@inline] level st e = Array.unsafe_get st.nodes (3 * (e lsr 1))

let[@inline] low st e =
  Array.unsafe_get st.nodes ((3 * (e lsr 1)) + 1) lxor (e land 1)

let[@inline] high st e =
  Array.unsafe_get st.nodes ((3 * (e lsr 1)) + 2) lxor (e land 1)

(* Cofactors of [e] with respect to the variable at level [v]: [e]
   itself when its root lies below [v]. *)
let[@inline] cof0 st e v = if level st e = v then low st e else e
let[@inline] cof1 st e v = if level st e = v then high st e else e

(* Start a walk: afterwards [stamps.(n) = stamp] means "visited". *)
let new_stamp st =
  st.stamp <- st.stamp + 1;
  st.stamp

(* --- handles ----------------------------------------------------------- *)

(* Drop the registry entries whose handles the OCaml GC has collected,
   and double the registry when more than half of it is still in use. *)
let compact_handles st =
  let w = st.handles in
  let kept = ref 0 in
  for i = 0 to st.handle_count - 1 do
    if Weak.check w i then begin
      if i <> !kept then Weak.blit w i w !kept 1;
      incr kept
    end
  done;
  Weak.fill w !kept (st.handle_count - !kept) None;
  st.handle_count <- !kept;
  if 2 * !kept > Weak.length w then begin
    let grown = Weak.create (2 * Weak.length w) in
    Weak.blit w 0 grown 0 !kept;
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
