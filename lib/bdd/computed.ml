(* The computed table: one lossy, open-addressed, direct-mapped cache
   shared by every memoised operator (CUDD-style).

   Layout: one flat [int array] the GC never scans ([Repr.ints]), four
   words per slot: the tag word, which packs the generation, the third
   operand and the op, then the first two operands and the result edge,
   so a hit reads one contiguous run of memory.  A lookup hashes the
   four key ints to a single slot and compares three words; a store
   overwrites whatever lives there (eviction-on-collision).  The array
   holds only ints, so neither path allocates or runs a write barrier,
   and a miss is the result [-1].
   Correctness never depends on residency: a missed entry is merely
   recomputed, and canonical hash-consing makes the recomputed result
   the same edge.

   Sizing is power-of-two with occupancy-driven doubling (when more
   than half the slots are filled) up to a cap derived from the
   manager's [cache_budget].  Invalidation ("trim") is a generation
   bump: the current generation is packed into the tag word, so all
   resident entries silently stop matching in O(1).  The generation has
   25 bits; the bump past the last one empties the table and starts
   again at 0.  [clear] also empties every slot; [Bdd.gc] uses it,
   because a collection may free the nodes that cached keys and results
   name. *)

(* Operator tags, packed into the low bits of the tag word.  Must stay
   below [ops_width]. *)
let op_ite = 0
let op_band = 1 (* bounded conjunction; shares the "ite" hit/miss stats *)
let op_exists = 2
let op_and_exists = 3
let op_restrict = 4
let op_constrain = 5
let op_cofactor = 6
let op_rename = 7
let op_vcompose = 8

(* The tag word: [generation lsl gen_shift lor c lsl ops_bits lor op].
   The third operand [c] must lie in [0, 2^32): the kernel passes an
   edge (nodes stay below 2^30) or 0.  The word stays non-negative, so
   it never equals the empty slot's [-1]. *)
let ops_bits = 5 (* up to 32 distinct operator tags *)
let ops_mask = (1 lsl ops_bits) - 1
let c_bits = 32
let c_mask = (1 lsl c_bits) - 1
let gen_shift = ops_bits + c_bits
let max_generation = (1 lsl (62 - gen_shift)) - 1

type t = {
  mutable data : int array; (* stride 4: [tagword; a; b; result] *)
  mutable mask : int; (* slots - 1; slots is a power of two *)
  mutable occupied : int; (* slots holding any entry (any generation) *)
  mutable generation : int;
  max_slots : int;
  (* table-level counters, exported via [stats] *)
  mutable evictions : int;
  mutable resizes : int;
  mutable trims : int;
}

let stride = 4

(* The lookup-miss result; every edge is >= 0. *)
let miss = -1

let floor_pow2 n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  go 1

let create ~budget =
  let max_slots = floor_pow2 (max budget 64) in
  let slots = min 8192 max_slots in
  {
    data = Repr.ints (slots * stride) (-1);
    mask = slots - 1;
    occupied = 0;
    generation = 0;
    max_slots;
    evictions = 0;
    resizes = 0;
    trims = 0;
  }

let slots t = t.mask + 1
let occupied t = t.occupied

(* Mixing the four key ints down to a slot index.  The constants are
   the usual 32-bit avalanche multipliers; quality only affects the
   eviction rate, never correctness. *)
let[@inline] index t op a b c =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) in
  let h = (h lxor (c * 0xc2b2ae35)) lxor op in
  (h lxor (h lsr 17)) land t.mask

let[@inline] tagword t op c =
  (t.generation lsl gen_shift) lor (c lsl ops_bits) lor op

(* [index] is masked, so every slot read below is in bounds. *)
let[@inline] find t op a b c =
  let k = stride * index t op a b c in
  let d = t.data in
  if
    Array.unsafe_get d k = tagword t op c
    && Array.unsafe_get d (k + 1) = a
    && Array.unsafe_get d (k + 2) = b
  then Array.unsafe_get d (k + 3)
  else miss

(* Grow to [slots * 2], re-inserting only current-generation entries
   (stale ones are dropped). *)
let resize t =
  let old = t.data in
  let old_slots = t.mask + 1 in
  let slots = old_slots * 2 in
  let d = Repr.ints (slots * stride) (-1) in
  t.data <- d;
  t.mask <- slots - 1;
  t.occupied <- 0;
  t.resizes <- t.resizes + 1;
  let gen_floor = t.generation lsl gen_shift in
  for i = 0 to old_slots - 1 do
    let k = i * stride in
    let w = Array.unsafe_get old k in
    if w >= gen_floor then begin
      (* current generation: reinsert (still direct-mapped, so a
         same-slot pair after rehash keeps only the later one) *)
      let a = Array.unsafe_get old (k + 1)
      and b = Array.unsafe_get old (k + 2)
      and c = (w lsr ops_bits) land c_mask in
      let jk = stride * index t (w land ops_mask) a b c in
      if Array.unsafe_get d jk = -1 then t.occupied <- t.occupied + 1;
      Array.unsafe_set d jk w;
      Array.unsafe_set d (jk + 1) a;
      Array.unsafe_set d (jk + 2) b;
      Array.unsafe_set d (jk + 3) (Array.unsafe_get old (k + 3))
    end
  done;
  Repr.release (Array.length old)

let store t op a b c r =
  if t.occupied * 2 > t.mask + 1 && t.mask + 1 < t.max_slots then resize t;
  let k = stride * index t op a b c in
  let d = t.data in
  let w = tagword t op c in
  let old = Array.unsafe_get d k in
  if old = -1 then t.occupied <- t.occupied + 1
  else if
    not
      (old = w
      && Array.unsafe_get d (k + 1) = a
      && Array.unsafe_get d (k + 2) = b)
  then t.evictions <- t.evictions + 1;
  Array.unsafe_set d k w;
  Array.unsafe_set d (k + 1) a;
  Array.unsafe_set d (k + 2) b;
  Array.unsafe_set d (k + 3) r

let empty t =
  t.occupied <- 0;
  let d = t.data in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (-1)
  done

(* The next generation; past the last one the tag word has no room, so
   the table is emptied and generation 0 starts again. *)
let bump t =
  if t.generation = max_generation then begin
    empty t;
    t.generation <- 0
  end
  else t.generation <- t.generation + 1

(* O(1) invalidation: every resident entry's tag word now belongs to a
   dead generation and can never match again. *)
let trim t =
  bump t;
  t.trims <- t.trims + 1

(* Deep clear: invalidate and empty every slot. *)
let clear t =
  bump t;
  empty t

let stats t =
  [
    ("slots", t.mask + 1);
    ("bytes", 8 * Array.length t.data);
    ("occupied", t.occupied);
    ("evictions", t.evictions);
    ("resizes", t.resizes);
    ("trims", t.trims);
  ]
