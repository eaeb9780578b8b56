(** Reduced ordered binary decision diagrams with complement edges.

    A from-scratch BDD package in the style of Brace, Rudell and Bryant
    (DAC 1990), the design also used by David Long's CMU package on which
    the paper's experiments ran.  Properties the verification layers rely
    on:

    - {b canonicity}: semantically equal functions are the same edge
      ([equal] is O(1));
    - {b constant-time negation} via complement edges;
    - {b shared size accounting} ([size_list]) for whole lists of BDDs;
    - the {b Restrict} and {b Constrain} care-set simplification
      operators of Coudert, Berthet and Madre.

    All operations are memoised per manager.  The package is not
    thread-safe; use one manager per thread.

    Nodes are not OCaml values: a manager keeps them as int triples in
    segmented int arrays that the OCaml GC never scans.  A {!t} is a small
    immutable handle on one of them.  The manager roots every handle it
    returns, weakly, so the handles the program can still reach decide
    what {!gc} keeps; nothing is ever freed inside an operation. *)

type t
(** A BDD: an immutable handle naming one edge (node and complement
    bit) of its manager.  Handles are cheap to keep, compare and drop;
    two handles for the same function are {!equal} but need not be
    physically equal.  Passing a handle to a function of another manager
    raises [Invalid_argument]. *)

type man
(** A manager: unique table, variable order, memo caches, statistics. *)

type varset
(** An interned set of variable levels, used for quantification. *)

(** {1 Managers and variables} *)

val create : ?cache_budget:int -> unit -> man
(** Fresh manager.  [cache_budget] caps the slot count of the shared
    computed table (rounded down to a power of two); the table is lossy
    -- colliding entries evict each other -- so it never grows past the
    budget and memoisation costs no per-lookup allocation. *)

val new_var : ?name:string -> man -> int
(** Allocate the next variable level (levels are allocated in order and
    never reordered; interleave related variables by allocating them
    adjacently). *)

val num_vars : man -> int
val var_name : man -> int -> string

(** {1 Constants and structure} *)

val tru : man -> t
val fls : man -> t
val of_bool : man -> bool -> t
val is_true : t -> bool
val is_false : t -> bool
val is_const : t -> bool

val equal : t -> t -> bool
(** Constant-time semantic equality (canonicity). *)

val compare : t -> t -> int
val hash : t -> int

val tag : t -> int
(** Integer identifying this BDD within its manager: two handles have
    the same tag iff they are {!equal}.  A held handle keeps its tag
    across {!gc}, but after a {!gc} a tag that no held handle carries
    may come back for a different function, so a table keyed by tags
    must be dropped when {!gc_events} moves unless it also holds the
    handles. *)

val level : t -> int
(** Level of the root variable; [max_int] on constants. *)

val var : man -> int -> t
(** The projection function of the variable at the given level. *)

val nvar : man -> int -> t
(** Complement of [var]. *)

val mk : man -> int -> low:t -> high:t -> t
(** Low-level node constructor (reduced, canonical).  The level must be
    strictly smaller than the root levels of both children. *)

val cofactors : t -> int -> t * t
(** [cofactors f v] is [(f with v:=false, f with v:=true)] provided the
    root of [f] is at level >= [v]. *)

(** {1 Boolean connectives} *)

val bnot : man -> t -> t
(** Constant-time complement. *)

val ite : man -> t -> t -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val biff : man -> t -> t -> t
val bimp : man -> t -> t -> t
val bnand : man -> t -> t -> t
val bnor : man -> t -> t -> t
val conj : man -> t list -> t
val disj : man -> t list -> t

val band_bounded : man -> max_steps:int -> t -> t -> t option
(** Conjunction with a recursion-step budget; [None] when the budget is
    exhausted.  Implements the paper's future-work "abort the operation
    if the size exceeds a specified bound" capability, used by the
    greedy evaluation policy to skip hopeless pairwise conjunctions. *)

val implies : man -> t -> t -> bool
(** [implies man f g] decides f => g. *)

val cofactor : man -> lvl:int -> value:bool -> t -> t
(** Restriction fixing one variable. *)

val compose : man -> lvl:int -> by:t -> t -> t
(** Substitute a function for a variable. *)

val vector_compose : man -> t option array -> t -> t
(** Simultaneous substitution: the variable at level [v] becomes
    [subst.(v)] ([None] keeps it; identity beyond the array).  The
    substituted functions read the original variable values (true
    simultaneous substitution), so mutually dependent substitutions
    behave correctly.  Memoised per substitution vector (interned by
    physical equality, so reuse the same array across calls). *)

(** {1 Quantification} *)

val varset : man -> int list -> varset
val varset_levels : varset -> int list
val exists : man -> varset -> t -> t
val forall : man -> varset -> t -> t

val and_exists : man -> varset -> t -> t -> t
(** Relational product [exists vs (f /\ g)] without building the
    conjunction. *)

val rename : man -> int array -> t -> t
(** [rename man perm f] maps each level [l] in the support of [f] to
    [perm.(l)] (identity beyond the array).  The mapping must be
    order-preserving on the support; raises [Not_monotone] otherwise. *)

exception Not_monotone

(** {1 Care-set simplification} *)

val restrict : man -> t -> t -> t
(** [restrict man f c] (Coudert-Berthet-Madre, a.k.a. Reduce): a function
    agreeing with [f] wherever [c] holds, heuristically smaller than
    [f].  Raises [Invalid_argument] if [c] is false. *)

val constrain : man -> t -> t -> t
(** Generalized cofactor; same contract as [restrict]. *)

val multi_restrict : man -> t -> t list -> t
(** [multi_restrict man f cs] simplifies [f] under the care set
    [c1 /\ ... /\ ck] without ever building the conjunction -- the
    simultaneous-simplification routine the paper's Section V calls
    for.  The result agrees with [f] wherever every [c_i] holds.
    Raises [Invalid_argument] if some [c_i] is constant false. *)

(** {1 Measures} *)

val size : t -> int
(** Number of distinct nodes, terminal included (the node-count
    convention of the paper's tables). *)

val size_list : t list -> int
(** Shared size of a list of BDDs: common nodes counted once. *)

val support : t -> int list
val support_list : t list -> int list

val sat_count : nvars:int -> t -> float
(** Number of satisfying assignments over levels [0..nvars-1]. *)

val eval : man -> bool array -> t -> bool
(** Evaluate under a total assignment indexed by level. *)

val pick_minterm : man -> vars:int list -> t -> bool array
(** Some satisfying assignment (false off the witness path); raises
    [Not_found] on the constant false. *)

(** {1 Statistics and memory} *)

val live_nodes : man -> int
(** Internal nodes (the terminal excluded) the manager holds now: an
    exact O(1) counter.  Only {!gc} frees nodes, so between calls it
    counts every node interned since the last one; right after a {!gc}
    it equals the number of internal nodes reachable from the handles
    the program still holds.  It depends on the sequence of operations
    only, never on when the OCaml GC runs. *)

val created_nodes : man -> int
(** Monotone count of nodes ever interned, including nodes interned
    again after a {!gc} freed them; a machine-independent proxy for
    the paper's "total memory used" column.  Like {!live_nodes} it does
    not depend on the OCaml GC's settings or timing. *)

val peak_live_nodes : man -> int
(** Largest {!live_nodes} value so far. *)

val cache_stats : man -> (string * int * int) list
(** [(name, hits, misses)] for each of the eight memo caches (ite,
    and_exists, exists, restrict, constrain, cofactor, rename,
    vcompose), in that fixed order.  A hit is a lookup answered from
    the cache; a miss proceeds into the recursive case.  The bounded
    conjunction shares the ITE cache, so its lookups count there. *)

val gc_events : man -> int
(** Times the computed table was invalidated under pressure: explicit
    {!gc} calls plus budget-triggered trims.  (With the lossy computed
    table the budget is enforced structurally, so budget trims only
    occur if [cache_budget] is shrunk on a live manager.)  A freed node
    index is reused only after this counter has moved. *)

val clear_caches : man -> unit
(** Invalidate every memoised result in O(1) (a generation bump: stale
    entries silently stop matching). *)

val gc : man -> unit
(** The manager's only collector.  Runs a full major OCaml GC, marks
    every node reachable from the handles that survived it, puts the
    other nodes on a free list for later reuse, rebuilds the unique
    table from the survivors, empties the computed table and bumps
    {!gc_events}.  Afterwards {!live_nodes} is exact.  Costs a full
    major collection plus time linear in the nodes held; call it
    between operations (never from a progress or fault hook). *)

val check_invariants : man -> unit
(** Check the node store and unique table: every THEN edge is regular,
    no node has equal children, levels grow downward, no triple is
    interned twice, every unique-table slot carries its node's hash
    bits, every interned node sits in exactly one slot, the free list
    holds exactly the free nodes, and {!live_nodes} counts the interned
    nodes.  Raises [Failure] naming the first violation.  Linear in the
    nodes and slots; for tests. *)

val computed_table_stats : man -> (string * int) list
(** Shared computed-table counters: [slots] (current capacity; 4 words
    each), [occupied], [evictions] (stores that displaced a different
    entry), [resizes] (doublings), [trims] (generation bumps from
    {!clear_caches} and budget trims). *)

val unique_table_stats : man -> (string * int) list
(** Unique-table counters: [slots] (current capacity; one word each),
    [live] (as {!live_nodes}), [resizes] (doublings under growth; the
    node store grows separately, by segments, and is not counted) and
    [sweeps] ({!gc} passes). *)

val progress_period : int
(** 65536: the progress hook runs once per this many node creations and
    once per this many recursion steps. *)

val set_progress_hook : man -> (man -> unit) option -> unit
(** Callback invoked every {!progress_period} node creations and
    recursion steps, even in the middle of a single BDD operation;
    raising from it aborts the operation (this is how resource budgets
    interrupt blown-up images). *)

val progress_hook : man -> (man -> unit) option
(** The currently installed progress hook, so guards can chain and
    restore it. *)

val set_fault_hook : man -> (man -> unit) option -> unit
(** Fault-injection point: unlike the sampled progress hook, this
    callback is consulted on {e every} recursion step and node creation,
    so a hook keyed on {!created_nodes} or {!steps} raises at an exact,
    reproducible point.  Intended for tests that exercise resource-
    exhaustion recovery paths (checkpoint write, budget restoration,
    portfolio fallback) deterministically instead of only on real
    blowups. *)

exception Node_budget_exhausted
(** Raised by the {!with_node_budget} guard hook (and catchable by
    resilient drivers when a fault-injection hook raises it outside any
    budget region). *)

val with_node_budget : man -> max_new_nodes:int -> (unit -> 'a) -> 'a option
(** Run a computation that is abandoned ([None]) once it would create
    more than [max_new_nodes] nodes.  The budget is exact: a creation
    that would pass it raises instead, so an abandoned computation
    created exactly [max_new_nodes] nodes.  Only this region's own
    exhaustion yields [None]: an enclosing budget running out inside it,
    or a fault hook raising {!Node_budget_exhausted}, propagates.  Used
    to race alternative image-computation strategies. *)

val steps : man -> int
(** Monotone count of non-cached recursion steps across all operations
    (a machine-independent work measure). *)

(** {1 Enumeration} *)

val cubes : t -> (int * bool) list Seq.t
(** Lazy sequence of satisfying paths as partial assignments
    [(level, phase)]; variables absent from a cube are free. *)

val minterms : man -> vars:int list -> t -> bool array Seq.t
(** Lazy sequence of total satisfying assignments over [vars] (which
    should cover the support).  Arrays are fresh per element. *)

val count_cubes : t -> int
(** Number of satisfying paths (not minterms). *)

(** {1 Variable-order optimisation} *)

module Reorder : sig
  val transfer : dst:man -> perm:int array -> t list -> t list
  (** Rebuild the roots with level [l] mapped to [perm.(l)] (identity
      beyond the array), in [dst] (which must have the target levels
      allocated).  Any permutation is accepted: reconstruction goes
      through ITE, so non-monotone maps are fine (contrast
      {!rename}). *)

  val greedy_adjacent : ?passes:int -> man -> t list -> int array
  (** Offline order search by adjacent-position swaps (sifting
      flavoured), each candidate evaluated by transfer into a scratch
      manager; returns the permutation (old level -> new level)
      minimising the shared size it found.  A model-development
      utility, not for dynamic use mid-verification. *)

  val sift : ?passes:int -> man -> t list -> int array
  (** Classical sifting, offline: move each variable through every
      position, keep the best.  Much stronger than {!greedy_adjacent}
      (escapes its local minima, e.g. it recovers a grouped order from
      a fully interleaved one) at O(passes * nvars^2) transfer
      evaluations. *)

  val apply : dst:man -> man -> t list -> int array -> t list
  (** Transfer the roots into [dst] under a permutation found by
      {!greedy_adjacent} or {!sift}.  Validates against the source
      manager [man]: raises [Invalid_argument] if the permutation is
      not injective over [man]'s variables or maps a level outside the
      variables allocated in [dst]. *)
end

(** {1 Serialization} *)

module Serialize : sig
  exception Parse_error of string

  val to_channel : out_channel -> t list -> unit
  (** Write a list of roots (with full sharing) in a stable textual
      format. *)

  val of_channel : ?map:(int -> int) -> man -> in_channel -> t list
  (** Read roots back, rebuilding through the manager's unique table.
      [map] relocates variable levels (identity by default) and must be
      order-preserving. *)

  val to_file : man -> string -> t list -> unit
  val of_file : ?map:(int -> int) -> man -> string -> t list

  val to_string : t list -> string
  (** In-memory counterpart of {!to_channel}: the same textual format
      as one string.  Strings are immutable, so the result is safe to
      share across domains (the root BDDs themselves are not). *)

  val of_string : ?map:(int -> int) -> man -> string -> t list
  (** In-memory counterpart of {!of_channel}. *)
end

(** {1 Kernel internals (for tests and benchmarks)} *)

(** Direct handle on the lossy computed-table implementation, exposed
    so unit tests can exercise collisions, eviction, resizing and
    generation invalidation on tiny standalone tables.  Verification
    code should never need this: every operator memoises through the
    manager's own table automatically.  Keys and results are ints (the
    kernel stores edges, i.e. {!tag}s); the third operand shares a word
    with the op and generation, so it must be at least 0 and below
    2^32 ([Invalid_argument] otherwise), and results must be [>= 0]. *)
module Computed_table : sig
  type table

  val create : budget:int -> table
  (** Slot count capped at the largest power of two <= [budget]
      (minimum 64); starts small and doubles under occupancy. *)

  val miss : int
  (** The lookup-miss result, [-1]. *)

  val find : table -> int -> int -> int -> int -> int
  (** [find tbl op a b c] returns the cached result or {!miss}.
      Allocation-free. *)

  val store : table -> int -> int -> int -> int -> int -> unit
  (** Direct-mapped store; evicts whatever occupied the slot. *)

  val trim : table -> unit
  (** O(1) invalidation (generation bump).  The generation has 25 bits;
      the bump past the last one empties the table instead. *)

  val clear : table -> unit
  (** Invalidate and empty every slot. *)

  val slots : table -> int
  val occupied : table -> int
  val stats : table -> (string * int) list
end

(** {1 Debugging} *)

val pp : man -> Format.formatter -> t -> unit

module Dot : sig
  val to_channel : man -> out_channel -> t list -> unit
  val to_file : man -> string -> t list -> unit
end
