(** The moving-average filter (Section IV.A, Figure 2): a pipelined
    adder tree against a direct specification with a matching delay
    FIFO.  Property: the two outputs agree (one conjunct per output
    bit).  [assisted] adds the per-layer assisting invariants
    ("the sum of each adder-tree layer equals the corresponding delay
    FIFO entry") that the paper's new policy re-derives automatically. *)

type params = { depth : int; sample_width : int; assisted : bool; bug : bool }

val default : params
(** depth 4, 8-bit samples, unassisted, no bug. *)

val name : params -> string

val make : params -> Mc.Model.t
(** [depth] must be a power of two (>= 2), else [Invalid_argument].
    [bug] makes the first layer-1 adder double its first operand,
    planting a violation. *)

type handles = {
  window : Fsm.Space.word array;
  layers : Fsm.Space.word array array;  (** [layers.(l-1)] is layer l *)
  dfifo : Fsm.Space.word array;
  x : int array;
  lemmas : Bdd.t list;
      (** the per-layer assisting invariants, always computed so callers
          can compare them with automatically derived ones *)
}

val make_full : params -> Mc.Model.t * handles
(** [make] plus the variable handles, for reference simulators. *)
