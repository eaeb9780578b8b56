(** Bounded admission queue: the daemon's backpressure primitive.

    The normal lane is capped; a full queue refuses immediately, which
    the daemon turns into an explicit protocol rejection — overload is
    always an answer, never an unbounded buffer.  The urgent lane
    carries requeued jobs (crash/hang recovery): already admitted
    once, so bouncing them on a full queue would turn a worker fault
    into a lost job.  It is popped first and bypasses the cap; its
    size is bounded by the number of in-flight jobs, which the cap
    already bounded.  Both lanes are FIFO. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** [capacity] is clamped to at least 1. *)

val try_push : 'a t -> 'a -> (int, string) result
(** Enqueue on the normal lane.  [Ok depth] with the resulting total
    depth, or [Error reason] when full or closed — never blocks. *)

val push_urgent : 'a t -> 'a -> unit
(** Enqueue on the urgent lane (no-op after {!close}). *)

val pop : 'a t -> 'a option
(** Block until an element is available (urgent lane first) or the
    queue is closed and drained, then [None] — the consumer's signal
    to exit. *)

val close : 'a t -> unit
(** Refuse further pushes and wake all blocked consumers. *)

val depth : 'a t -> int
val is_empty : 'a t -> bool
