(* Bounded admission queue: the daemon's backpressure primitive.

   Two lanes.  The normal lane is capped at [capacity]; when it is full
   [try_push] refuses immediately, which the daemon turns into an
   explicit "rejected" event -- overload is always a protocol answer,
   never an unbounded buffer.  The urgent lane is for requeued jobs
   (crash/hang recovery): they were already admitted once, so bouncing
   them on a full queue would turn a worker fault into a lost job.  It
   is popped first and bypasses the cap; its size is bounded by the
   number of in-flight jobs, which the cap already bounded.

   Consumers are the pool's worker domains; [pop] blocks on a condition
   variable and returns [None] once the queue is closed and drained,
   which is each worker's signal to exit.

   Affinity: a consumer may pass a [prefer] predicate, and [pop] then
   takes the first preferred entry among the first [window] of the
   normal lane instead of its head.  Every entry taken out of order
   "passes" the entries ahead of it; an entry that has been passed
   [max_passes] times can no longer be passed, so the scan stops there
   and the head is taken.  Reordering is thereby bounded per job, not
   just on average. *)

type 'a entry = { item : 'a; mutable passed : int }

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  max_passes : int;
  mutable normal : 'a entry Queue.t;
  urgent : 'a Queue.t;
  mutable closed : bool;
}

let window = 8

let create ~max_passes ~capacity () =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    capacity = max 1 capacity;
    max_passes;
    normal = Queue.create ();
    urgent = Queue.create ();
    closed = false;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed then Error "queue closed"
      else if Queue.length t.normal >= t.capacity then
        Error
          (Printf.sprintf "queue full (capacity %d)" t.capacity)
      else begin
        Queue.push { item = x; passed = 0 } t.normal;
        Condition.signal t.nonempty;
        Ok (Queue.length t.normal + Queue.length t.urgent)
      end)

let push_urgent t x =
  with_lock t (fun () ->
      if not t.closed then begin
        Queue.push x t.urgent;
        Condition.signal t.nonempty
      end)

(* Offset of the entry to take: the first preferred one that passes
   only entries still under the bound, else 0 (the head). *)
let pick t prefer =
  let rec scan i = function
    | Seq.Nil -> 0
    | Seq.Cons (e, rest) ->
      if i >= window then 0
      else if prefer e.item then i
      else if e.passed >= t.max_passes then 0
      else scan (i + 1) (rest ())
  in
  scan 0 (Queue.to_seq t.normal ())

(* Remove and return the entry at offset [i], charging one pass to each
   entry ahead of it.  O(i): the prefix moves to a fresh queue and the
   rest is appended by [Queue.transfer]. *)
let take_at t i =
  if i = 0 then (Queue.pop t.normal).item
  else begin
    let front = Queue.create () in
    for _ = 1 to i do
      let e = Queue.pop t.normal in
      e.passed <- e.passed + 1;
      Queue.push e front
    done;
    let e = Queue.pop t.normal in
    Queue.transfer t.normal front;
    t.normal <- front;
    e.item
  end

let pop ?prefer t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.urgent) then Some (Queue.pop t.urgent)
        else if not (Queue.is_empty t.normal) then
          Some
            (take_at t
               (match prefer with None -> 0 | Some p -> pick t p))
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.lock;
          wait ()
        end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let depth t =
  with_lock t (fun () -> Queue.length t.normal + Queue.length t.urgent)

let is_empty t = depth t = 0
