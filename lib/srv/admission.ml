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
   which is each worker's signal to exit.  Both lanes are FIFO. *)

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  normal : 'a Queue.t;
  urgent : 'a Queue.t;
  mutable closed : bool;
}

let create ~capacity () =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    capacity = max 1 capacity;
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
        Queue.push x t.normal;
        Condition.signal t.nonempty;
        Ok (Queue.length t.normal + Queue.length t.urgent)
      end)

let push_urgent t x =
  with_lock t (fun () ->
      if not t.closed then begin
        Queue.push x t.urgent;
        Condition.signal t.nonempty
      end)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.urgent) then Some (Queue.pop t.urgent)
        else if not (Queue.is_empty t.normal) then Some (Queue.pop t.normal)
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
