(** Bounded single-producer/single-consumer rings for the sharded data
    plane.

    A ring connects exactly two domains: one producer, one consumer.  The
    fast path is lock-free — a fixed slot array indexed by two monotonic
    atomic cursors; no mutex is touched to transfer an element.  The
    intended payload is a {e batch} of packets (or of per-packet results),
    so all cross-domain synchronization happens at batch granularity:
    pushing a 256-packet batch costs the same two atomic stores as pushing
    one packet would.

    Backpressure is the ring bound itself: {!push} blocks when the
    consumer has fallen [capacity] batches behind, which propagates stall
    back to the dispatcher instead of letting queues grow without limit.
    Blocking sides spin briefly (only when more than one core is
    available), then park on a condition variable; wakeups are only
    signalled when the peer is known to be parked, so the uncontended path
    stays syscall-free.

    Shutdown follows a drain-and-close protocol: the producer calls
    {!close} after its last {!push}; the consumer keeps receiving every
    pushed element and then gets [None] from {!pop}.  Pushing after close
    is a programming error and raises {!Closed}. *)

exception Closed

type 'a t = {
  slots : 'a option array;
  capacity : int;
  head : int Atomic.t;  (** next position to pop; only the consumer advances it *)
  tail : int Atomic.t;  (** next position to push; only the producer advances it *)
  closed : bool Atomic.t;
  waiters : int Atomic.t;  (** parties parked (or about to park) on [cond] *)
  lock : Mutex.t;
  cond : Condition.t;
  spin : int;  (** spin budget before parking; 0 on single-core hosts *)
}

let m_pushes =
  Hilti_obs.Metrics.counter "spsc_batches_pushed"
    ~help:"Batches transferred through SPSC rings"

let m_parks =
  Hilti_obs.Metrics.counter "spsc_parks"
    ~help:"Times a ring endpoint parked on the slow path (full or empty ring)"

let create ?(capacity = 8) () =
  if capacity < 1 then invalid_arg "Spsc_ring.create: capacity must be >= 1";
  {
    slots = Array.make capacity None;
    capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    closed = Atomic.make false;
    waiters = Atomic.make 0;
    lock = Mutex.create ();
    cond = Condition.create ();
    spin = (if Domain.recommended_domain_count () > 1 then 512 else 0);
  }

let capacity t = t.capacity
let length t = Atomic.get t.tail - Atomic.get t.head

(* Wake the peer iff it is parked (or committed to parking: it increments
   [waiters] before re-checking under the lock, so a positive count here
   can never miss a sleeper — see the ordering argument in push/pop). *)
let wake t =
  if Atomic.get t.waiters > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock
  end

(* Park until [ready] holds.  The waiter advertises itself in [waiters]
   BEFORE re-checking [ready] under the lock; the peer performs its state
   change BEFORE reading [waiters].  Both sides use sequentially consistent
   atomics, so either the peer sees the waiter (and broadcasts, serialized
   against the wait by [lock]) or the waiter's re-check sees the state
   change — a lost wakeup is impossible. *)
let park t ready =
  Atomic.incr t.waiters;
  Mutex.lock t.lock;
  while not (ready ()) do
    Condition.wait t.cond t.lock
  done;
  Mutex.unlock t.lock;
  Atomic.decr t.waiters

(** Producer side: enqueue [v] if the ring has room; [false] when full.
    Raises {!Closed} after {!close}. *)
let try_push t v =
  if Atomic.get t.closed then raise Closed;
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head >= t.capacity then false
  else begin
    t.slots.(tail mod t.capacity) <- Some v;
    (* Publish: the slot write above happens-before any consumer load that
       observes the new tail. *)
    Atomic.set t.tail (tail + 1);
    Hilti_obs.Metrics.incr m_pushes;
    wake t;
    true
  end

(** Consumer side: dequeue the oldest element; [None] when the ring is
    empty ({e not} necessarily closed — use {!pop} for blocking and
    end-of-stream detection). *)
let try_pop t =
  let head = Atomic.get t.head in
  if head >= Atomic.get t.tail then None
  else begin
    let slot = head mod t.capacity in
    let v = t.slots.(slot) in
    t.slots.(slot) <- None;  (* release the element to the GC *)
    Atomic.set t.head (head + 1);
    wake t;
    v
  end

(** Producer side: enqueue [v], blocking while the ring is full (the
    backpressure point).  Raises {!Closed} after {!close}. *)
let push t v =
  let rec go budget =
    if not (try_push t v) then
      if budget > 0 then begin
        Domain.cpu_relax ();
        go (budget - 1)
      end
      else begin
        Hilti_obs.Metrics.incr m_parks;
        park t (fun () ->
            Atomic.get t.closed
            || Atomic.get t.tail - Atomic.get t.head < t.capacity);
        go t.spin
      end
  in
  go t.spin

(** Consumer side: dequeue the oldest element, blocking while the ring is
    empty.  [None] only once the ring is closed {e and} fully drained. *)
let pop t =
  let rec go budget =
    match try_pop t with
    | Some _ as r -> r
    | None ->
        if Atomic.get t.closed && length t = 0 then None
        else if budget > 0 then begin
          Domain.cpu_relax ();
          go (budget - 1)
        end
        else begin
          Hilti_obs.Metrics.incr m_parks;
          park t (fun () ->
              Atomic.get t.closed || Atomic.get t.tail - Atomic.get t.head > 0);
          go t.spin
        end
  in
  go t.spin

(** Close the ring (producer side; idempotent).  Elements already pushed
    remain poppable; once drained, {!pop} returns [None]. *)
let close t =
  Atomic.set t.closed true;
  Mutex.lock t.lock;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock
