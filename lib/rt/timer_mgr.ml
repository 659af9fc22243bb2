(** Timer managers: independent notions of time (HILTI [timer_mgr], §3.2).

    Network analysis drives time from the trace, not the wall clock, and
    different analyses may need independent clocks (per-flow virtual time,
    global trace time, ...).  A manager owns a priority queue of timers and
    fires everything due when [advance] moves its clock forward.  Time never
    moves backwards; stale advances are ignored. *)

open Hilti_types

type t = {
  mutable now : Time_ns.t;
  mutable heap : Timer.t array;
  mutable size : int;
  mutable fired_total : int;
}

(* Fills heap slots no timer occupies, so a slot the queue has vacated
   does not keep a fired or canceled timer (and whatever its callback
   holds) reachable. *)
let vacant = Timer.create (fun () -> ())

let create () = { now = Time_ns.epoch; heap = Array.make 16 vacant; size = 0; fired_total = 0 }

let current t = t.now
let pending t = t.size
let fired_total t = t.fired_total

(* Binary min-heap ordered by fire time. ---------------------------------- *)

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  b.Timer.heap_index <- i;
  a.Timer.heap_index <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if Time_ns.compare t.heap.(i).Timer.fire_at t.heap.(parent).Timer.fire_at < 0
    then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size
     && Time_ns.compare t.heap.(l).Timer.fire_at t.heap.(!smallest).Timer.fire_at < 0
  then smallest := l;
  if r < t.size
     && Time_ns.compare t.heap.(r).Timer.fire_at t.heap.(!smallest).Timer.fire_at < 0
  then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t (timer : Timer.t) =
  if t.size = Array.length t.heap then begin
    let nheap = Array.make (2 * t.size) vacant in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end;
  t.heap.(t.size) <- timer;
  timer.Timer.heap_index <- t.size;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Take the timer at heap position [i] out of the queue: the last timer
   fills the hole and moves up or down to its place. *)
let remove_at t i =
  let timer = t.heap.(i) in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- vacant;
  if i < t.size then begin
    t.heap.(i) <- last;
    last.Timer.heap_index <- i;
    sift_up t i;
    sift_down t last.Timer.heap_index
  end;
  timer.Timer.heap_index <- -1;
  timer

let pop_min t = remove_at t 0

(* Public operations ------------------------------------------------------- *)

exception Already_scheduled

(** Schedule [timer] to fire at absolute time [at].  Timers scheduled at or
    before the manager's current time fire on the next [advance]. *)
let schedule t (timer : Timer.t) at =
  if timer.Timer.attached then raise Already_scheduled;
  timer.Timer.fire_at <- at;
  timer.Timer.canceled <- false;
  timer.Timer.attached <- true;
  push t timer

(** Cancel [timer].  When it is queued here it leaves the queue at once,
    so a canceled timer holds no slot until its fire time; a timer queued
    on another manager is only marked, and skipped when it surfaces. *)
let cancel t (timer : Timer.t) =
  let i = timer.Timer.heap_index in
  if i >= 0 && i < t.size && t.heap.(i) == timer then ignore (remove_at t i);
  Timer.cancel timer

(** Convenience: schedule a fresh timer [ival] into the future. *)
let schedule_in t callback ival =
  let timer = Timer.create callback in
  schedule t timer (Time_ns.add t.now (Interval_ns.to_ns ival));
  timer

(** Move the clock to [time], firing every due timer in fire-time order.
    Returns the number of timers fired.  A callback may [schedule] its own
    timer again (it is detached once it fires); if the new time is
    already due, the timer fires again later in the same call, at its
    sorted position. *)
let advance t time =
  if Time_ns.compare time t.now > 0 then t.now <- time;
  let fired = ref 0 in
  let continue = ref true in
  while !continue && t.size > 0 do
    let head = t.heap.(0) in
    if head.Timer.canceled then ignore (pop_min t)
    else if Time_ns.compare head.Timer.fire_at t.now <= 0 then begin
      let timer = pop_min t in
      incr fired;
      t.fired_total <- t.fired_total + 1;
      Timer.fire timer
    end
    else continue := false
  done;
  !fired

(** Advance by a relative interval. *)
let advance_by t ival = advance t (Time_ns.add t.now (Interval_ns.to_ns ival))

(** Fire every pending timer regardless of time (used at shutdown). *)
let expire_all t =
  let fired = ref 0 in
  while t.size > 0 do
    let timer = pop_min t in
    if not timer.Timer.canceled then begin
      incr fired;
      t.fired_total <- t.fired_total + 1;
      Timer.fire timer
    end
  done;
  !fired
