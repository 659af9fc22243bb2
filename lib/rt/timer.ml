(** Timers: scheduled callbacks (HILTI [timer]).

    A timer wraps a callback fired by a {!Timer_mgr} when its notion of time
    reaches the timer's expiration.  Timers can be rescheduled or canceled;
    each timer is attached to at most one manager at a time. *)

open Hilti_types

type t = {
  mutable fire_at : Time_ns.t;
  callback : unit -> unit;
  mutable canceled : bool;
  mutable attached : bool;
  mutable heap_index : int;  (* position inside the manager's heap, or -1 *)
}

let create callback =
  {
    fire_at = Time_ns.epoch;
    callback;
    canceled = false;
    attached = false;
    heap_index = -1;
  }

let fire_at t = t.fire_at
let is_attached t = t.attached

(** Cancel a pending timer; a canceled timer is skipped when it surfaces in
    its manager's queue. *)
let cancel t =
  t.canceled <- true;
  t.attached <- false

let fire t =
  t.attached <- false;
  if not t.canceled then t.callback ()
