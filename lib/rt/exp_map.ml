(** Hash maps with built-in state expiration (HILTI [map], §3.2).

    The map optionally attaches to a {!Timer_mgr}; each live entry then
    carries its expiration deadline and owns at most one pending timer.
    Refreshing an entry under the access/write policies only stores a new
    deadline (an unboxed int of nanoseconds): no allocation, no queue
    operation.  When the entry's timer fires before the deadline it
    re-arms itself at the deadline; a deadline already due fires later in
    the same [Timer_mgr.advance], at its sorted position, so entries leave
    at exactly their deadline.  [remove] and [clear] cancel the timers of
    the entries they drop, so no timer outlives its entry or acts on a
    later entry under the same key: pending timers are bounded by live
    entries, not by traffic. *)

type ('k, 'v) entry = {
  key : 'k;
  mutable value : 'v;
  mutable deadline : int;  (* ns on the manager's clock, once armed *)
  mutable timer : Timer.t;  (* [unarmed] until the entry first gets a timer *)
}

type ('k, 'v) t = {
  buckets : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable strategy : Expire.strategy;
  mutable mgr : Timer_mgr.t option;  (* [Some] only while [strategy] expires *)
  mutable ival : int;  (* [strategy]'s interval, ns *)
  mutable default : ('k -> 'v) option;
  mutable expired_total : int;
  mutable on_expire : ('k -> 'v -> unit) option;
  mutable memo : ('k, 'v) entry option;
      (* last entry hit: session tables see long same-key runs (a DNS
         query/response pair, a TCP burst), so one structural key compare
         routinely replaces the hash + bucket walk.  Every path that drops
         an entry invalidates it; refresh semantics are unchanged on a
         memo hit. *)
}

let m_timers_scheduled =
  Hilti_obs.Metrics.counter "exp_map_timers_scheduled"
    ~help:"Expiration timers armed by state containers"

let m_timers_rearmed =
  Hilti_obs.Metrics.counter "exp_map_timers_rearmed"
    ~help:"Expiration timers that fired before their entry's deadline and re-armed"

let m_expired =
  Hilti_obs.Metrics.counter "exp_map_expired"
    ~help:"Container entries dropped by timer expiry"

(* The timer of every entry not yet armed; never scheduled. *)
let unarmed = Timer.create (fun () -> ())

(* Keys are hashed structurally; HILTI map keys are value types, so
   structural equality is the right notion. *)
let create ?(size = 64) () =
  {
    buckets = Hashtbl.create size;
    strategy = Expire.Never;
    mgr = None;
    ival = 0;
    default = None;
    expired_total = 0;
    on_expire = None;
    memo = None;
  }

(** Set a default constructor: lookups of missing keys return (and insert)
    the constructed value instead of raising [Not_found]. *)
let set_default t f = t.default <- Some f

(* Take a dropped entry's timer out of the queue. *)
let retire t e =
  match t.mgr with
  | Some mgr when Timer.is_attached e.timer -> Timer_mgr.cancel mgr e.timer
  | _ -> ()

(** Attach an expiration policy, enforced against [mgr]'s clock.  Entries
    already present keep their timers, unless the map stops expiring or
    moves to another manager: then they drop them, and get one again at
    their next refresh, like entries inserted before any policy. *)
let set_timeout t strategy mgr =
  let mgr = match Expire.interval strategy with Some _ -> Some mgr | None -> None in
  (match (t.mgr, mgr) with
  | Some old, Some m when old == m -> ()
  | Some _, _ ->
      Hashtbl.iter
        (fun _ e ->
          retire t e;
          e.timer <- unarmed)
        t.buckets
  | None, _ -> ());
  t.strategy <- strategy;
  t.mgr <- mgr;
  t.ival <- (match Expire.interval strategy with Some i -> Int64.to_int i | None -> 0)

(** Called with (key, value) after an entry is dropped by timer expiry —
    the hook session tables use to flush evicted connection state.  Manual
    [remove] does not fire it. *)
let set_on_expire t cb = t.on_expire <- Some cb

let size t = Hashtbl.length t.buckets
let expired_total t = t.expired_total

let forget_memo t e =
  match t.memo with
  | Some m when m == e -> t.memo <- None
  | _ -> ()

let expire t e =
  forget_memo t e;
  Hashtbl.remove t.buckets e.key;
  t.expired_total <- t.expired_total + 1;
  Hilti_obs.Metrics.incr m_expired;
  match t.on_expire with
  | Some cb -> cb e.key e.value
  | None -> ()

(* [e]'s timer: evict at the deadline, re-arm if a refresh moved it. *)
let fire t e =
  match t.mgr with
  | Some mgr when e.deadline > Int64.to_int (Timer.fire_at e.timer) ->
      Hilti_obs.Metrics.incr m_timers_rearmed;
      Timer_mgr.schedule mgr e.timer (Int64.of_int e.deadline)
  | _ -> expire t e

let arm t mgr e =
  if e.timer == unarmed then begin
    e.timer <- Timer.create (fun () -> fire t e);
    Hilti_obs.Metrics.incr m_timers_scheduled
  end
  else if Timer.is_attached e.timer then Timer_mgr.cancel mgr e.timer;
  Timer_mgr.schedule mgr e.timer (Int64.of_int e.deadline)

(* Start [e]'s lifetime over: while its pending timer fires no later than
   the new deadline, only the number changes.  The timer moves only when
   the entry has none yet or a shortened timeout pulls the deadline
   before it. *)
let touch t mgr e =
  let deadline = Int64.to_int (Timer_mgr.current mgr) + t.ival in
  e.deadline <- deadline;
  if (not (Timer.is_attached e.timer))
     || deadline < Int64.to_int (Timer.fire_at e.timer)
  then arm t mgr e

let refresh_on_write t e =
  match t.mgr with
  | Some mgr when Expire.refreshed_by_write t.strategy -> touch t mgr e
  | _ -> ()

let refresh_on_read t e =
  match t.mgr with
  | Some mgr when Expire.refreshed_by_read t.strategy -> touch t mgr e
  | _ -> ()

(** Insert a key the caller knows is absent (e.g. right after a failed
    lookup): skips [insert]'s presence probe, so the create path of a
    session table costs one bucket write instead of a find + replace. *)
let add_fresh t key value =
  let e = { key; value; deadline = 0; timer = unarmed } in
  Hashtbl.replace t.buckets key e;
  t.memo <- Some e;
  match t.mgr with Some mgr -> touch t mgr e | None -> ()

let insert t key value =
  match Hashtbl.find t.buckets key with
  | e ->
      e.value <- value;
      refresh_on_write t e
  | exception Not_found -> add_fresh t key value

let find_opt t key =
  match t.memo with
  | Some e when e.key = key ->
      refresh_on_read t e;
      Some e.value
  | _ -> (
      match Hashtbl.find t.buckets key with
      | e ->
          t.memo <- Some e;
          refresh_on_read t e;
          Some e.value
      | exception Not_found -> (
          match t.default with
          | Some f ->
              let v = f key in
              insert t key v;
              Some v
          | None -> None))

exception Index_error

let find t key =
  match find_opt t key with Some v -> v | None -> raise Index_error

(** Membership test; does not refresh access-expiry and does not
    materialize defaults. *)
let mem t key = Hashtbl.mem t.buckets key

(** Membership test that counts as a read access (refreshing
    access-based expiry) but never materializes defaults — the semantics
    of [map.exists]/[set.exists].  Allocates nothing. *)
let mem_touch t key =
  match t.memo with
  | Some e when e.key = key ->
      refresh_on_read t e;
      true
  | _ -> (
      match Hashtbl.find t.buckets key with
      | e ->
          refresh_on_read t e;
          true
      | exception Not_found -> false)

let remove t key =
  match Hashtbl.find t.buckets key with
  | e ->
      forget_memo t e;
      retire t e;
      Hashtbl.remove t.buckets key
  | exception Not_found -> ()

let clear t =
  t.memo <- None;
  (match t.mgr with
  | Some _ -> Hashtbl.iter (fun _ e -> retire t e) t.buckets
  | None -> ());
  Hashtbl.reset t.buckets

let iter f t = Hashtbl.iter (fun k e -> f k e.value) t.buckets

let fold f t init = Hashtbl.fold (fun k e acc -> f k e.value acc) t.buckets init

let keys t = fold (fun k _ acc -> k :: acc) t []

let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
