(** Hash maps with built-in state expiration (HILTI [map], §3.2).

    Every HILTI set, map and session table is one of these, keyed by a
    flat string (a value's canonical key, {!Flow.packed_key}).  The table
    is a chained hash table whose entries are the chains themselves: an
    entry carries its key, the key's hash, its value, its expiration
    state and the next entry of its bucket, so a lookup walks entries
    directly, compares the stored hash before the key bytes, and never
    compares polymorphically.

    Iteration order is a contract: the table hashes with [Hashtbl.hash],
    inserts at the bucket head, starts at [Hashtbl.create]'s bucket count,
    doubles the bucket array, keeping each bucket's order, once the entry
    count exceeds twice the bucket count, and [clear] returns to the
    initial bucket count.  [iter] and [fold] therefore visit entries in
    the order a stdlib [(string, _) Hashtbl.t] fed the same operations
    would, which keeps every log that follows table order unchanged.

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

type 'v chain =
  | Nil
  | Entry of {
      key : string;
      hash : int;  (* [Hashtbl.hash key] *)
      mutable value : 'v;
      mutable deadline : int;  (* ns on the manager's clock, once armed *)
      mutable timer : Timer.t;  (* [unarmed] until the entry first gets a timer *)
      mutable next : 'v chain;  (* the rest of the bucket *)
    }

type 'v t = {
  mutable data : 'v chain array;  (* power-of-two length *)
  mutable count : int;
  initial : int;  (* the bucket count [clear] returns to *)
  mutable strategy : Expire.strategy;
  mutable mgr : Timer_mgr.t option;  (* [Some] only while [strategy] expires *)
  mutable ival : int;  (* [strategy]'s interval, ns *)
  mutable default : (string -> 'v) option;
  mutable expired_total : int;
  mutable on_expire : (string -> 'v -> unit) option;
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

(* [Hashtbl.create]'s rounding: the least power of two >= [n], at least 16. *)
let rec power_2_above x n = if x >= n then x else power_2_above (x * 2) n

let create ?(size = 64) () =
  let initial = power_2_above 16 size in
  {
    data = Array.make initial Nil;
    count = 0;
    initial;
    strategy = Expire.Never;
    mgr = None;
    ival = 0;
    default = None;
    expired_total = 0;
    on_expire = None;
  }

let index t h = h land (Array.length t.data - 1)

(* The entry of [key] (hash [h]) in a bucket, or [Nil]. *)
let rec find_in key h = function
  | Nil -> Nil
  | Entry r as e -> if r.hash = h && String.equal r.key key then e else find_in key h r.next

(* Unlink [e] from the bucket after [prev]; false if it is not there. *)
let rec unlink_after prev e =
  match prev with
  | Nil -> false
  | Entry p -> (
      match p.next with
      | Nil -> false
      | Entry r as c -> if c == e then (p.next <- r.next; true) else unlink_after c e)

(* Deal old bucket [i]'s chain out to new buckets [i] and [i + bit] (the
   hash's new mask bit), appending after the tails [lo] and [hi] so each
   keeps the old relative order. *)
let rec split data i bit lo hi = function
  | Nil -> ()
  | Entry r as e ->
      let next = r.next in
      r.next <- Nil;
      if r.hash land bit = 0 then begin
        (match lo with Entry l -> l.next <- e | Nil -> data.(i) <- e);
        split data i bit e hi next
      end
      else begin
        (match hi with Entry h -> h.next <- e | Nil -> data.(i + bit) <- e);
        split data i bit lo e next
      end

let resize t =
  let old = t.data in
  let bit = Array.length old in
  let data = Array.make (2 * bit) Nil in
  for i = 0 to bit - 1 do
    split data i bit Nil Nil old.(i)
  done;
  t.data <- data

(* Take [e] out of its bucket. *)
let unlink t e =
  match e with
  | Nil -> ()
  | Entry r ->
      let i = index t r.hash in
      let head = t.data.(i) in
      if head == e then begin
        t.data.(i) <- r.next;
        t.count <- t.count - 1
      end
      else if unlink_after head e then t.count <- t.count - 1

(* The entry of [key], or [Nil].  There is no last-entry cache in front
   of it: a lookup is one hash and a stored-hash compare per bucket
   entry, and a cache checked first on every probe made neither the
   firewall nor DNS faster end to end. *)
let probe t key =
  let h = Hashtbl.hash key in
  find_in key h t.data.(index t h)

(** Set a default constructor: lookups of missing keys return (and insert)
    the constructed value instead of [None]. *)
let set_default t f = t.default <- Some f

(* Take a dropped entry's timer out of the queue. *)
let retire t e =
  match (t.mgr, e) with
  | Some mgr, Entry r when Timer.is_attached r.timer -> Timer_mgr.cancel mgr r.timer
  | _ -> ()

(* Retire the timers of a bucket's entries; they get new ones when next
   refreshed. *)
let rec unarm_chain t = function
  | Nil -> ()
  | Entry r as e ->
      retire t e;
      r.timer <- unarmed;
      unarm_chain t r.next

(** Attach an expiration policy, enforced against [mgr]'s clock.  Entries
    already present keep their timers, unless the map stops expiring or
    moves to another manager: then they drop them, and get one again at
    their next refresh, like entries inserted before any policy. *)
let set_timeout t strategy mgr =
  let mgr = match Expire.interval strategy with Some _ -> Some mgr | None -> None in
  (match (t.mgr, mgr) with
  | Some old, Some m when old == m -> ()
  | Some _, _ -> Array.iter (unarm_chain t) t.data
  | None, _ -> ());
  t.strategy <- strategy;
  t.mgr <- mgr;
  t.ival <- (match Expire.interval strategy with Some i -> Int64.to_int i | None -> 0)

(** Called with (key, value) after an entry is dropped by timer expiry —
    the hook session tables use to flush evicted connection state.  Manual
    [remove] does not fire it. *)
let set_on_expire t cb = t.on_expire <- Some cb

let size t = t.count
let expired_total t = t.expired_total

let expire t e =
  match e with
  | Nil -> ()
  | Entry r -> (
      unlink t e;
      t.expired_total <- t.expired_total + 1;
      Hilti_obs.Metrics.incr m_expired;
      match t.on_expire with
      | Some cb -> cb r.key r.value
      | None -> ())

(* [e]'s timer: evict at the deadline, re-arm if a refresh moved it. *)
let fire t e =
  match (t.mgr, e) with
  | Some mgr, Entry r when r.deadline > Int64.to_int (Timer.fire_at r.timer) ->
      Hilti_obs.Metrics.incr m_timers_rearmed;
      Timer_mgr.schedule mgr r.timer (Int64.of_int r.deadline)
  | _ -> expire t e

let arm t mgr e =
  match e with
  | Nil -> ()
  | Entry r ->
      if r.timer == unarmed then begin
        r.timer <- Timer.create (fun () -> fire t e);
        Hilti_obs.Metrics.incr m_timers_scheduled
      end
      else if Timer.is_attached r.timer then Timer_mgr.cancel mgr r.timer;
      Timer_mgr.schedule mgr r.timer (Int64.of_int r.deadline)

(* Start [e]'s lifetime over: while its pending timer fires no later than
   the new deadline, only the number changes.  The timer moves only when
   the entry has none yet or a shortened timeout pulls the deadline
   before it. *)
let touch t mgr e =
  match e with
  | Nil -> ()
  | Entry r ->
      let deadline = Int64.to_int (Timer_mgr.current mgr) + t.ival in
      r.deadline <- deadline;
      if (not (Timer.is_attached r.timer))
         || deadline < Int64.to_int (Timer.fire_at r.timer)
      then arm t mgr e

let refresh_on_write t e =
  match t.mgr with
  | Some mgr when Expire.refreshed_by_write t.strategy -> touch t mgr e
  | _ -> ()

let refresh_on_read t e =
  match t.mgr with
  | Some mgr when Expire.refreshed_by_read t.strategy -> touch t mgr e
  | _ -> ()

(* Add an absent [key] of hash [h] at the head of its bucket. *)
let add t key h value =
  let i = index t h in
  let e =
    Entry { key; hash = h; value; deadline = 0; timer = unarmed; next = t.data.(i) }
  in
  t.data.(i) <- e;
  t.count <- t.count + 1;
  if t.count > 2 * Array.length t.data then resize t;
  match t.mgr with Some mgr -> touch t mgr e | None -> ()

(** Insert a key the caller knows is absent (e.g. right after a failed
    lookup): skips [insert]'s presence probe, so the create path of a
    session table costs one bucket write instead of a find + replace. *)
let add_fresh t key value = add t key (Hashtbl.hash key) value

let insert t key value =
  let h = Hashtbl.hash key in
  match find_in key h t.data.(index t h) with
  | Entry r as e ->
      r.value <- value;
      refresh_on_write t e
  | Nil -> add t key h value

let find_opt t key =
  match probe t key with
  | Entry r as e ->
      refresh_on_read t e;
      Some r.value
  | Nil -> (
      match t.default with
      | Some f ->
          let v = f key in
          insert t key v;
          Some v
      | None -> None)

(** Membership test; does not refresh access-expiry and does not
    materialize defaults. *)
let mem t key = probe t key != Nil

(** Membership test that counts as a read access (refreshing
    access-based expiry) but never materializes defaults — the semantics
    of [map.exists]/[set.exists].  Allocates nothing. *)
let mem_touch t key =
  match probe t key with
  | Nil -> false
  | e ->
      refresh_on_read t e;
      true

let remove t key =
  match probe t key with
  | Nil -> ()
  | e ->
      retire t e;
      unlink t e

let clear t =
  (match t.mgr with Some _ -> Array.iter (unarm_chain t) t.data | None -> ());
  t.count <- 0;
  if Array.length t.data = t.initial then Array.fill t.data 0 t.initial Nil
  else t.data <- Array.make t.initial Nil

let rec iter_chain f = function
  | Nil -> ()
  | Entry r ->
      let next = r.next in
      f r.key r.value;
      iter_chain f next

let iter f t =
  let data = t.data in
  for i = 0 to Array.length data - 1 do
    iter_chain f data.(i)
  done

let rec fold_chain f c acc =
  match c with
  | Nil -> acc
  | Entry r ->
      let next = r.next in
      fold_chain f next (f r.key r.value acc)

let fold f t init =
  let data = t.data in
  let acc = ref init in
  for i = 0 to Array.length data - 1 do
    acc := fold_chain f data.(i) !acc
  done;
  !acc

let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
