(** Hilti_par: the multicore execution engine (§3.2, §5, §6.6).

    Maps HILTI virtual threads onto OCaml 5 domains.  The paper's runtime
    schedules virtual threads across a set of native pthreads, hashing the
    64-bit thread id to pick a target so that related state (e.g. one side
    of a connection) always lands on the same thread; we reproduce that
    with a {!Domain_pool} of worker domains, per-domain run queues and work
    stealing.

    {2 Model}

    Every virtual thread is an actor: it owns an inbox of jobs, its globals
    array, and its {!Hilti_rt.Timer_mgr}.  At most one {e activation} of a
    virtual thread is in flight at any time, so its jobs run sequentially
    (FIFO) even though different virtual threads run in parallel — exactly
    the isolation contract of [thread.schedule] (arguments are deep-copied
    by the VM before they reach us, so no mutable state crosses a domain
    boundary).  An activation is submitted to the pool with the thread's
    {e home} worker as affinity ([tid mod domains], the same hash-placement
    the cooperative scheduler's [thread_for_hash] exposes); stealing may
    run it elsewhere, in which case the thread's home moves with it and its
    state (globals, timers) is installed into the executing domain's VM
    context clone before any job runs.

    Each worker domain owns a {!Vm.context} clone sharing the immutable
    program, host functions and scheduler with the root context; the clone
    is registered in domain-local storage so every VM entry point resolves
    to it ({!Vm.exec_context}).  Serialized commands (file writes) stay on
    the scheduler's mutex-guarded command queue and are drained by the
    driving domain between quiescent points.

    {2 Protocol}

    {!attach} installs the engine behind the scheduler's {!Hilti_rt.Scheduler.backend}
    interface — the VM's [thread.schedule] lowering, [Mini_bro] and the
    analyzers driver run unchanged.  {!Hilti_rt.Scheduler.run} becomes
    {!drain}: wait until every inbox is empty and the pool is quiescent,
    then execute queued commands, repeating until no work remains.
    {!detach} removes the backend and joins the worker domains. *)

module Vm = Hilti_vm.Vm
module Value = Hilti_vm.Value
module Bytecode = Hilti_vm.Bytecode

type vthread = {
  vid : int64;
  inbox : (string * (unit -> unit)) Queue.t;  (* label, job *)
  timers : Hilti_rt.Timer_mgr.t;
  mutable globals : Value.t array option;  (* created on first activation *)
  mutable home : int;  (* preferred worker; moves on steal *)
  mutable queued : bool;  (* an activation is submitted or running *)
  mutable jobs_run : int;
}

type t = {
  root : Vm.context;
  sched : Hilti_rt.Scheduler.t;
  domains : int;
  clones : Vm.context array;  (* one VM context per worker domain *)
  pool : Domain_pool.t;
  lock : Mutex.t;  (* guards vthreads and all mutable engine state *)
  vthreads : (int64, vthread) Hashtbl.t;
  mutable vthread_count : int;
  mutable total_jobs : int;
}

(* Lock ordering: engine lock < pool lock.  The pool never takes the
   engine lock. *)

let m_activations =
  Hilti_obs.Metrics.counter "par_activations"
    ~help:"Virtual-thread activations run by the engine"

let m_migrations =
  Hilti_obs.Metrics.counter "par_thread_migrations"
    ~help:"Activations that moved a virtual thread to a new home worker"

let batch_limit = 64
(* Jobs run per activation before the thread goes back to the pool — bounds
   how long one virtual thread can monopolise a worker. *)

let domain_for t tid =
  let r = Int64.to_int (Int64.rem tid (Int64.of_int t.domains)) in
  (r + t.domains) mod t.domains

(* Must hold t.lock. *)
let vthread_locked t vid =
  match Hashtbl.find_opt t.vthreads vid with
  | Some vt -> vt
  | None ->
      let vt =
        {
          vid;
          inbox = Queue.create ();
          timers = Hilti_rt.Timer_mgr.create ();
          globals = None;
          home = domain_for t vid;
          queued = false;
          jobs_run = 0;
        }
      in
      Hashtbl.add t.vthreads vid vt;
      t.vthread_count <- t.vthread_count + 1;
      vt

(* One activation: install the thread's migrated state into this worker's
   context clone, run a batch of its jobs, then either resubmit (more work
   arrived) or clear the in-flight flag.  The [queued] invariant guarantees
   no other domain touches this vthread's state concurrently. *)
let rec activation t vt wid =
  let clone = t.clones.(wid) in
  let batch = Queue.create () in
  Hilti_obs.Metrics.incr m_activations;
  let globals =
    Mutex.protect t.lock (fun () ->
        (* A home change after the thread has state is a migration: its
           globals and timers follow it to the stealing worker. *)
        if vt.home <> wid && vt.globals <> None then
          Hilti_obs.Metrics.incr m_migrations;
        vt.home <- wid;
        let g =
          match vt.globals with
          | Some g -> g
          | None ->
              (* First activation anywhere: materialise this thread's
                 globals from the program defaults (deep copy — §3.2). *)
              let g =
                Array.map Value.deep_copy t.root.Vm.program.Bytecode.global_defaults
              in
              vt.globals <- Some g;
              g
        in
        while Queue.length batch < batch_limit && not (Queue.is_empty vt.inbox) do
          Queue.add (Queue.pop vt.inbox) batch
        done;
        g)
  in
  (* All clones map this vid to the SAME array object, so stale entries
     left behind after a migration are harmless. *)
  Hashtbl.replace clone.Vm.vthread_globals vt.vid globals;
  clone.Vm.cached_tid <- vt.vid;
  clone.Vm.cached_globals <- globals;
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          if Queue.is_empty vt.inbox then vt.queued <- false
          else submit_activation_locked t vt))
    (fun () ->
      Queue.iter
        (fun (_label, fn) ->
          fn ();
          vt.jobs_run <- vt.jobs_run + 1)
        batch)

(* Must hold t.lock (ordering: engine < pool). *)
and submit_activation_locked t vt =
  vt.queued <- true;
  Domain_pool.submit t.pool ~affinity:vt.home (fun wid -> activation t vt wid)

(** Schedule [fn] on virtual thread [vid] — the backend for
    [Scheduler.schedule].  Callable from any domain. *)
let schedule t vid ~label fn =
  Mutex.protect t.lock (fun () ->
      let vt = vthread_locked t vid in
      Queue.add (label, fn) vt.inbox;
      t.total_jobs <- t.total_jobs + 1;
      if not vt.queued then submit_activation_locked t vt)

let jobs_pending t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ vt acc -> acc + Queue.length vt.inbox) t.vthreads 0)

let pending t = jobs_pending t + Hilti_rt.Scheduler.commands_pending t.sched

(** Run to quiescence: wait for the pool to go idle (all inboxes empty —
    an activation is in flight whenever an inbox is non-empty), then drain
    serialized commands on the calling domain; commands may schedule more
    jobs, so repeat until nothing remains.  Re-raises the first job
    failure.  This is the backend for [Scheduler.run]. *)
let drain t =
  let rec go () =
    Domain_pool.drain t.pool;
    Hilti_rt.Scheduler.drain_commands t.sched;
    if jobs_pending t > 0 then go ()
  in
  go ();
  (* Collect the clones' instruction counts on the root so host-side
     reporting (Host_api.cycles) keeps working in parallel mode. *)
  Mutex.protect t.lock (fun () ->
      t.root.Vm.clone_instrs <-
        Array.fold_left (fun acc c -> acc + !(c.Vm.instrs)) 0 t.clones)

(** Advance every virtual thread's timer manager to [time].  Expiration
    callbacks run as jobs on the owning thread — on its domain, under its
    context — and have all fired when this returns (matching the
    synchronous cooperative semantics). *)
let advance t time =
  let vts =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun _ vt acc -> vt :: acc) t.vthreads [])
  in
  List.iter
    (fun vt ->
      schedule t vt.vid ~label:"advance_time" (fun () ->
          ignore (Hilti_rt.Timer_mgr.advance vt.timers time)))
    vts;
  drain t

let timers_for t vid =
  Mutex.protect t.lock (fun () -> (vthread_locked t vid).timers)

let stats t : Hilti_rt.Scheduler.stats =
  Mutex.protect t.lock (fun () ->
      ({ vthreads = t.vthread_count; total_jobs = t.total_jobs }
        : Hilti_rt.Scheduler.stats))

let size t = t.domains

(** Create the engine and install it as [root]'s scheduler backend.  From
    then on every [thread.schedule] (VM or host side) and every
    [Scheduler.run]/[advance_time] goes through the domain pool. *)
let attach (root : Vm.context) ~domains =
  if root.Vm.parent <> None then invalid_arg "Engine.attach: context is a clone";
  if Hilti_rt.Scheduler.backend root.Vm.scheduler <> None then
    invalid_arg "Engine.attach: scheduler already has a backend";
  let clones = Array.init domains (fun _ -> Vm.clone_for_domain root) in
  let pool =
    Domain_pool.create ~domains ~on_start:(fun wid ->
        Vm.set_domain_context ~root ~clone:clones.(wid))
  in
  let t =
    {
      root;
      sched = root.Vm.scheduler;
      domains;
      clones;
      pool;
      lock = Mutex.create ();
      vthreads = Hashtbl.create 64;
      vthread_count = 0;
      total_jobs = 0;
    }
  in
  Hilti_rt.Scheduler.set_backend t.sched
    {
      b_schedule = (fun vid ~label fn -> schedule t vid ~label fn);
      b_run = (fun () -> drain t);
      b_advance = (fun time -> advance t time);
      b_timers = (fun vid -> timers_for t vid);
      b_stats = (fun () -> stats t);
      b_pending = (fun () -> pending t);
    };
  t

(** Remove the backend (the scheduler reverts to cooperative mode) and
    join the worker domains.  Pending work should be drained first. *)
let detach t =
  Hilti_rt.Scheduler.clear_backend t.sched;
  Domain_pool.shutdown t.pool

(** Run [f] with a [domains]-wide engine attached to [root]; always drains
    and detaches, even if [f] raises. *)
let with_engine (root : Vm.context) ~domains f =
  let t = attach root ~domains in
  Fun.protect ~finally:(fun () -> detach t) (fun () -> f t)
