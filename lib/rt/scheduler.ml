(** Virtual threads and the cooperative scheduler (§3.2, §5).

    HILTI supplies applications with a large number of lightweight virtual
    threads identified by 64-bit integers; a runtime scheduler maps them to
    hardware threads via cooperative multitasking.  Virtual threads cannot
    share state: work is moved between them by scheduling jobs
    ([thread.schedule]), with arguments deep-copied by the caller (the VM
    layer performs the copy).

    This scheduler executes jobs first-come first-served per virtual
    thread, with round-robin service across threads holding pending work —
    deterministic, which the tests rely on.  Each virtual thread owns its
    job queue and its own {!Timer_mgr}; the VM keeps its globals.

    Virtual threads are cooperative: they all run on the calling domain.
    Hardware parallelism comes from flow sharding ([Hilti_par.Shard_plane]),
    which places each flow on a worker domain by its symmetric flow hash,
    just as {!thread_for_hash} places it on a virtual thread (§6.6). *)

type job = { fn : unit -> unit; label : string }

type vthread = { queue : job Queue.t; timers : Timer_mgr.t }

type stats = { vthreads : int; total_jobs : int }

type t = {
  threads : (int64, vthread) Hashtbl.t;
  mutable total_jobs : int;
  mutable running : bool;
  command_queue : job Queue.t;
      (** serialized operations executed between job steps, standing in for
          HILTI's dedicated manager thread (§5 "Runtime Library") *)
  cmd_lock : Mutex.t;  (** commands may be submitted from any domain *)
}

let create () =
  {
    threads = Hashtbl.create 64;
    total_jobs = 0;
    running = false;
    command_queue = Queue.create ();
    cmd_lock = Mutex.create ();
  }

let vthread t id =
  match Hashtbl.find_opt t.threads id with
  | Some vt -> vt
  | None ->
      let vt = { queue = Queue.create (); timers = Timer_mgr.create () } in
      Hashtbl.add t.threads id vt;
      vt

(** Schedule [fn] for asynchronous execution on virtual thread [id]
    ([thread.schedule]).  FIFO within a thread. *)
let schedule t id ?(label = "") fn =
  let vt = vthread t id in
  Queue.add { fn; label } vt.queue;
  t.total_jobs <- t.total_jobs + 1

(** The timer manager of virtual thread [id]. *)
let timers_for t id = (vthread t id).timers

(** Submit a serialized command (e.g. a file write) to the manager queue.
    Safe to call from any domain. *)
let command t ?(label = "cmd") fn =
  Mutex.protect t.cmd_lock (fun () -> Queue.add { fn; label } t.command_queue)

(** Number of queued serialized commands (any domain). *)
let commands_pending t =
  Mutex.protect t.cmd_lock (fun () -> Queue.length t.command_queue)

let pending t =
  Hashtbl.fold (fun _ vt acc -> acc + Queue.length vt.queue) t.threads 0
  + commands_pending t

(** Pop-and-run every queued command.  Commands run outside the lock (they
    may submit further commands). *)
let drain_commands t =
  let rec go () =
    match Mutex.protect t.cmd_lock (fun () -> Queue.take_opt t.command_queue) with
    | Some job ->
        job.fn ();
        go ()
    | None -> ()
  in
  go ()

let m_jobs_run =
  Hilti_obs.Metrics.counter "sched_jobs_run"
    ~help:"Jobs executed by the cooperative scheduler"

let run_one_job vt =
  match Queue.take_opt vt.queue with
  | None -> false
  | Some job ->
      job.fn ();
      Hilti_obs.Metrics.incr m_jobs_run;
      true

(** Run until all queues are empty.  Jobs may schedule further jobs. *)
let run t =
  if t.running then invalid_arg "Scheduler.run: reentrant";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let progressed = ref true in
      while !progressed do
        progressed := false;
        drain_commands t;
        (* Deterministic round-robin: visit threads in id order. *)
        let ids =
          List.sort Int64.compare
            (Hashtbl.fold (fun id _ acc -> id :: acc) t.threads [])
        in
        List.iter
          (fun id ->
            let vt = Hashtbl.find t.threads id in
            if run_one_job vt then progressed := true)
          ids
      done;
      drain_commands t)

(** Advance every virtual thread's timer manager to [time] (global time
    advance broadcast). *)
let advance_time t time =
  Hashtbl.iter (fun _ vt -> ignore (Timer_mgr.advance vt.timers time)) t.threads

let stats t = { vthreads = Hashtbl.length t.threads; total_jobs = t.total_jobs }

(** The hash-based load-balancing helper the paper describes: map a flow
    key to a virtual thread id in [0, n). *)
let thread_for_hash ~threads hash =
  if threads <= 0 then invalid_arg "Scheduler.thread_for_hash";
  Int64.of_int (abs hash mod threads)
