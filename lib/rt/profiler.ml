(** Profilers: measurement of arbitrary blocks of code (§3.3).

    A profiler tracks elapsed wall time, an abstract cycle counter (the VM
    charges instruction costs to it, standing in for PAPI cycle counts), and
    invocation counts for a named block.  Profilers nest and snapshots can
    be recorded at intervals, mirroring HILTI's periodic dumps to disk. *)

type t = {
  name : string;
  mutable invocations : int;
  mutable wall_ns : int64;          (* accumulated *)
  mutable cycles : int64;           (* accumulated abstract cost *)
  mutable started_at : int64 option;  (* monotonic ns when running *)
  mutable cycles_at_start : int64;
  mutable snapshots : (int64 * int64) list;  (* newest first, capped *)
  mutable snap_count : int;
}

(** Snapshot history bound: only the newest [max_snapshots] per profiler
    are retained, so periodic snapshotting on a streaming workload uses
    constant memory. *)
let max_snapshots = 256

(* The abstract cycle counter the VM increments.  With the parallel engine
   (Hilti_par) VM instructions execute on several domains at once, so a
   single plain [int ref] would drop increments under contention.  Instead
   every charging site owns its own counter (one per VM execution context —
   one per domain in parallel runs) registered in a shared list; the global
   total is the sum over all registered counters, taken at snapshot time.
   Each individual counter is only ever written by one domain, keeping the
   per-instruction cost at a deref + store. *)
let counters_lock = Mutex.create ()
let counters : int ref list ref = ref []

(** Allocate a cycle counter charged into the global total.  The caller
    must ensure each returned counter is only written from one domain. *)
let new_counter () =
  let r = ref 0 in
  Mutex.protect counters_lock (fun () -> counters := r :: !counters);
  r

(* Counter for code charging outside a VM context (one per domain). *)
let dls_counter : int ref Domain.DLS.key = Domain.DLS.new_key new_counter

let charge_cycles n =
  let r = Domain.DLS.get dls_counter in
  r := !r + n

(* Summed as an unboxed [int] and boxed once: profilers read this on
   every start and stop, and the list grows with every VM context ever
   created, so a boxed [Int64] accumulator would allocate per counter. *)
let global_cycles () =
  Int64.of_int
    (Mutex.protect counters_lock (fun () ->
         List.fold_left (fun acc r -> acc + !r) 0 !counters))

let monotonic_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* Profiler records themselves are not guarded: a profiler name should be
   driven from one domain at a time (concurrent use only fuzzes the
   measurements, it cannot corrupt analysis results).  The registry that
   holds them is shared across domains and is guarded. *)
let registry_lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let find_or_create name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some p -> p
      | None ->
          let p =
            {
              name;
              invocations = 0;
              wall_ns = 0L;
              cycles = 0L;
              started_at = None;
              cycles_at_start = 0L;
              snapshots = [];
              snap_count = 0;
            }
          in
          Hashtbl.add registry name p;
          p)

let name t = t.name
let invocations t = t.invocations
let wall_ns t = t.wall_ns
let cycles t = t.cycles

(* Stack of currently-running profilers, for exclusive accounting.  The
   stack is per-domain: exclusive windows on one domain must not pause
   profilers running on another. *)
let running_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let running () = Domain.DLS.get running_key

let start_raw t =
  t.started_at <- Some (monotonic_ns ());
  t.cycles_at_start <- global_cycles ()

let stop_raw t =
  match t.started_at with
  | None -> ()
  | Some at ->
      t.wall_ns <- Int64.add t.wall_ns (Int64.sub (monotonic_ns ()) at);
      t.cycles <- Int64.add t.cycles (Int64.sub (global_cycles ()) t.cycles_at_start);
      t.started_at <- None

let start t =
  t.invocations <- t.invocations + 1;
  let running = running () in
  running := t :: !running;
  start_raw t

let stop t =
  stop_raw t;
  let running = running () in
  running := List.filter (fun p -> p != t) !running

(** Record the current totals as a snapshot (HILTI writes these to disk at
    regular intervals; we retain the newest {!max_snapshots} in memory and
    render on demand). *)
let snapshot t =
  t.snapshots <- (t.wall_ns, t.cycles) :: t.snapshots;
  if t.snap_count >= max_snapshots then
    t.snapshots <- List.filteri (fun i _ -> i < max_snapshots) t.snapshots
  else t.snap_count <- t.snap_count + 1

(** Retained snapshots, oldest first. *)
let snapshots t = List.rev t.snapshots

(** Time a function under profiler [name]. *)
let time name f =
  let p = find_or_create name in
  start p;
  Fun.protect ~finally:(fun () -> stop p) f

(** Time a function under [name] while {e pausing} every profiler that is
    currently running: components measured this way are mutually
    exclusive, so they can be summed into a breakdown (the Figure 9/10
    accounting). *)
let time_exclusive name f =
  let running = running () in
  let saved = !running in
  List.iter stop_raw saved;
  let p = find_or_create name in
  p.invocations <- p.invocations + 1;
  running := [ p ];
  start_raw p;
  Fun.protect
    ~finally:(fun () ->
      stop_raw p;
      running := saved;
      List.iter start_raw saved)
    f

let reset_all () =
  Mutex.protect registry_lock (fun () -> Hashtbl.reset registry);
  (running ()) := [];
  Mutex.protect counters_lock (fun () -> List.iter (fun r -> r := 0) !counters)

let report () =
  let entries =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun _ p acc -> p :: acc) registry [])
  in
  let entries = List.sort (fun a b -> compare a.name b.name) entries in
  List.map
    (fun p ->
      Printf.sprintf "%-30s calls=%-8d wall=%.3fms cycles=%Ld" p.name
        p.invocations
        (Int64.to_float p.wall_ns /. 1e6)
        p.cycles)
    entries

(** Write all profiler totals and their recorded snapshots to [path] —
    HILTI's periodic measurement dumps (§3.3).  The write is atomic
    (temp + rename), so a crash mid-dump can't leave a torn report. *)
let write_report path =
  let b = Buffer.create 1024 in
  Buffer.add_string b "#profiler\tcalls\twall_ms\tcycles\n";
  List.iter (fun line -> Buffer.add_string b (line ^ "\n")) (report ());
  let entries =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun _ p acc -> p :: acc) registry [])
  in
  List.iter
    (fun p ->
      List.iteri
        (fun i (wall, cyc) ->
          Buffer.add_string b
            (Printf.sprintf "#snapshot\t%s\t%d\t%.3f\t%Ld\n" p.name i
               (Int64.to_float wall /. 1e6)
               cyc))
        (snapshots p))
    entries;
  Hilti_obs.Export.write_file_atomic path (Buffer.contents b)

(* Expose profiler totals through the metrics scrape, so the periodic
   exporter subsumes the profiler's own dump format. *)
let () =
  Hilti_obs.Metrics.register_collector (fun () ->
      let entries =
        Mutex.protect registry_lock (fun () ->
            Hashtbl.fold (fun _ p acc -> p :: acc) registry [])
      in
      List.concat_map
        (fun p ->
          let label = Some ("name", p.name) in
          [
            Hilti_obs.Metrics.
              {
                s_name = "profiler_calls";
                s_help = "Invocations per profiler block";
                s_label = label;
                s_value = V_counter p.invocations;
              };
            Hilti_obs.Metrics.
              {
                s_name = "profiler_wall_ns";
                s_help = "Accumulated wall time per profiler block";
                s_label = label;
                s_value = V_counter (Int64.to_int p.wall_ns);
              };
            Hilti_obs.Metrics.
              {
                s_name = "profiler_cycles";
                s_help = "Accumulated abstract cycles per profiler block";
                s_label = label;
                s_value = V_counter (Int64.to_int p.cycles);
              };
          ])
        entries)
