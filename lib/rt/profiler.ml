(** Profilers: measurement of arbitrary blocks of code (§3.3).

    A profiler tracks elapsed wall time, an abstract cycle count (VM
    instructions retired, standing in for PAPI cycle counts), and
    invocation counts for a named block.  Profilers nest and snapshots can
    be recorded at intervals, mirroring HILTI's periodic dumps to disk.

    A profiler is a handle on three counters of the one metrics registry,
    {!Hilti_obs.Metrics} — [profiler_calls], [profiler_wall_ns] and
    [profiler_cycles], labelled [name] — so the scrape carries its totals
    and they are sharded per domain.  Recording ignores the metrics enable
    flag: a profiler is an explicit start/stop. *)

module M = Hilti_obs.Metrics

type t = { name : string; calls : M.counter; wall : M.counter; cyc : M.counter }

(** The profiler [name], created on first use: the same name always
    denotes the same totals.  Hot call sites create their handle once. *)
let create name =
  let counter metric help = M.counter metric ~help ~label:("name", name) in
  {
    name;
    calls = counter "profiler_calls" "Invocations per profiler block";
    wall = counter "profiler_wall_ns" "Accumulated wall time per profiler block";
    cyc = counter "profiler_cycles" "Accumulated abstract cycles per profiler block";
  }

let invocations t = M.counter_value t.calls
let wall_ns t = Int64.of_int (M.counter_value t.wall)
let cycles t = Int64.of_int (M.counter_value t.cyc)

(** The abstract cycle clock.  VM contexts credit their retired
    instructions here in bulk ([Vm.credit]) before control can reach a
    profiler boundary.  Profilers read the executing domain's shard: a
    block is charged the cycles its own domain ran. *)
let cycle_clock =
  M.counter "vm_cycles"
    ~help:"Abstract cycles (VM instructions retired); the profilers' cycle clock"

let bump c n = let r = M.shard c in r := !r + n

let clock () = !(M.shard cycle_clock)

(* A block running on this domain.  An exclusive window pauses it and
   later resumes it from fresh start readings. *)
type frame = { p : t; mutable t0 : int; mutable c0 : int }

(* The running blocks, innermost first.  Per domain: exclusive windows on
   one domain must not pause blocks running on another. *)
let running_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let running () = Domain.DLS.get running_key

let resume f =
  f.t0 <- Hilti_obs.Clock.now_ns ();
  f.c0 <- clock ()

let pause f =
  bump f.p.wall (Hilti_obs.Clock.now_ns () - f.t0);
  bump f.p.cyc (clock () - f.c0)

let enter p =
  bump p.calls 1;
  let f = { p; t0 = 0; c0 = 0 } in
  resume f;
  let r = running () in
  r := f :: !r;
  f

let leave f =
  pause f;
  let r = running () in
  r := List.filter (fun g -> g != f) !r

let start p = ignore (enter p)

(** Stop the innermost running block of [p] on this domain, if any. *)
let stop p = Option.iter leave (List.find_opt (fun f -> f.p.name = p.name) !(running ()))

(** Time a function under profiler [p]. *)
let time p f =
  let fr = enter p in
  Fun.protect ~finally:(fun () -> leave fr) f

(** Time a function under [p] while {e pausing} every profiler that is
    currently running: components measured this way are mutually
    exclusive, so they can be summed into a breakdown (the Figure 9/10
    accounting). *)
let time_exclusive p f =
  let running = running () in
  let saved = !running in
  List.iter pause saved;
  let fr = enter p in
  running := [ fr ];
  Fun.protect f ~finally:(fun () ->
      pause fr;
      running := saved;
      List.iter resume saved)

(** Snapshot history bound: only the newest [max_snapshots] per profiler
    are retained, so periodic snapshotting on a streaming workload uses
    constant memory. *)
let max_snapshots = 256

(* All snapshots, newest first, as (name, (wall_ns, cycles)).  Snapshots
   are rare, so one compare-and-set list serves all domains. *)
let history : (string * (int64 * int64)) list Atomic.t = Atomic.make []

(** Record the current totals of [p] as a snapshot (HILTI writes these to
    disk at regular intervals; we retain the newest {!max_snapshots} in
    memory and render on demand). *)
let rec snapshot p =
  let old = Atomic.get history in
  let mine = ref 0 in
  let older =
    List.filter (fun (n, _) -> n <> p.name || (incr mine; !mine < max_snapshots)) old
  in
  let entry = (p.name, (wall_ns p, cycles p)) in
  if not (Atomic.compare_and_set history old (entry :: older)) then snapshot p

(** Retained snapshots of [p], oldest first. *)
let snapshots p =
  List.rev (List.filter_map (fun (n, s) -> if n = p.name then Some s else None) (Atomic.get history))

(* Every profiler created so far, sorted by name. *)
let all () =
  List.filter_map
    (fun (s : M.sample) ->
      match s.s_label with
      | Some ("name", n) when s.s_name = "profiler_calls" -> Some (create n)
      | _ -> None)
    (M.scrape ())

let reset_all () =
  List.iter (fun p -> List.iter M.reset_counter [ p.calls; p.wall; p.cyc ]) (all ());
  running () := [];
  Atomic.set history []

(** Write all profiler totals and their recorded snapshots to [path] —
    HILTI's periodic measurement dumps (§3.3).  The write is atomic
    (temp + rename), so a crash mid-dump can't leave a torn report. *)
let write_report path =
  let b = Buffer.create 1024 in
  let ms ns = Int64.to_float ns /. 1e6 in
  let profilers = all () in
  Buffer.add_string b "#profiler\tcalls\twall_ms\tcycles\n";
  List.iter
    (fun p ->
      Printf.bprintf b "%-30s calls=%-8d wall=%.3fms cycles=%Ld\n" p.name (invocations p)
        (ms (wall_ns p)) (cycles p))
    profilers;
  List.iter
    (fun p ->
      List.iteri
        (fun i (wall, cyc) ->
          Printf.bprintf b "#snapshot\t%s\t%d\t%.3f\t%Ld\n" p.name i (ms wall) cyc)
        (snapshots p))
    profilers;
  Hilti_obs.Export.write_file_atomic path (Buffer.contents b)
