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
   later resumes it at the window's own readings. *)
type frame = { p : t; mutable t0 : int; mutable c0 : int }

(* The running blocks, innermost first.  Per domain: exclusive windows on
   one domain must not pause blocks running on another. *)
let running_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let running () = Domain.DLS.get running_key

(* Charge [f] up to the readings [t] (wall) and [c] (cycles). *)
let pause_at f t c =
  bump f.p.wall (t - f.t0);
  bump f.p.cyc (c - f.c0)

let rec pause_all t c = function
  | [] -> ()
  | f :: rest ->
      pause_at f t c;
      pause_all t c rest

let rec resume_all t c = function
  | [] -> ()
  | f :: rest ->
      f.t0 <- t;
      f.c0 <- c;
      resume_all t c rest

let enter p =
  bump p.calls 1;
  let f = { p; t0 = Hilti_obs.Clock.now_ns (); c0 = clock () } in
  let r = running () in
  r := f :: !r;
  f

let leave f =
  pause_at f (Hilti_obs.Clock.now_ns ()) (clock ());
  let r = running () in
  match !r with
  | g :: rest when g == f -> r := rest
  | l -> r := List.filter (fun g -> g != f) l

let start p = ignore (enter p)

(** Stop the innermost running block of [p] on this domain, if any. *)
let stop p = Option.iter leave (List.find_opt (fun f -> f.p.name = p.name) !(running ()))

(** Time a function under profiler [p]. *)
let time p f =
  let fr = enter p in
  match f () with
  | r ->
      leave fr;
      r
  | exception e ->
      leave fr;
      raise e

(* End exclusive window [fr]: one reading charges it and resumes the
   blocks it paused. *)
let close_window running saved fr =
  let t = Hilti_obs.Clock.now_ns () and c = clock () in
  pause_at fr t c;
  running := saved;
  resume_all t c saved

(** Time a function under [p] while {e pausing} every profiler that is
    currently running: components measured this way are mutually
    exclusive, so they can be summed into a breakdown (the Figure 9/10
    accounting).  The window reads the clocks twice: its opening reading
    pauses the running blocks, and its closing reading resumes them, so
    what it charges is exactly what they miss.  It allocates its frame
    only.  [apply_exclusive p f x] times [f x] the same way, so a caller
    that keeps [f] allocates no closure per window. *)
let apply_exclusive p f x =
  let running = running () in
  let saved = !running in
  let t0 = Hilti_obs.Clock.now_ns () and c0 = clock () in
  pause_all t0 c0 saved;
  bump p.calls 1;
  let fr = { p; t0; c0 } in
  running := [ fr ];
  match f x with
  | r ->
      close_window running saved fr;
      r
  | exception e ->
      close_window running saved fr;
      raise e

let time_exclusive p f = apply_exclusive p f ()

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
