(** Shared benchmark plumbing: monotonic-clock timing, Bechamel micro
    benches, and paper-style table rendering. *)

(** Time one run of [f] in nanoseconds. *)
let time_ns = Hilti_obs.Clock.timed

(** Normalize the heap before timing: earlier experiments' garbage must
    not be charged to later ones. *)
let gc_normalize () = Gc.compact ()

(** Best-of-n timing to damp scheduler noise. *)
let best_of ?(n = 3) f =
  let best = ref Int64.max_int in
  let result = ref None in
  for _ = 1 to n do
    let r, ns = time_ns f in
    result := Some r;
    if ns < !best then best := ns
  done;
  (Option.get !result, !best)

let ms ns = Int64.to_float ns /. 1e6

(** Write a result file atomically (temp + rename): an interrupted bench
    run can never leave a truncated BENCH_*.json behind. *)
let write_file_atomic = Hilti_obs.Export.write_file_atomic

let ratio a b = if Int64.equal b 0L then nan else Int64.to_float a /. Int64.to_float b

(* ---- Bechamel micro benches --------------------------------------------------- *)

open Bechamel
open Toolkit

(** Run a list of (name, thunk) micro benches; returns (name, ns/run). *)
let bechamel_run ?(quota = 0.5) (tests : (string * (unit -> unit)) list) :
    (string * float) list =
  let tests =
    List.map
      (fun (name, f) -> Test.make ~name (Staged.stage (fun () -> Sys.opaque_identity (f ()))))
      tests
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" tests)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name result acc ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> (name, est) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

(* ---- Output helpers -------------------------------------------------------------- *)

let header title =
  Printf.printf "\n=== %s %s\n" title
    (String.make (max 0 (70 - String.length title)) '=')

let row fmt = Printf.printf fmt

let agreement_table ~title ~rows =
  (* rows: (name, total_a, total_b, norm_a, norm_b, fraction) *)
  header title;
  Printf.printf "%-12s %10s %10s %12s %12s %10s\n" "#Lines" "Std" "Cmp" "Norm(Std)"
    "Norm(Cmp)" "Identical";
  List.iter
    (fun (name, ta, tb, na, nb, frac) ->
      Printf.printf "%-12s %10d %10d %12d %12d %9.2f%%\n" name ta tb na nb
        (100.0 *. frac))
    rows

let breakdown_table ~title ~rows =
  (* rows: (config, parse_ms, script_ms, glue_ms, other_ms, total_ms) *)
  header title;
  Printf.printf "%-22s %10s %10s %10s %10s %10s\n" "" "Parse" "Script" "Glue" "Other"
    "Total";
  List.iter
    (fun (name, p, s, g, o, t) ->
      Printf.printf "%-22s %8.1fms %8.1fms %8.1fms %8.1fms %8.1fms\n" name p s g o t)
    rows
