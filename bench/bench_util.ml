(** Shared benchmark plumbing: monotonic-clock timing, Bechamel micro
    benches, paper-style table rendering, and the one result report every
    BENCH_*.json file is written from. *)

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

(* ---- The one result report --------------------------------------------------- *)

(** An experiment's results: each number recorded once, as a named metric
    with a value and a unit.  A labelled metric is one row of a table (the
    labels name the row; the metric name is the column).  The experiment
    also declares its gates: a bound on an unlabelled metric, or only that
    it must be recorded.  {!finish} writes [BENCH_<experiment>.json],
    evaluates every gate and prints each violated or missing one, so a
    section that stops recording a gated metric fails like one that
    regresses it. *)
module Report = struct
  type value = Num of float | Flag of bool | Text of string

  type bound =
    | At_most of float
    | At_least of float
    | Equals of value
    | Recorded  (** must be present; any value *)

  type metric = {
    name : string;
    labels : (string * value) list;
    value : value;
    unit_ : string;
  }

  type t = {
    experiment : string;
    gates : (string * bound) list;
    mutable metrics : metric list;  (** newest first *)
  }

  let create experiment ~gates = { experiment; gates; metrics = [] }

  let record t ?(labels = []) ?(unit_ = "") name value =
    t.metrics <- { name; labels; value; unit_ } :: t.metrics

  let num t ?labels ~unit_ name v = record t ?labels ~unit_ name (Num v)
  let int t ?labels ~unit_ name v = num t ?labels ~unit_ name (float_of_int v)
  let flag t ?labels name b = record t ?labels name (Flag b)
  let text t ?labels name s = record t ?labels name (Text s)

  let json_of_value = function
    | Num x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
    | Num x when Float.is_finite x -> Printf.sprintf "%.6g" x
    | Num _ -> "null"
    | Flag b -> string_of_bool b
    | Text s -> "\"" ^ Hilti_obs.Export.json_escape s ^ "\""

  let bound_to_string = function
    | At_most b -> "<= " ^ json_of_value (Num b)
    | At_least b -> ">= " ^ json_of_value (Num b)
    | Equals v -> "= " ^ json_of_value v
    | Recorded -> "recorded"

  (* A NaN reading fails every numeric bound. *)
  let holds bound value =
    match (bound, value) with
    | At_most b, Num x -> x <= b
    | At_least b, Num x -> x >= b
    | Equals v, _ -> v = value
    | Recorded, _ -> true
    | (At_most _ | At_least _), (Flag _ | Text _) -> false

  let gate_of t m = if m.labels = [] then List.assoc_opt m.name t.gates else None

  let metric_json t m =
    let b = Buffer.create 128 in
    Printf.bprintf b "{\"name\": \"%s\"" m.name;
    if m.labels <> [] then
      Printf.bprintf b ", \"labels\": {%s}"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_of_value v)) m.labels));
    Printf.bprintf b ", \"value\": %s, \"unit\": \"%s\"" (json_of_value m.value) m.unit_;
    (match gate_of t m with
    | Some bound ->
        Printf.bprintf b ", \"gate\": \"%s\", \"ok\": %b" (bound_to_string bound)
          (holds bound m.value)
    | None -> ());
    Buffer.add_char b '}';
    Buffer.contents b

  (** Write [BENCH_<experiment>.json] (atomically: an interrupted run never
      leaves a truncated file), then check every gate; prints each failure
      and returns how many there were. *)
  let finish t =
    let metrics = List.rev t.metrics in
    let failures =
      List.filter_map
        (fun (name, bound) ->
          match List.find_opt (fun m -> m.name = name && m.labels = []) metrics with
          | None -> Some (Printf.sprintf "%s not recorded (gate: %s)" name (bound_to_string bound))
          | Some m when not (holds bound m.value) ->
              Some
                (Printf.sprintf "%s = %s %s (gate: %s)" name (json_of_value m.value) m.unit_
                   (bound_to_string bound))
          | Some _ -> None)
        t.gates
    in
    let path = Printf.sprintf "BENCH_%s.json" t.experiment in
    Hilti_obs.Export.write_file_atomic path
      (Printf.sprintf "{\n  \"experiment\": \"%s\",\n  \"gates_failed\": %d,\n  \"metrics\": [\n    %s\n  ]\n}\n"
         t.experiment (List.length failures)
         (String.concat ",\n    " (List.map (metric_json t) metrics)));
    Printf.printf "%d metrics written to %s; %d of %d gates hold\n" (List.length metrics) path
      (List.length t.gates - List.length failures)
      (List.length t.gates);
    List.iter (fun f -> Printf.printf "GATE FAILED bench %s: %s\n" t.experiment f) failures;
    List.length failures
end
