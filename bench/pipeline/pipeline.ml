(** The mini-bro pipeline benchmark: each workload end to end in fresh
    child processes, plus one traced child per workload for the per-layer
    breakdown.  README.md describes the workloads, metrics and findings.

    {v
    pipeline.exe --workload W --seed N --seconds S --trace 0|1
        one workload for S seconds; the last stdout line is a JSON result
    pipeline.exe --seed N
        a full set: every workload, 30 rounds round-robin, then one traced
        child each; prints a table and writes OUT/set-seedN.json
    pipeline.exe --quick        the self-test: tiny traces, one round
    pipeline.exe --reload-probe the compiled-engine reload leak on dns-hilti
    v}

    Every repetition runs in a fresh child process: each compiled engine
    registers a profiler cycle counter that is never removed, so
    reloading in one process makes later runs slower.  A full set
    interleaves the workloads round-robin, so that the host's drift hits
    them alike. *)

let usage =
  "usage: pipeline.exe [--workload W --seconds S --trace 0|1] [--seed N]\n\
  \                    [--quick] [--reload-probe] [--out DIR]\n"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pipeline: " ^ s); exit 2) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ---- Traces ------------------------------------------------------------------ *)

(** The workload's trace for [seed] and what its logs must show.  Traces
    are generated once and cached under [out]; only the latest seed of
    each workload is kept. *)
let ensure_trace ~out ~quick ~seed w =
  let dir = Filename.concat out "traces" in
  mkdir_p dir;
  let base = Filename.concat dir (Workload.name w ^ if quick then "-quick" else "") in
  let pcap = base ^ ".pcap" and meta = base ^ ".spec" in
  let spec = Workload.trace_spec ~quick ~seed w in
  let cached =
    if Sys.file_exists meta && Sys.file_exists pcap then
      match String.split_on_char '\n' (read_file meta) with
      | s :: e :: _ when s = spec -> Some (Workload.expect_of_string e)
      | _ -> None
    else None
  in
  match cached with
  | Some e -> (pcap, e)
  | None ->
      let e = Workload.generate ~quick ~seed w ~path:(pcap ^ ".tmp") in
      Sys.rename (pcap ^ ".tmp") pcap;
      write_file meta (spec ^ "\n" ^ Workload.expect_to_string e ^ "\n");
      Gc.compact ();
      (pcap, e)

(* ---- Children -------------------------------------------------------------------- *)

(* The calibration table: filled once, so the kernel itself allocates
   nothing and leaves the parent's GC out of the timing. *)
let cal_table =
  let h = Hashtbl.create 16384 in
  for i = 0 to 16383 do
    Hashtbl.replace h i i
  done;
  h

(** A fixed Hashtbl kernel, timed around every child: how fast the host
    is right now. *)
let cal_ms () =
  let t0 = Spans.now () in
  let s = ref 0 in
  for i = 0 to 49_999 do
    Hashtbl.replace cal_table (i land 16383) i;
    s := !s + Hashtbl.find cal_table ((i * 7) land 16383)
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (Spans.now () - t0) /. 1e6

type reply = {
  ok : bool;  (** exited 0 *)
  kv : (string * string) list;
  metrics : (string * float) list;
  cal : float list;  (** host calibration before and after *)
}

(* Run this executable as a child, with [env] added to the environment,
   and collect its "key value" lines. *)
let spawn ?(env = []) args =
  let cal0 = cal_ms () in
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let env = Array.append (Unix.environment ()) (Array.of_list env) in
  let argv =
    Array.of_list (exe :: "--child" :: (args @ [ "--spawn-ns"; string_of_int (Spans.now ()) ]))
  in
  let pid = Unix.create_process_env exe argv env Unix.stdin w Unix.stderr in
  Unix.close w;
  let out =
    let ic = Unix.in_channel_of_descr r in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  let _, status = Unix.waitpid [] pid in
  let kv, metrics =
    List.fold_left
      (fun (kv, ms) line ->
        match String.split_on_char ' ' line with
        | [ "metric"; name; v ] -> (kv, (name, float_of_string v) :: ms)
        | [ k; v ] -> ((k, v) :: kv, ms)
        | _ -> (kv, ms))
      ([], []) (String.split_on_char '\n' out)
  in
  { ok = status = Unix.WEXITED 0 && kv <> [];
    kv;
    metrics = List.rev metrics;
    cal = [ cal0; cal_ms () ] }

let get r k = match List.assoc_opt k r.kv with Some v -> v | None -> ""

let geti r k = match int_of_string_opt (get r k) with Some i -> i | None -> 0

let logdir ~out w mode =
  let d = Filename.concat out (Filename.concat "logs" (Workload.name w ^ "-" ^ mode)) in
  mkdir_p d;
  d

let run_untraced ~out ?(preload = 0) w pcap =
  spawn
    [ "untraced"; "--workload"; Workload.name w; "--trace-file"; pcap; "--logdir";
      logdir ~out w "untraced"; "--preload"; string_of_int preload ]

(* The traced child's runtime-event ring is a file; it goes next to the
   logs. *)
let run_traced ~out w pcap =
  let dir = logdir ~out w "traced" in
  spawn
    ~env:[ "OCAML_RUNTIME_EVENTS_DIR=" ^ dir ]
    [ "traced"; "--workload"; Workload.name w; "--trace-file"; pcap; "--logdir"; dir; "--chrome";
      Filename.concat out (Workload.name w ^ ".trace.json") ]

(* ---- Statistics ------------------------------------------------------------------ *)

(** Quantile [q] of [xs] by linear interpolation. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

type summary = { med : float; q1 : float; q3 : float; n : int }

let summarize xs =
  { med = median xs; q1 = quantile 0.25 xs; q3 = quantile 0.75 xs; n = List.length xs }

(* ---- Judging a workload's children ----------------------------------------------- *)

type verdict = {
  untraced : reply list;
  traced : reply list;
  failed : int;  (** children that exited non-zero or wrote the wrong logs *)
  problems : string list;
}

(** Every child must exit 0 and write the reference logs.  The reference
    digest is the recorded one for the default seed, otherwise the traced
    child's (or, without one, the last untraced child's).  The last logs
    of each kind of child must show the generator's ground truth; the
    children that wrote logs with a digest that failed it count as failed
    too. *)
let judge ~out ~quick ~seed w expect ~untraced ~traced =
  let name = Workload.name w in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let last rs = List.nth_opt (List.rev rs) 0 in
  let wrong =
    List.filter_map
      (fun (mode, rs) ->
        match last rs with
        | None -> None
        | Some r -> (
            match Workload.check_logs expect ~logdir:(logdir ~out w mode) with
            | Some msg ->
                problem "%s (%s): %s" name mode msg;
                Some (get r "digest")
            | None -> None))
      [ ("untraced", untraced); ("traced", traced) ]
  in
  let reference =
    match (if quick then None else Workload.recorded_digest ~seed w) with
    | Some d -> d
    | None -> (
        match (last traced, last untraced) with
        | Some r, _ | None, Some r -> get r "digest"
        | None, None -> "")
  in
  let good r = r.ok && get r "digest" = reference && not (List.mem reference wrong) in
  let failed = List.length (List.filter (fun r -> not (good r)) (untraced @ traced)) in
  if failed > 0 then
    problem "%s: %d of %d children failed or wrote other logs" name failed
      (List.length untraced + List.length traced);
  List.iter
    (fun r ->
      let packets = geti r "packets" and total = geti r "total_ns" in
      if abs (geti r "self_sum_ns" - total) > total / 100 then
        problem "%s: pass-A self times sum to %d ns, total %d ns" name (geti r "self_sum_ns") total;
      let walked = List.map int_of_string (String.split_on_char ',' (get r "walked")) in
      if geti r "records" <> packets || List.exists (( <> ) packets) walked then
        problem "%s: replays walked %s packets, the driver %d" name (get r "walked") packets;
      if geti r "lost_events" > 0 then
        problem "%s: the runtime-event ring lost %d events" name (geti r "lost_events"))
    (List.filter (fun r -> r.ok) traced);
  { untraced; traced; failed; problems = List.rev !problems }

let getf r k = float_of_string (get r k)

(* Packets per second from repetition times: packets over the time, the
   quartiles swapped. *)
let rate packets secs =
  let s = summarize secs in
  { s with med = packets /. s.med; q1 = packets /. s.q3; q3 = packets /. s.q1 }

let packets_of rs = match rs with r :: _ -> getf r "packets" | [] -> nan

let rep_secs rs = List.map (fun r -> getf r "rep_ns" /. 1e9) rs

(** The calibration kernel's time at the fast end (5th percentile) on the
    reference host, in ms. *)
let cal_ref_ms = 3.

let fast_end = quantile 0.05

let list_min = List.fold_left min infinity

(** End-to-end metrics of the untraced children that succeeded.

    [pps_ref] is the packet rate at the fast end (5th percentile) of the
    repetition times, scaled by the fast end of the calibration runs
    around the children to a host whose calibration runs take
    {!cal_ref_ms} there.  This host drifts between speed states up to
    1.8x apart that last from a second to minutes: a run's median reports
    how long the host was slow, its fast end reports the program in the
    host's fastest state, and the calibration takes out how fast that
    state was.  [setup_s] is the median. *)
let end_to_end v =
  let ok = List.filter (fun r -> r.ok) v.untraced in
  let scale = fast_end (List.concat_map (fun r -> r.cal) ok) /. cal_ref_ms in
  let pps = rate (packets_of ok) (rep_secs ok) in
  [ ( "pps_ref",
      { pps with
        med = packets_of ok /. fast_end (rep_secs ok) *. scale;
        q1 = pps.q1 *. scale;
        q3 = pps.q3 *. scale } );
    ("peak_rss_mib", summarize (List.map (fun r -> getf r "peak_rss_kb" /. 1024.) ok));
    ("setup_s", summarize (List.map (fun r -> getf r "setup_ns" /. 1e9) ok)) ]

(** Per-layer metrics: medians over the traced children, plus what the
    parent measures around the children — the fastest traced run against
    the fastest untraced one, the host calibration and the packet rate at
    the median repetition. *)
let per_layer v =
  let traced = List.filter (fun r -> r.ok) v.traced in
  let untraced = List.filter (fun r -> r.ok) v.untraced in
  let metric name = median (List.filter_map (fun r -> List.assoc_opt name r.metrics) traced) in
  let fastest rs k = list_min (List.map (fun r -> getf r k) rs) in
  List.map
    (fun (name, _) ->
      match name with
      | "trace.overhead_share" ->
          (name, (fastest traced "total_ns" /. fastest untraced "rep_ns") -. 1.)
      | "host.cal_ms" -> (name, median (List.concat_map (fun r -> r.cal) (v.untraced @ v.traced)))
      | "host.pps_median" -> (name, (rate (packets_of untraced) (rep_secs untraced)).med)
      | _ -> (name, metric name))
    Metrics.per_layer

(* ---- Output ---------------------------------------------------------------------- *)

let attempted v = List.length v.untraced + List.length v.traced

let json_num x = if Float.is_finite x then Metrics.num x else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    attempted failed
    (json_obj
       (List.map
          (fun (name, unit, x) ->
            (name, json_obj [ ("value", json_num x); ("unit", "\"" ^ unit ^ "\"") ]))
          metrics))

let report_problems problems = List.iter (fun p -> Printf.eprintf "pipeline: %s\n%!" p) problems

(** Every child's raw numbers, one TSV row each, for later analysis. *)
let write_children ~out name v =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "mode\tok\trep_ns\ttotal_ns\tsetup_ns\tcal_before_ms\tcal_after_ms\tpeak_rss_kb\n";
  List.iter
    (fun (mode, rs) ->
      List.iter
        (fun r ->
          Printf.bprintf b "%s\t%b\t%s\t%s\t%s\t%s\t%s\n" mode r.ok (get r "rep_ns")
            (get r "total_ns") (get r "setup_ns")
            (String.concat "\t" (List.map (Printf.sprintf "%.3f") r.cal))
            (get r "peak_rss_kb"))
        rs)
    [ ("untraced", v.untraced); ("traced", v.traced) ];
  let dir = Filename.concat out "children" in
  mkdir_p dir;
  write_file (Filename.concat dir (name ^ ".tsv")) (Buffer.contents b)

(* ---- Modes ----------------------------------------------------------------------- *)

(** One workload for [seconds]: untraced children back to back, or — with
    [trace] — untraced and traced children alternating. *)
let single ~out ~seed ~seconds ~trace w =
  let pcap, expect = ensure_trace ~out ~quick:false ~seed w in
  let deadline = Spans.now () + (seconds * 1_000_000_000) in
  let untraced = ref [] and traced = ref [] in
  while !untraced = [] || Spans.now () < deadline do
    untraced := run_untraced ~out w pcap :: !untraced;
    if trace then traced := run_traced ~out w pcap :: !traced
  done;
  let v =
    judge ~out ~quick:false ~seed w expect ~untraced:(List.rev !untraced)
      ~traced:(List.rev !traced)
  in
  report_problems v.problems;
  write_children ~out
    (Printf.sprintf "%s-seed%d-trace%d" (Workload.name w) seed (Bool.to_int trace))
    v;
  let metrics =
    if trace then per_layer v else List.map (fun (n, s) -> (n, s.med)) (end_to_end v)
  in
  let metrics = List.map (fun (n, x) -> (n, Metrics.unit_of n, x)) metrics in
  result_line ~correct:(v.problems = []) ~attempted:(attempted v) ~failed:v.failed metrics

let rotate k l =
  let k = k mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

(* One workload's part of a set: printed rows, its JSON entry, and what is
   missing. *)
let set_entry ~quick ~seed w v =
  let name = Workload.name w and spec = Workload.trace_spec ~quick ~seed w in
  let e2e = end_to_end v and layers = per_layer v in
  let failed_share = float_of_int v.failed /. float_of_int (attempted v) in
  let row m value rest =
    Printf.printf "  %-32s %14s %-6s%s\n" m (json_num value) (Metrics.unit_of m) rest
  in
  Printf.printf "\n%s (%s)\n" name spec;
  List.iter
    (fun (m, s) ->
      row m s.med (Printf.sprintf " q1 %s q3 %s n %d" (json_num s.q1) (json_num s.q3) s.n))
    e2e;
  Printf.printf "  %-32s %14s ratio\n" "failed_share" (json_num failed_share);
  List.iter (fun (m, x) -> row m x "") layers;
  let missing =
    List.filter_map
      (fun (m, x) -> if Float.is_finite x then None else Some (name ^ ": no value for " ^ m))
      (List.map (fun (m, s) -> (m, s.med)) e2e @ layers)
  in
  let unit m = "\"" ^ Metrics.unit_of m ^ "\"" in
  let json =
    json_obj
      [ ("trace", "\"" ^ spec ^ "\"");
        ("digest", "\"" ^ (match v.traced with r :: _ -> get r "digest" | [] -> "") ^ "\"");
        ("failed_share", json_num failed_share);
        ( "end_to_end",
          json_obj
            (List.map
               (fun (m, s) ->
                 ( m,
                   json_obj
                     [ ("unit", unit m); ("value", json_num s.med); ("q1", json_num s.q1);
                       ("q3", json_num s.q3); ("n", string_of_int s.n) ] ))
               e2e) );
        ( "per_layer",
          json_obj
            (List.map
               (fun (m, x) -> (m, json_obj [ ("unit", unit m); ("value", json_num x) ]))
               layers) ) ]
  in
  ((name, json), missing, List.map (fun (m, s) -> (name ^ "/" ^ m, Metrics.unit_of m, s.med)) e2e)

(** A full set: [rounds] rounds of every workload, the order rotating each
    round, then one traced child per workload.  Prints every metric, writes
    OUT/set-seedN.json, and exits 1 unless every check holds — with
    [quick], the self-test. *)
let set ~out ~quick ~seed ~rounds =
  let traces = List.map (fun w -> (w, ensure_trace ~out ~quick ~seed w)) Workload.all in
  let t_start = Spans.now () in
  let untraced = Hashtbl.create 4 in
  for round = 0 to rounds - 1 do
    List.iter
      (fun w -> Hashtbl.add untraced w (run_untraced ~out w (fst (List.assoc w traces))))
      (rotate round Workload.all)
  done;
  let verdicts =
    List.map
      (fun w ->
        let pcap, expect = List.assoc w traces in
        let traced = [ run_traced ~out w pcap ] in
        ( w,
          judge ~out ~quick ~seed w expect ~untraced:(List.rev (Hashtbl.find_all untraced w))
            ~traced ))
      Workload.all
  in
  let elapsed = float_of_int (Spans.now () - t_start) /. 1e9 in
  List.iter
    (fun (w, v) -> write_children ~out (Printf.sprintf "set-seed%d-%s" seed (Workload.name w)) v)
    verdicts;
  let entries = List.map (fun (w, v) -> set_entry ~quick ~seed w v) verdicts in
  let problems =
    List.concat_map (fun (_, v) -> v.problems) verdicts
    @ List.concat_map (fun (_, missing, _) -> missing) entries
  in
  let path =
    Filename.concat out (Printf.sprintf "set-seed%d%s.json" seed (if quick then "-quick" else ""))
  in
  write_file path
    (json_obj
       [ ("seed", string_of_int seed);
         ("rounds", string_of_int rounds);
         ("elapsed_s", Printf.sprintf "%.1f" elapsed);
         ("workloads", json_obj (List.map (fun (e, _, _) -> e) entries)) ]
    ^ "\n");
  Printf.printf "\nset of %d rounds in %.1f s; wrote %s\n" rounds elapsed path;
  report_problems problems;
  result_line ~correct:(problems = [])
    ~attempted:(List.fold_left (fun k (_, v) -> k + attempted v) 0 verdicts)
    ~failed:(List.fold_left (fun k (_, v) -> k + v.failed) 0 verdicts)
    (List.concat_map (fun (_, _, flat) -> flat) entries);
  if problems <> [] then exit 1

(** The reload leak: alloc per packet on dns-hilti after 41 compiled-engine
    loads in one process, over the same after one. *)
let reload_probe ~out ~seed =
  let pcap, _ = ensure_trace ~out ~quick:false ~seed Workload.Dns_hilti in
  let alloc preload =
    let r = run_untraced ~out ~preload Workload.Dns_hilti pcap in
    if not r.ok then die "reload probe child failed";
    float_of_string (get r "alloc_b_per_pkt")
  in
  let one = alloc 0 in
  let many = alloc 40 in
  Printf.printf "alloc per packet after 1 load: %.0f B, after 41 loads: %.0f B\n" one many;
  result_line ~correct:true ~attempted:2 ~failed:0
    [ ("vm.reload_alloc_growth", "ratio", many /. one) ]

(* ---- Arguments ------------------------------------------------------------------- *)

let () =
  let args = Hashtbl.create 16 in
  let rec parse = function
    | [] -> ()
    | ("--quick" | "--reload-probe") as flag :: rest ->
        Hashtbl.replace args flag "1";
        parse rest
    | ("--child" | "--workload" | "--seed" | "--seconds" | "--trace" | "--out"
      | "--trace-file" | "--logdir" | "--chrome" | "--spawn-ns" | "--preload") as key
      :: v :: rest ->
        Hashtbl.replace args key v;
        parse rest
    | a :: _ -> die "unknown argument %s\n%s" a usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let str k = Hashtbl.find_opt args k in
  let int k ~default =
    match str k with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with Some i -> i | None -> die "%s expects an integer" k)
  in
  let workload () =
    match str "--workload" with
    | None -> None
    | Some n -> (
        match Workload.of_name n with
        | Some w -> Some w
        | None ->
            die "unknown workload %s (one of %s)" n
              (String.concat ", " (List.map Workload.name Workload.all)))
  in
  let need k = match str k with Some v -> v | None -> die "%s is required" k in
  match str "--child" with
  | Some mode -> (
      let w = match workload () with Some w -> w | None -> die "--child needs --workload" in
      let trace = need "--trace-file" and logdir = need "--logdir" in
      match mode with
      | "untraced" ->
          Child.untraced w ~trace ~logdir ~spawn_ns:(int "--spawn-ns" ~default:0)
            ~preload:(int "--preload" ~default:0)
      | "traced" -> Child.traced w ~trace ~logdir ~chrome:(need "--chrome")
      | m -> die "unknown child mode %s" m)
  | None -> (
      let quick = Hashtbl.mem args "--quick" in
      let out = Option.value (str "--out") ~default:"bench/pipeline/out" in
      let seed = int "--seed" ~default:Workload.default_seed in
      if Hashtbl.mem args "--reload-probe" then reload_probe ~out ~seed
      else
        match workload () with
        | Some w ->
            let seconds = int "--seconds" ~default:20 in
            if seconds < 1 then die "--seconds must be at least 1";
            let trace =
              match str "--trace" with
              | None | Some "0" -> false
              | Some "1" -> true
              | Some t -> die "--trace expects 0 or 1, got %s" t
            in
            single ~out ~seed ~seconds ~trace w
        | None ->
            set ~out ~quick ~seed ~rounds:(if quick then 1 else 30))
