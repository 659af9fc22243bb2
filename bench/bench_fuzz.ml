(** Differential fuzzing throughput: how many mutated cases per second
    the grammar-aware fuzzer pushes through its paired oracles, per
    protocol and over the full shipped pair set.  A fixed seed keeps the
    workload identical across runs; the finding count doubles as a
    regression gate (the shipped parsers must stay divergence-free). *)

module Fz = Hilti_fuzz

let run_pairs ~execs pairs =
  let cfg = { Fz.Engine.default with Fz.Engine.seed = 7; execs } in
  Bench_util.gc_normalize ();
  Bench_util.time_ns (fun () -> Fz.Engine.run ~pairs cfg)

let gates =
  Bench_util.Report.
    [ ("execs_per_sec", Recorded);
      ("corpus_cases", Recorded);
      (* The shipped parsers must stay divergence-free under the seeded run. *)
      ("findings", Equals (Num 0.)) ]

let run ?(quick = false) () =
  Bench_util.header "differential fuzzing: execs/sec through paired oracles";
  let module R = Bench_util.Report in
  let r = R.create "fuzz" ~gates in
  let execs = if quick then 150 else 600 in
  R.int r ~unit_:"" "seed" 7;
  R.int r ~unit_:"execs" "execs_per_pair" execs;
  (* Warm the lazily-built corpora and compiled grammars off the clock. *)
  List.iter
    (fun p -> ignore (Fz.Corpus.for_proto p))
    [ Fz.Shape.Mqtt; Fz.Shape.Ftp; Fz.Shape.Dns ];
  let all_pairs = Fz.Oracle.pairs () in
  List.iter
    (fun proto ->
      let pairs = Fz.Oracle.pairs_for proto in
      let report, ns = run_pairs ~execs pairs in
      let rate =
        Int64.to_float ns /. 1e9 |> fun s ->
        if s > 0.0 then float_of_int report.Fz.Engine.r_execs /. s else 0.0
      in
      let name = Fz.Shape.proto_to_string proto in
      Printf.printf "%-6s %2d pairs %6d execs %8.1f ms %9.0f execs/s  findings %d\n"
        name (List.length pairs) report.Fz.Engine.r_execs (Bench_util.ms ns)
        rate
        (List.length report.Fz.Engine.r_findings);
      let labels = [ ("proto", R.Text name) ] in
      R.int r ~labels ~unit_:"execs" "execs" report.Fz.Engine.r_execs;
      R.num r ~labels ~unit_:"ms" "ms" (Bench_util.ms ns);
      R.num r ~labels ~unit_:"execs/s" "execs_per_sec" rate;
      R.int r ~labels ~unit_:"findings" "findings" (List.length report.Fz.Engine.r_findings);
      R.int r ~labels ~unit_:"cases" "corpus_cases" report.Fz.Engine.r_corpus)
    [ Fz.Shape.Mqtt; Fz.Shape.Ftp; Fz.Shape.Dns ];
  let total_report, total_ns = run_pairs ~execs all_pairs in
  let total_rate =
    float_of_int total_report.Fz.Engine.r_execs
    /. (Int64.to_float total_ns /. 1e9)
  in
  let findings = List.length total_report.Fz.Engine.r_findings in
  Printf.printf "%-6s %2d pairs %6d execs %8.1f ms %9.0f execs/s  findings %d\n"
    "all" (List.length all_pairs) total_report.Fz.Engine.r_execs
    (Bench_util.ms total_ns) total_rate findings;
  R.int r ~unit_:"cases" "corpus_cases" total_report.Fz.Engine.r_corpus;
  R.int r ~unit_:"pairs" "pairs" (List.length all_pairs);
  R.int r ~unit_:"execs" "total_execs" total_report.Fz.Engine.r_execs;
  R.num r ~unit_:"execs/s" "execs_per_sec" total_rate;
  R.int r ~unit_:"findings" "findings" findings;
  r
