(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (§6) plus the §5 micro-benchmarks and the ablations
    DESIGN.md calls out.

    Usage:  dune exec bench/main.exe [-- experiment ...]
    Experiments: table1 micro bpf firewall parsers scripts threads stream
    obs vmopt fuzz ablations (default: all).  Sizes scale down with --quick.

    Six experiments (micro threads stream obs vmopt fuzz) write their
    results to BENCH_<experiment>.json through {!Bench_util.Report} and
    carry their own gates.  Every selected experiment runs; the harness
    then exits 1 if any gate of any of them failed (each failure is
    printed as a [GATE FAILED] line). *)

let experiments =
  [ ("table1", "Table 1: instruction-set inventory");
    ("micro", "§5 fiber and runtime micro-benchmarks");
    ("bpf", "§6.2 Berkeley Packet Filter");
    ("firewall", "§6.3 stateful firewall");
    ("parsers", "§6.4 protocol parsing: Table 2 + Figure 9");
    ("scripts", "§6.5 script compiler: Table 3 + Figure 10 + fib");
    ("threads", "§6.6 virtual-thread load balancing");
    ("stream", "streaming pipeline: peak heap vs trace size");
    ("obs", "observability: instrumentation overhead off vs on");
    ("vmopt", "register-bank specialization + superinstruction fusion");
    ("fuzz", "differential fuzzing: execs/sec through paired oracles");
    ("ablations", "design-choice ablations") ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  (* --datagrams N scales the threads experiment's workload. *)
  let rec extract_datagrams = function
    | "--datagrams" :: n :: rest -> (int_of_string_opt n, rest)
    | a :: rest ->
        let d, rest = extract_datagrams rest in
        (d, a :: rest)
    | [] -> (None, [])
  in
  let datagrams, args = extract_datagrams args in
  let selected = List.filter (fun a -> a <> "--quick") args in
  let selected = if selected = [] then List.map fst experiments else selected in
  let http_sessions = if quick then 60 else 250 in
  let dns_transactions = if quick then 500 else 2500 in
  Printf.printf "HILTI evaluation harness (workload: %d HTTP sessions, %d DNS transactions)\n"
    http_sessions dns_transactions;
  let failed = ref 0 in
  let report r = failed := !failed + Bench_util.Report.finish r in
  List.iter
    (fun name ->
      match name with
      | "table1" -> Bench_table1.run ()
      | "micro" -> report (Bench_micro.run ())
      | "bpf" -> ignore (Bench_bpf.run ())
      | "firewall" -> ignore (Bench_firewall.run ())
      | "parsers" -> ignore (Bench_parsers.run ~http_sessions ~dns_transactions ())
      | "scripts" -> ignore (Bench_scripts.run ~http_sessions ~dns_transactions ())
      | "threads" -> report (Bench_threads.run ~quick ?datagrams ())
      | "stream" -> report (Bench_stream.run ~base:(if quick then 40 else 150) ())
      | "obs" -> report (Bench_obs.run ~dns_transactions ())
      | "vmopt" -> report (Bench_vmopt.run ~quick ())
      | "fuzz" -> report (Bench_fuzz.run ~quick ())
      | "ablations" -> Bench_ablations.run ()
      | other ->
          Printf.eprintf "unknown experiment %s; known:\n" other;
          List.iter (fun (n, d) -> Printf.eprintf "  %-10s %s\n" n d) experiments;
          exit 1)
    selected;
  Printf.printf "\nAll selected experiments complete.\n";
  if !failed > 0 then begin
    Printf.printf "%d gate(s) failed\n" !failed;
    exit 1
  end
