(** §6.5 Bro script compiler: Table 3 (compiled vs interpreted script
    output agreement), Figure 10 (per-component time), and the Fibonacci
    baseline benchmark. *)

open Hilti_analyzers

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let evaluate ~proto ~mode records =
  Bench_util.gc_normalize ();
  Driver.evaluate_src ~proto ~engine_mode:mode ~scripts:(Lazy.force scripts)
    (Hilti_net.Pcap.iosrc_of_records records)

type results = {
  http_agreement : Mini_bro.Bro_log.agreement;
  files_agreement : Mini_bro.Bro_log.agreement;
  dns_agreement : Mini_bro.Bro_log.agreement;
  http_script_ratio : float;
  dns_script_ratio : float;
  fib_speedup : float;
}

let fib_bench () =
  let script = Mini_bro.Bro_scripts.parse_fib () in
  let arg = [ Mini_bro.Bro_val.Vcount 21L ] in
  let interp = Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Interpreted script in
  let compiled = Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Compiled script in
  let vi, interp_ns =
    Bench_util.best_of (fun () -> Mini_bro.Bro_engine.call_function interp "fib" arg)
  in
  let vc, compiled_ns =
    Bench_util.best_of (fun () -> Mini_bro.Bro_engine.call_function compiled "fib" arg)
  in
  assert (Mini_bro.Bro_val.equal vi vc);
  (interp_ns, compiled_ns)

let run ?(http_sessions = 250) ?(dns_transactions = 2500) () : results =
  let http_records =
    (Hilti_traces.Http_gen.generate
       { Hilti_traces.Http_gen.default with sessions = http_sessions; seed = 777 })
      .Hilti_traces.Http_gen.records
  in
  let dns_records =
    (Hilti_traces.Dns_gen.generate
       { Hilti_traces.Dns_gen.default with transactions = dns_transactions; seed = 778 })
      .Hilti_traces.Dns_gen.records
  in
  (* Both engines over the same (standard) parsers, as §6.5 does. *)
  let http_i = evaluate ~proto:(`Http Driver.Http_std) ~mode:Mini_bro.Bro_engine.Interpreted http_records in
  let http_c = evaluate ~proto:(`Http Driver.Http_std) ~mode:Mini_bro.Bro_engine.Compiled http_records in
  let dns_i = evaluate ~proto:(`Dns Driver.Dns_std) ~mode:Mini_bro.Bro_engine.Interpreted dns_records in
  let dns_c = evaluate ~proto:(`Dns Driver.Dns_std) ~mode:Mini_bro.Bro_engine.Compiled dns_records in
  let agree stream a b =
    Mini_bro.Bro_log.compare_streams a.Driver.logger b.Driver.logger stream
  in
  let http_agreement = agree "http" http_i http_c in
  let files_agreement = agree "files" http_i http_c in
  let dns_agreement = agree "dns" dns_i dns_c in
  let arow name (a : Mini_bro.Bro_log.agreement) =
    ( name, a.Mini_bro.Bro_log.total_a, a.Mini_bro.Bro_log.total_b,
      a.Mini_bro.Bro_log.normalized_a, a.Mini_bro.Bro_log.normalized_b,
      a.Mini_bro.Bro_log.fraction )
  in
  Bench_util.agreement_table
    ~title:"Table 3: output of compiled scripts (Hlt) vs standard (Std)"
    ~rows:
      [ arow "http.log" http_agreement;
        arow "files.log" files_agreement;
        arow "dns.log" dns_agreement ];
  Printf.printf "(paper: >99.99%%, 99.98%%, >99.99%%)\n";
  let breakdown name (r : Driver.run_result) =
    let p = Bench_util.ms r.Driver.parse_ns
    and s = Bench_util.ms r.Driver.script_ns
    and g = Bench_util.ms r.Driver.glue_ns
    and t = Bench_util.ms r.Driver.total_ns in
    (name, p, s, g, Float.max 0.0 (t -. p -. s -. g), t)
  in
  Bench_util.breakdown_table ~title:"Figure 10: performance of scripts compiled into HILTI"
    ~rows:
      [ breakdown "HTTP standard" http_i;
        breakdown "HTTP HILTI" http_c;
        breakdown "DNS standard" dns_i;
        breakdown "DNS HILTI" dns_c ];
  let http_script_ratio =
    Bench_util.ratio http_c.Driver.script_ns http_i.Driver.script_ns
  in
  let dns_script_ratio = Bench_util.ratio dns_c.Driver.script_ns dns_i.Driver.script_ns in
  Printf.printf
    "script-cycles ratio Hlt/Std: HTTP %.2fx, DNS %.2fx (paper: 1.30x / 0.93x)\n"
    http_script_ratio dns_script_ratio;
  Printf.printf "glue share of total: HTTP %.1f%%, DNS %.1f%% (paper: 4.2%% / 20.0%%)\n"
    (100.0 *. Bench_util.ratio http_c.Driver.glue_ns http_c.Driver.total_ns)
    (100.0 *. Bench_util.ratio dns_c.Driver.glue_ns dns_c.Driver.total_ns);
  (* Fibonacci baseline (§6.5): compiled vs interpreted. *)
  let interp_ns, compiled_ns = fib_bench () in
  let fib_speedup = Bench_util.ratio interp_ns compiled_ns in
  Bench_util.header "§6.5 Fibonacci baseline";
  Printf.printf "fib(21) interpreted: %8.2f ms\n" (Bench_util.ms interp_ns);
  Printf.printf "fib(21) compiled:    %8.2f ms  (interpreted/compiled %.2fx; paper: orders of magnitude)\n"
    (Bench_util.ms compiled_ns) fib_speedup;
  { http_agreement; files_agreement; dns_agreement; http_script_ratio;
    dns_script_ratio; fib_speedup }
