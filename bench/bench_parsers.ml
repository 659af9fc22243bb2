(** §6.4 protocol parsing: Table 2 (agreement of BinPAC++ vs standard
    parsers, normalized log diff) and Figure 9 (per-component CPU time for
    both configurations on the HTTP and DNS traces). *)

open Hilti_analyzers

let http_trace sessions seed =
  (Hilti_traces.Http_gen.generate
     { Hilti_traces.Http_gen.default with sessions; seed })
    .Hilti_traces.Http_gen.records

let dns_trace transactions seed =
  (Hilti_traces.Dns_gen.generate
     { Hilti_traces.Dns_gen.default with transactions; seed })
    .Hilti_traces.Dns_gen.records

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let evaluate ~proto records =
  Bench_util.gc_normalize ();
  Driver.evaluate_src ~proto ~engine_mode:Mini_bro.Bro_engine.Interpreted
    ~scripts:(Lazy.force scripts) (Hilti_net.Pcap.iosrc_of_records records)

let agreement_row name (a : Mini_bro.Bro_log.agreement) =
  ( name,
    a.Mini_bro.Bro_log.total_a,
    a.Mini_bro.Bro_log.total_b,
    a.Mini_bro.Bro_log.normalized_a,
    a.Mini_bro.Bro_log.normalized_b,
    a.Mini_bro.Bro_log.fraction )

(* Parse/script/glue are measured mutually exclusively (the profiler
   pauses enclosing components), so they sum with "other" to the total. *)
let breakdown name (r : Driver.run_result) =
  let p = Bench_util.ms r.Driver.parse_ns
  and s = Bench_util.ms r.Driver.script_ns
  and g = Bench_util.ms r.Driver.glue_ns
  and t = Bench_util.ms r.Driver.total_ns in
  (name, p, s, g, Float.max 0.0 (t -. p -. s -. g), t)

type results = {
  http_agreement : Mini_bro.Bro_log.agreement;
  files_agreement : Mini_bro.Bro_log.agreement;
  dns_agreement : Mini_bro.Bro_log.agreement;
  http_parse_ratio : float;
  dns_parse_ratio : float;
}

let run ?(http_sessions = 250) ?(dns_transactions = 2500) () : results =
  let http_records = http_trace http_sessions 777 in
  let dns_records = dns_trace dns_transactions 778 in
  let pac_http = Http_pac.load () in
  let pac_dns = Dns_pac.load () in
  (* HTTP *)
  let std_http = evaluate ~proto:(`Http Driver.Http_std) http_records in
  let pac_http_r = evaluate ~proto:(`Http (Driver.Http_pac pac_http)) http_records in
  (* DNS *)
  let std_dns = evaluate ~proto:(`Dns Driver.Dns_std) dns_records in
  let pac_dns_r = evaluate ~proto:(`Dns (Driver.Dns_pac pac_dns)) dns_records in
  let http_agreement =
    Mini_bro.Bro_log.compare_streams std_http.Driver.logger pac_http_r.Driver.logger "http"
  in
  let files_agreement =
    Mini_bro.Bro_log.compare_streams std_http.Driver.logger pac_http_r.Driver.logger "files"
  in
  let dns_agreement =
    Mini_bro.Bro_log.compare_streams std_dns.Driver.logger pac_dns_r.Driver.logger "dns"
  in
  Bench_util.agreement_table
    ~title:"Table 2: agreement HILTI (Pac) vs standard (Std) parsers"
    ~rows:
      [ agreement_row "http.log" http_agreement;
        agreement_row "files.log" files_agreement;
        agreement_row "dns.log" dns_agreement ];
  Printf.printf "(paper: http.log 98.91%%, files.log 98.36%%, dns.log >99.9%%)\n";
  Bench_util.breakdown_table ~title:"Figure 9: performance of HILTI-based protocol parsers"
    ~rows:
      [ breakdown "HTTP standard" std_http;
        breakdown "HTTP binpac++" pac_http_r;
        breakdown "DNS standard" std_dns;
        breakdown "DNS binpac++" pac_dns_r ];
  let http_parse_ratio =
    Bench_util.ratio pac_http_r.Driver.parse_ns std_http.Driver.parse_ns
  in
  let dns_parse_ratio =
    Bench_util.ratio pac_dns_r.Driver.parse_ns std_dns.Driver.parse_ns
  in
  Printf.printf
    "parsing-cycles ratio Pac/Std: HTTP %.2fx, DNS %.2fx (paper: 1.28x / 3.03x)\n"
    http_parse_ratio dns_parse_ratio;
  Printf.printf "glue share of total: HTTP %.1f%%, DNS %.1f%% (paper: 1.3%% / 6.9%%)\n"
    (100.0 *. Bench_util.ratio pac_http_r.Driver.glue_ns pac_http_r.Driver.total_ns)
    (100.0 *. Bench_util.ratio pac_dns_r.Driver.glue_ns pac_dns_r.Driver.total_ns);
  { http_agreement; files_agreement; dns_agreement; http_parse_ratio; dns_parse_ratio }
