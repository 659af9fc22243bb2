(* End-to-end evaluation pipeline (§6.4/§6.5 in miniature): generated
   traces through flow tracking, reassembly, standard vs BinPAC++ parsers,
   interpreted vs compiled scripts, with normalized log comparison. *)

open Hilti_analyzers

let http_records =
  lazy
    (let cfg = { Hilti_traces.Http_gen.default with sessions = 60; seed = 1234 } in
     (Hilti_traces.Http_gen.generate cfg).Hilti_traces.Http_gen.records)

let dns_records =
  lazy
    (let cfg = { Hilti_traces.Dns_gen.default with transactions = 400; seed = 99 } in
     (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records)

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let run_http ~kind ~mode =
  Driver.evaluate_src ~proto:(`Http kind) ~engine_mode:mode ~scripts:(Lazy.force scripts)
    (Hilti_net.Pcap.iosrc_of_records (Lazy.force http_records))

let run_dns ~kind ~mode =
  Driver.evaluate_src ~proto:(`Dns kind) ~engine_mode:mode ~scripts:(Lazy.force scripts)
    (Hilti_net.Pcap.iosrc_of_records (Lazy.force dns_records))

(* ---- §6.4: standard vs BinPAC++ parsers (Table 2) -------------------------- *)

let test_http_parsers_agree () =
  let std = run_http ~kind:Driver.Http_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let pac =
    run_http ~kind:(Driver.Http_pac (Http_pac.load ()))
      ~mode:Mini_bro.Bro_engine.Interpreted
  in
  let a = Mini_bro.Bro_log.compare_streams std.Driver.logger pac.Driver.logger "http" in
  Alcotest.(check bool) "rows produced" true (a.Mini_bro.Bro_log.total_a > 100);
  Alcotest.(check bool)
    (Printf.sprintf "http.log agreement high (%.4f)" a.Mini_bro.Bro_log.fraction)
    true
    (a.Mini_bro.Bro_log.fraction > 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "http.log agreement not perfect (%.4f): the 206 divergence"
       a.Mini_bro.Bro_log.fraction)
    true
    (a.Mini_bro.Bro_log.fraction < 1.0);
  let f = Mini_bro.Bro_log.compare_streams std.Driver.logger pac.Driver.logger "files" in
  Alcotest.(check bool)
    (Printf.sprintf "files.log agreement high (%.4f)" f.Mini_bro.Bro_log.fraction)
    true
    (f.Mini_bro.Bro_log.fraction > 0.9)

let test_dns_parsers_agree () =
  let std = run_dns ~kind:Driver.Dns_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let pac =
    run_dns ~kind:(Driver.Dns_pac (Dns_pac.load ()))
      ~mode:Mini_bro.Bro_engine.Interpreted
  in
  let a = Mini_bro.Bro_log.compare_streams std.Driver.logger pac.Driver.logger "dns" in
  Alcotest.(check bool) "rows produced" true (a.Mini_bro.Bro_log.total_a > 300);
  Alcotest.(check bool)
    (Printf.sprintf "dns.log agreement >0.99 (%.4f)" a.Mini_bro.Bro_log.fraction)
    true
    (a.Mini_bro.Bro_log.fraction > 0.99)

(* ---- §6.5: interpreted vs compiled scripts (Table 3) ------------------------- *)

let test_http_scripts_agree () =
  let interp = run_http ~kind:Driver.Http_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let compiled = run_http ~kind:Driver.Http_std ~mode:Mini_bro.Bro_engine.Compiled in
  List.iter
    (fun stream ->
      let a =
        Mini_bro.Bro_log.compare_streams interp.Driver.logger compiled.Driver.logger
          stream
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s agreement %.5f" stream a.Mini_bro.Bro_log.fraction)
        true
        (a.Mini_bro.Bro_log.fraction > 0.999))
    [ "http"; "files" ]

let test_dns_scripts_agree () =
  let interp = run_dns ~kind:Driver.Dns_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let compiled = run_dns ~kind:Driver.Dns_std ~mode:Mini_bro.Bro_engine.Compiled in
  let a =
    Mini_bro.Bro_log.compare_streams interp.Driver.logger compiled.Driver.logger "dns"
  in
  Alcotest.(check bool)
    (Printf.sprintf "dns.log agreement %.5f" a.Mini_bro.Bro_log.fraction)
    true
    (a.Mini_bro.Bro_log.fraction > 0.999)

(* Sanity on the content itself. *)
let test_http_log_content () =
  let r = run_http ~kind:Driver.Http_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let rows = Mini_bro.Bro_log.rows r.Driver.logger "http" in
  Alcotest.(check bool) "has GET rows" true
    (List.exists (fun row -> Astring_contains.contains row "\tGET\t") rows);
  Alcotest.(check bool) "has 200 rows" true
    (List.exists (fun row -> Astring_contains.contains row "\t200\t") rows);
  let files = Mini_bro.Bro_log.rows r.Driver.logger "files" in
  Alcotest.(check bool) "files.log has sha1 hashes" true
    (List.exists
       (fun row ->
         let cols = String.split_on_char '\t' row in
         match List.rev cols with
         | sha :: _ -> String.length sha = 40
         | [] -> false)
       files)

let test_dns_log_content () =
  let r = run_dns ~kind:Driver.Dns_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let rows = Mini_bro.Bro_log.rows r.Driver.logger "dns" in
  Alcotest.(check bool) "has A queries" true
    (List.exists (fun row -> Astring_contains.contains row "\tA\t") rows);
  Alcotest.(check bool) "has NXDOMAIN (rcode 3)" true
    (List.exists (fun row -> Astring_contains.contains row "\t3\t") rows)

(* Both parsers raise the same number of connection events. *)
let test_event_counts () =
  let std = run_http ~kind:Driver.Http_std ~mode:Mini_bro.Bro_engine.Interpreted in
  let pac =
    run_http ~kind:(Driver.Http_pac (Http_pac.load ()))
      ~mode:Mini_bro.Bro_engine.Interpreted
  in
  Alcotest.(check int) "same connections" std.Driver.stats.Driver.connections
    pac.Driver.stats.Driver.connections;
  Alcotest.(check int) "same packets" std.Driver.stats.Driver.packets
    pac.Driver.stats.Driver.packets

let suite =
  [ Alcotest.test_case "Table 2: HTTP std vs pac" `Quick test_http_parsers_agree;
    Alcotest.test_case "Table 2: DNS std vs pac" `Quick test_dns_parsers_agree;
    Alcotest.test_case "Table 3: HTTP interp vs compiled" `Quick test_http_scripts_agree;
    Alcotest.test_case "Table 3: DNS interp vs compiled" `Quick test_dns_scripts_agree;
    Alcotest.test_case "http.log content" `Quick test_http_log_content;
    Alcotest.test_case "dns.log content" `Quick test_dns_log_content;
    Alcotest.test_case "event counts agree" `Quick test_event_counts ]
