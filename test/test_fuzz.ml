(* The differential fuzzing subsystem: shape scanners, mutation-op
   serialization and totality, deterministic engine runs, replayable
   findings (pinned via an injected buggy oracle), zero findings on the
   shipped parser pairs, and the MQTT/FTP generator->parse->event->log
   round trips the fuzzer's oracles are built from. *)

open Hilti_fuzz

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

(* ---- Shape: varint codec and scanners ---------------------------------------- *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let e = Shape.encode_varint n in
      match Shape.mqtt_varint e 0 with
      | Some (v, len) ->
          Alcotest.(check int) (Printf.sprintf "decode %d" n) n v;
          Alcotest.(check int)
            (Printf.sprintf "len %d" n)
            (String.length e) len
      | None -> Alcotest.failf "varint %d did not decode" n)
    [ 0; 1; 127; 128; 300; 16383; 16384; 2_097_151; 2_097_152; 268_435_455 ];
  (* A continuation bit with no following byte is malformed. *)
  Alcotest.(check bool) "truncated" true (Shape.mqtt_varint "\x80" 0 = None);
  (* More than four continuation bytes is malformed per the MQTT spec. *)
  Alcotest.(check bool)
    "overlong" true
    (Shape.mqtt_varint "\x80\x80\x80\x80\x01" 0 = None)

let test_mqtt_scan () =
  (* CONNECT (remlen via varint), then PINGREQ: two packet regions, and
     lenfields for the remlen varints plus the CONNECT body's u16. *)
  let connect = "\x10\x0c\x00\x04MQTT\x04\x00\x00\x3c\x00\x00" in
  let ping = "\xc0\x00" in
  let regions, lens = Shape.scan Shape.Mqtt (connect ^ ping) in
  Alcotest.(check int) "regions" 2 (List.length regions);
  Alcotest.(check bool)
    "first region spans CONNECT" true
    (List.exists
       (fun r -> r.Shape.r_off = 0 && r.Shape.r_len = String.length connect)
       regions);
  Alcotest.(check bool)
    "remlen varint found" true
    (List.exists
       (fun l -> l.Shape.l_off = 1 && l.Shape.l_kind = Shape.K_varint)
       lens);
  Alcotest.(check bool)
    "CONNECT u16 found" true
    (List.exists
       (fun l -> l.Shape.l_off = 2 && l.Shape.l_kind = Shape.K_u16 && l.Shape.l_val = 4)
       lens)

let test_ftp_scan () =
  let regions, lens = Shape.scan Shape.Ftp "USER anon\r\nPASS x\r\nQUIT" in
  Alcotest.(check int) "one region per line" 3 (List.length regions);
  Alcotest.(check (list int))
    "line offsets" [ 0; 11; 19 ]
    (List.map (fun r -> r.Shape.r_off) regions);
  Alcotest.(check int) "no lenfields" 0 (List.length lens)

let test_dns_scan () =
  let rng = Hilti_traces.Rng.create 7 in
  let ts = Hilti_types.Time_ns.of_secs 1 in
  let tx =
    Hilti_traces.Dns_gen.gen_transaction rng Hilti_traces.Dns_gen.default ~ts
  in
  let d = Hilti_traces.Dns_gen.encode_message tx.Hilti_traces.Dns_gen.reply in
  let regions, lens = Shape.scan Shape.Dns d in
  Alcotest.(check bool)
    "header region" true
    (List.exists (fun r -> r.Shape.r_off = 0 && r.Shape.r_len = 12) regions);
  (* The four header count fields are always lenfield candidates. *)
  List.iter
    (fun off ->
      Alcotest.(check bool)
        (Printf.sprintf "count field at %d" off)
        true
        (List.exists
           (fun l -> l.Shape.l_off = off && l.Shape.l_kind = Shape.K_u16)
           lens))
    [ 4; 6; 8; 10 ]

(* ---- Mutate: op serialization and totality ------------------------------------ *)

let sample_ops =
  [
    Mutate.Truncate { flow = 0; at = 3 };
    Mutate.Splice { flow = 1; off = 2; len = 4; ins = "\x00\xff\x1b" };
    Mutate.Splice { flow = 0; off = 0; len = 0; ins = "" };
    Mutate.Dup { flow = 2; off = 10; len = 7 };
    Mutate.Swap { flow = 0; a = 1; alen = 5; b = 9; blen = 2 };
    Mutate.Chunk { flow = 1; at = 6 };
    Mutate.Evict { flow = 0; chunk = 2 };
  ]

let test_op_roundtrip () =
  List.iter
    (fun op ->
      let s = Mutate.op_to_string op in
      Alcotest.(check bool) s true (Mutate.op_of_string s = op))
    sample_ops;
  List.iter
    (fun junk ->
      Alcotest.(check bool)
        ("rejects " ^ junk)
        true
        (match Mutate.op_of_string junk with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ ""; "trunc"; "trunc(1)"; "warp(1,2)"; "splice(0,1,2,zz)"; "trunc(1,2" ]

let test_apply_total () =
  (* Wildly out-of-range coordinates must clamp, never raise, and the
     chunks must always reassemble to the stream. *)
  let base = Mutate.of_streams [| "hello world"; "x" |] in
  let wild =
    [
      Mutate.Truncate { flow = 99; at = 1000 };
      Mutate.Splice { flow = -3; off = 50; len = 50; ins = "ZZ" };
      Mutate.Dup { flow = 1; off = 40; len = 12 };
      Mutate.Swap { flow = 0; a = 100; alen = 5; b = 2; blen = 90 };
      Mutate.Chunk { flow = 0; at = -5 };
      Mutate.Evict { flow = 7; chunk = 100 };
    ]
  in
  let final = List.fold_left Mutate.apply base wild in
  Array.iteri
    (fun f s ->
      Alcotest.(check string)
        (Printf.sprintf "flow %d chunks reassemble" f)
        s
        (String.concat "" (Mutate.chunks final f)))
    final.Mutate.streams

let test_mutate_deterministic () =
  let base = List.hd (Corpus.for_proto Shape.Mqtt) in
  let m seed =
    let rng = Hilti_traces.Rng.create seed in
    Mutate.mutate rng ~proto:Shape.Mqtt base ~max_ops:3
  in
  let c1, ops1 = m 42 and c2, ops2 = m 42 in
  Alcotest.(check bool) "same ops" true (ops1 = ops2);
  Alcotest.(check bool) "same case" true (c1 = c2);
  (* Replaying the recorded ops on the base rebuilds the mutated case. *)
  Alcotest.(check bool)
    "ops rebuild the case" true
    (List.fold_left Mutate.apply base ops1 = c1)

(* ---- Corpus ------------------------------------------------------------------- *)

let test_corpus_shapes () =
  List.iter
    (fun (proto, name) ->
      let cases = Corpus.for_proto proto in
      Alcotest.(check bool) (name ^ " nonempty") true (cases <> []);
      List.iter
        (fun c ->
          Alcotest.(check int)
            (name ^ " two flows") 2
            (Array.length c.Mutate.streams);
          Alcotest.(check bool)
            (name ^ " has bytes") true
            (Mutate.case_bytes c > 0))
        cases)
    [ (Shape.Mqtt, "mqtt"); (Shape.Ftp, "ftp"); (Shape.Dns, "dns") ];
  (* TCP corpora carry the generator's segment boundaries as cuts. *)
  Alcotest.(check bool)
    "mqtt corpus has chunked cases" true
    (List.exists
       (fun c -> Array.exists (fun cuts -> cuts <> []) c.Mutate.cuts)
       (Corpus.for_proto Shape.Mqtt))

(* ---- Engine: shipped pairs stay clean ------------------------------------------ *)

let quick_cfg =
  { Engine.default with Engine.execs = 25; minimize_budget = 16 }

let test_shipped_pairs_clean () =
  (* Every shipped differential — std-vs-pac and generic-vs-specialized
     dispatch for MQTT, FTP and DNS — must agree on the corpus and on a
     short seeded mutation run. *)
  let report = Engine.run ~pairs:(Oracle.pairs ()) quick_cfg in
  Alcotest.(check int)
    "no findings" 0
    (List.length report.Engine.r_findings);
  Alcotest.(check bool) "executed" true (report.Engine.r_execs > 0);
  Alcotest.(check bool) "corpus loaded" true (report.Engine.r_corpus > 0)

let test_std_pac_corpus_clean () =
  (* The hand-written and the BinPAC++ parsers agree on the DNS and MQTT
     corpora (chunked cases included) and a short mutation run: their
     grammars' field conditions short-circuit, and their parse positions
     live in the VM's int bank. *)
  let pairs =
    List.filter
      (fun p -> Filename.check_suffix p.Oracle.pname "std-pac")
      (Oracle.pairs_for Shape.Dns @ Oracle.pairs_for Shape.Mqtt)
  in
  Alcotest.(check int) "two std-pac pairs" 2 (List.length pairs);
  let report = Engine.run ~pairs { quick_cfg with Engine.seed = 5 } in
  Alcotest.(check int) "no findings" 0 (List.length report.Engine.r_findings);
  Alcotest.(check bool) "corpus loaded" true (report.Engine.r_corpus > 0)

let test_dispatch_pairs_clean () =
  (* The acceptance-pinned subset: MQTT and FTP under the
     generic-vs-specialized VM dispatch differential. *)
  let pairs =
    List.filter
      (fun p -> Filename.check_suffix p.Oracle.pname "dispatch")
      (Oracle.pairs_for Shape.Mqtt @ Oracle.pairs_for Shape.Ftp)
  in
  Alcotest.(check int) "two dispatch pairs" 2 (List.length pairs);
  let report = Engine.run ~pairs { quick_cfg with Engine.seed = 9 } in
  Alcotest.(check int) "no findings" 0 (List.length report.Engine.r_findings)

(* ---- Engine: injected bug is found, minimized, and replayable ------------------ *)

(* A deliberately broken right-hand oracle: it parses MQTT correctly but
   suppresses every event once flow 0 no longer starts with a CONNECT
   packet — a bug only mutations can trigger, never the clean corpus. *)
let buggy_pair () =
  let right_inner = Oracle.mqtt_std () in
  let buggy =
    {
      Oracle.iname = "mqtt-buggy";
      run =
        (fun case ->
          let out = right_inner.Oracle.run case in
          let s = case.Mutate.streams.(0) in
          if String.length s > 0 && s.[0] <> '\x10' then
            { out with Oracle.events = [] }
          else out);
    }
  in
  {
    Oracle.pname = "mqtt/buggy";
    proto = Shape.Mqtt;
    left = Oracle.mqtt_std ();
    right = buggy;
    agree = Oracle.exact;
  }

let run_buggy seed =
  Engine.run ~pairs:[ buggy_pair () ]
    { Engine.default with Engine.seed; execs = 120; minimize_budget = 32 }

let test_buggy_oracle_found_and_replayed () =
  let report = run_buggy 5 in
  Alcotest.(check bool)
    "bug found" true
    (report.Engine.r_findings <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) "divergence class" "divergence" f.Engine.f_class;
      Alcotest.(check bool) "mutation-triggered" true (f.Engine.f_ops <> []);
      (* The recorded (corpus index, op trace) replays to the exact same
         classification and fingerprint. *)
      match
        Engine.replay (buggy_pair ()) ~corpus:f.Engine.f_corpus
          ~ops:f.Engine.f_ops
      with
      | Some (cls, detail, fp) ->
          Alcotest.(check string) "replay class" f.Engine.f_class cls;
          Alcotest.(check string) "replay detail" f.Engine.f_detail detail;
          Alcotest.(check string) "replay fingerprint" f.Engine.f_fingerprint fp
      | None -> Alcotest.fail "finding did not replay")
    report.Engine.r_findings;
  (* The op trace survives the JSONL serialization boundary. *)
  let f = List.hd report.Engine.r_findings in
  Alcotest.(check bool)
    "ops text-roundtrip" true
    (List.map
       (fun op -> Mutate.op_of_string (Mutate.op_to_string op))
       f.Engine.f_ops
    = f.Engine.f_ops)

let test_engine_deterministic () =
  let strip r =
    List.map
      (fun f ->
        ( f.Engine.f_pair, f.Engine.f_class, f.Engine.f_fingerprint,
          f.Engine.f_corpus, List.map Mutate.op_to_string f.Engine.f_ops,
          f.Engine.f_detail, f.Engine.f_case_bytes ))
      r.Engine.r_findings
  in
  let a = run_buggy 5 and b = run_buggy 5 in
  Alcotest.(check bool) "same seed, same findings" true (strip a = strip b);
  Alcotest.(check int) "same exec count" a.Engine.r_execs b.Engine.r_execs

let test_minimization_shrinks () =
  let report = run_buggy 5 in
  let f = List.hd report.Engine.r_findings in
  let original =
    List.fold_left Mutate.apply
      (List.nth (Corpus.for_proto Shape.Mqtt) f.Engine.f_corpus)
      f.Engine.f_ops
  in
  Alcotest.(check int)
    "saved_bytes consistent"
    (Mutate.case_bytes original - f.Engine.f_case_bytes)
    f.Engine.f_saved_bytes;
  Alcotest.(check bool)
    "minimization shrank the case" true
    (f.Engine.f_case_bytes < Mutate.case_bytes original)

let test_jsonl_report () =
  let report = run_buggy 5 in
  let text = Engine.report_to_jsonl report in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int)
    "one line per finding"
    (List.length report.Engine.r_findings)
    (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "looks like a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "names the pair" true
        (Astring_contains.contains l "\"pair\":\"mqtt/buggy\""))
    lines

(* ---- Eviction points exercise fresh parser incarnations ------------------------ *)

let test_eviction_incarnations () =
  (* Splitting a clean two-message MQTT stream at a packet boundary and
     evicting between the chunks must still parse both packets — each in
     its own parser incarnation. *)
  let connect = "\x10\x0c\x00\x04MQTT\x04\x00\x00\x3c\x00\x00" in
  let ping = "\xc0\x00" in
  let case =
    {
      Mutate.streams = [| connect ^ ping; "" |];
      cuts = [| [ String.length connect ]; [] |];
      evicts = [ (0, 0) ];
    }
  in
  let impl = Oracle.mqtt_std () in
  let out = impl.Oracle.run case in
  Alcotest.(check (list string))
    "both incarnations parsed"
    [ "f0.0 connect id=\"\" proto=\"MQTT\" ver=4 ka=60"; "f0.1 other 12" ]
    out.Oracle.events;
  Alcotest.(check (list string))
    "one fate per incarnation"
    [ "f0.0 ok"; "f0.1 ok"; "f1.0 ok" ]
    out.Oracle.fates

(* ---- MQTT/FTP generator -> parse -> event -> log round trips ------------------- *)

let evaluate ~proto records =
  Hilti_analyzers.Driver.evaluate_src ~proto
    ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
    (Hilti_net.Pcap.iosrc_of_records records)

let log_text r name =
  Mini_bro.Bro_log.to_string r.Hilti_analyzers.Driver.logger name

let test_mqtt_roundtrip_log_parity () =
  let records =
    (Hilti_traces.Mqtt_gen.generate
       { Hilti_traces.Mqtt_gen.default with sessions = 25 })
      .Hilti_traces.Mqtt_gen.records
  in
  let std = evaluate ~proto:(`Mqtt Hilti_analyzers.Driver.Mqtt_std) records in
  let pac =
    evaluate
      ~proto:(`Mqtt (Hilti_analyzers.Driver.Mqtt_pac (Hilti_analyzers.Mqtt_pac.load ())))
      records
  in
  Alcotest.(check bool)
    "events raised" true
    (std.Hilti_analyzers.Driver.stats.Hilti_analyzers.Driver.events > 0);
  Alcotest.(check bool)
    "log has rows" true
    (String.length (log_text std "mqtt") > 0);
  Alcotest.(check string)
    "mqtt.log std == pac" (log_text std "mqtt") (log_text pac "mqtt")

let test_ftp_roundtrip_log_parity () =
  let records =
    (Hilti_traces.Ftp_gen.generate
       { Hilti_traces.Ftp_gen.default with sessions = 20 })
      .Hilti_traces.Ftp_gen.records
  in
  let std = evaluate ~proto:(`Ftp Hilti_analyzers.Driver.Ftp_std) records in
  let pac =
    evaluate
      ~proto:(`Ftp (Hilti_analyzers.Driver.Ftp_pac (Hilti_analyzers.Ftp_pac.load ())))
      records
  in
  Alcotest.(check bool)
    "events raised" true
    (std.Hilti_analyzers.Driver.stats.Hilti_analyzers.Driver.events > 0);
  Alcotest.(check bool)
    "log has rows" true
    (String.length (log_text std "ftp") > 0);
  Alcotest.(check string)
    "ftp.log std == pac" (log_text std "ftp") (log_text pac "ftp")

let suite =
  [
    Alcotest.test_case "shape: varint encode/decode roundtrip" `Quick
      test_varint_roundtrip;
    Alcotest.test_case "shape: mqtt scan finds packets and length fields"
      `Quick test_mqtt_scan;
    Alcotest.test_case "shape: ftp scan finds line regions" `Quick test_ftp_scan;
    Alcotest.test_case "shape: dns scan finds header count fields" `Quick
      test_dns_scan;
    Alcotest.test_case "mutate: op text roundtrip, junk rejected" `Quick
      test_op_roundtrip;
    Alcotest.test_case "mutate: apply is total under wild coordinates" `Quick
      test_apply_total;
    Alcotest.test_case "mutate: seeded mutation is deterministic" `Quick
      test_mutate_deterministic;
    Alcotest.test_case "corpus: all protocols yield two-flow cases" `Quick
      test_corpus_shapes;
    Alcotest.test_case "engine: dns/mqtt std-pac pairs agree on the corpus" `Quick
      test_std_pac_corpus_clean;
    Alcotest.test_case "engine: shipped pairs produce zero findings" `Quick
      test_shipped_pairs_clean;
    Alcotest.test_case "engine: mqtt/ftp dispatch pairs stay clean" `Quick
      test_dispatch_pairs_clean;
    Alcotest.test_case "engine: injected bug is found and replays exactly"
      `Quick test_buggy_oracle_found_and_replayed;
    Alcotest.test_case "engine: identical seed, identical findings" `Quick
      test_engine_deterministic;
    Alcotest.test_case "engine: findings are minimized" `Quick
      test_minimization_shrinks;
    Alcotest.test_case "engine: JSONL report carries the replay record" `Quick
      test_jsonl_report;
    Alcotest.test_case "oracle: eviction spawns fresh incarnations" `Quick
      test_eviction_incarnations;
    Alcotest.test_case "driver: mqtt generator->log round trip, std == pac"
      `Quick test_mqtt_roundtrip_log_parity;
    Alcotest.test_case "driver: ftp generator->log round trip, std == pac"
      `Quick test_ftp_roundtrip_log_parity;
  ]
