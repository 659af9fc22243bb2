(* The streaming pipeline: incremental pcap reading/writing, generator
   iosrcs, bounded parser retention, idle-connection eviction, and the
   byte-identical equivalence of the streaming and list-based paths. *)

open Hilti_net
open Hilti_types

let qt name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 gen prop)

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let strip (r : Pcap.record) = (r.Pcap.ts, r.Pcap.data)

let packet_strip (p : Hilti_rt.Iosrc.packet) =
  (p.Hilti_rt.Iosrc.ts, p.Hilti_rt.Iosrc.data)

(* ---- Writer -> reader roundtrip --------------------------------------------------- *)

(* The pcap encoding keeps microseconds, so roundtrip-able timestamps are
   usec-aligned. *)
let record_gen =
  QCheck.Gen.(
    let* data = string_size (int_range 0 200) in
    let* sec = int_range 0 2_000_000 in
    let* usec = int_range 0 999_999 in
    let* extra = int_range 0 100 in
    let ts =
      Time_ns.of_ns
        (Int64.add
           (Int64.mul (Int64.of_int sec) 1_000_000_000L)
           (Int64.mul (Int64.of_int usec) 1000L))
    in
    return { Pcap.ts; orig_len = String.length data + extra; data })

let roundtrip_arb =
  QCheck.make
    ~print:(fun (rs, chunk) ->
      Printf.sprintf "%d records, chunk=%d" (List.length rs) chunk)
    QCheck.Gen.(pair (list_size (int_range 0 20) record_gen) (int_range 1 37))

let roundtrip_prop (records, chunk) =
  let s = Pcap.to_string records in
  let back = Pcap.records_of_reader (Pcap.reader_of_string ~strict:true ~chunk s) in
  back = records

(* ---- Truncated tails and corrupt headers ----------------------------------------- *)

let with_warnings f =
  let msgs = ref [] in
  let old = !Pcap.warn in
  Pcap.warn := (fun m -> msgs := m :: !msgs);
  Fun.protect
    ~finally:(fun () -> Pcap.warn := old)
    (fun () ->
      let r = f () in
      (r, !msgs))

let ts_of_sec s = Time_ns.of_secs s

let sample_records =
  [
    { Pcap.ts = ts_of_sec 10; orig_len = 4; data = "AAAA" };
    { Pcap.ts = ts_of_sec 11; orig_len = 6; data = "BBBBBB" };
  ]

let test_truncated_tail () =
  let full = Pcap.to_string sample_records in
  (* Cut mid-body of the second record, and mid-header. *)
  let mid_body = String.sub full 0 (String.length full - 2) in
  let mid_header = String.sub full 0 (24 + 16 + 4 + 8) in
  List.iter
    (fun cut ->
      let got, warnings =
        with_warnings (fun () -> Pcap.parse_string ~strict:false cut)
      in
      Alcotest.(check (list (pair int64 string)))
        "lax: complete prefix survives"
        [ strip (List.hd sample_records) ]
        (List.map strip got);
      Alcotest.(check bool) "lax: warned" true (warnings <> []);
      Alcotest.check_raises "strict: rejects"
        (Pcap.Bad_format
           (if String.length cut > String.length mid_header then "short record"
            else "short record header"))
        (fun () -> ignore (Pcap.parse_string ~strict:true cut)))
    [ mid_body; mid_header ]

let u32l n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (n land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xff));
  Bytes.to_string b

let test_caplen_validation () =
  let header = Pcap.encode_global_header () in
  let rec_header caplen = u32l 1 ^ u32l 0 ^ u32l caplen ^ u32l caplen in
  (* caplen over the file's snaplen: corruption even in lax mode. *)
  Alcotest.check_raises "caplen > snaplen"
    (Pcap.Bad_format "caplen exceeds snaplen") (fun () ->
      ignore (Pcap.parse_string ~strict:false (header ^ rec_header 70_000)));
  (* caplen past any plausible frame: never allocate it. *)
  Alcotest.check_raises "caplen > max_caplen"
    (Pcap.Bad_format "implausible caplen") (fun () ->
      ignore (Pcap.parse_string ~strict:false (header ^ rec_header 300_000)));
  Alcotest.check_raises "snaplen > max_caplen"
    (Pcap.Bad_format "implausible snaplen") (fun () ->
      ignore
        (Pcap.parse_string ~strict:false
           (Pcap.encode_global_header ~snaplen:1_000_000 ())))

let test_writer_rejects_oversize () =
  let w = Pcap.writer_of_sink ~snaplen:8 (fun _ -> ()) in
  Alcotest.check_raises "record over snaplen"
    (Pcap.Bad_format "record longer than snaplen") (fun () ->
      Pcap.write_record w
        { Pcap.ts = ts_of_sec 1; orig_len = 9; data = "123456789" })

(* ---- Streaming file reads == list reads ------------------------------------------- *)

let with_temp_pcap records f =
  let path = Filename.temp_file "hilti_stream" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pcap.write_file path records;
      f path)

let test_file_streaming_identity () =
  let records =
    (Hilti_traces.Http_gen.generate
       { Hilti_traces.Http_gen.default with sessions = 20 })
      .Hilti_traces.Http_gen.records
  in
  with_temp_pcap records (fun path ->
      Alcotest.(check int)
        "read_file roundtrip" (List.length records)
        (List.length (Pcap.read_file path));
      let streamed = Hilti_rt.Iosrc.to_list (Pcap.iosrc_of_file path) in
      (* The pcap encoding keeps microseconds, so expect usec-floored ts. *)
      let usec (ts, data) = (Int64.mul (Int64.div ts 1000L) 1000L, data) in
      Alcotest.(check bool)
        "iosrc_of_file == records" true
        (List.map packet_strip streamed = List.map (fun r -> usec (strip r)) records))

(* ---- Generator iosrcs == generated lists ------------------------------------------ *)

let check_gen_stream name expected src =
  Alcotest.(check int)
    (name ^ ": same packet count")
    (List.length expected) (List.length src);
  Alcotest.(check bool)
    (name ^ ": identical packets")
    true
    (List.map strip expected = List.map strip src)

let test_http_gen_iosrc () =
  let cfg = { Hilti_traces.Http_gen.default with sessions = 80 } in
  check_gen_stream "http"
    (Hilti_traces.Http_gen.generate cfg).Hilti_traces.Http_gen.records
    (Hilti_traces.Gen_stream.to_records (Hilti_traces.Http_gen.iosrc cfg))

let test_dns_gen_iosrc () =
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 400 } in
  check_gen_stream "dns"
    (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records
    (Hilti_traces.Gen_stream.to_records (Hilti_traces.Dns_gen.iosrc cfg))

let test_ssh_gen_iosrc () =
  let cfg = { Hilti_traces.Ssh_gen.default with sessions = 12 } in
  check_gen_stream "ssh"
    (Hilti_traces.Ssh_gen.generate cfg).Hilti_traces.Ssh_gen.records
    (Hilti_traces.Gen_stream.to_records (Hilti_traces.Ssh_gen.iosrc cfg))

let test_mix_iosrc () =
  let cfg = Hilti_traces.Mix.default in
  check_gen_stream "mix"
    (Hilti_traces.Mix.generate cfg)
    (Hilti_traces.Gen_stream.to_records (Hilti_traces.Mix.iosrc cfg))

(* ---- Reorder-window edge cases ----------------------------------------------------- *)

let rec_at ?(data = "p") sec = { Pcap.ts = ts_of_sec sec; orig_len = String.length data; data }

let burst_src bursts =
  let rest = ref bursts in
  fun () ->
    match !rest with
    | [] -> None
    | b :: tl ->
        rest := tl;
        Some b

let drain ~window bursts =
  Hilti_rt.Iosrc.to_list (Hilti_traces.Gen_stream.iosrc ~window (burst_src bursts))

let ts_list ps = List.map (fun (p : Hilti_rt.Iosrc.packet) -> p.Hilti_rt.Iosrc.ts) ps

let test_gen_stream_window_zero () =
  Alcotest.check_raises "window 0 rejected"
    (Invalid_argument "Gen_stream.iosrc: window must be >= 1") (fun () ->
      ignore (Hilti_traces.Gen_stream.iosrc ~window:0 (burst_src [])))

let test_gen_stream_window_one () =
  (* A window of one never holds packets from two bursts at once: each
     burst drains (in its own sorted order) before the next is pulled,
     so cross-burst timestamp inversions pass through un-merged... *)
  let bursts = [ [ rec_at 5; rec_at 7 ]; [ rec_at 1; rec_at 2 ] ] in
  Alcotest.(check (list int64))
    "window 1 keeps burst order"
    (List.map (fun s -> ts_of_sec s) [ 5; 7; 1; 2 ])
    (ts_list (drain ~window:1 bursts));
  (* ...while a window spanning the trace sorts globally. *)
  Alcotest.(check (list int64))
    "large window sorts globally"
    (List.map (fun s -> ts_of_sec s) [ 1; 2; 5; 7 ])
    (ts_list (drain ~window:100 bursts))

let test_gen_stream_duplicate_ts () =
  (* Equal timestamps must come out in insertion order (the stable-sort
     tie-break), across bursts and within one. *)
  let mk tag sec = rec_at ~data:tag sec in
  let bursts =
    [ [ mk "a" 3; mk "b" 3 ]; [ mk "c" 3; mk "d" 1 ]; [ mk "e" 3 ] ]
  in
  Alcotest.(check (list string))
    "ties keep insertion order" [ "d"; "a"; "b"; "c"; "e" ]
    (List.map
       (fun (p : Hilti_rt.Iosrc.packet) -> p.Hilti_rt.Iosrc.data)
       (drain ~window:100 bursts))

let test_gen_stream_flush_pending () =
  (* End of generation with a part-full buffer: everything pending is
     still emitted, sorted, and the source then stays exhausted. *)
  let src =
    Hilti_traces.Gen_stream.iosrc ~window:1000
      (burst_src [ [ rec_at 9; rec_at 4 ]; [ rec_at 6 ] ])
  in
  Alcotest.(check (list int64))
    "pending packets flushed sorted"
    (List.map (fun s -> ts_of_sec s) [ 4; 6; 9 ])
    (ts_list (Hilti_rt.Iosrc.to_list src));
  Alcotest.(check bool) "stays exhausted" true (Hilti_rt.Iosrc.read src = None)

(* ---- Streaming analysis == list analysis ------------------------------------------ *)

let evaluate ?jobs ?idle_timeout ~proto src =
  Hilti_analyzers.Driver.evaluate_src ~proto
    ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
    ?jobs ?idle_timeout src

let log_text r name = Mini_bro.Bro_log.to_string r.Hilti_analyzers.Driver.logger name

let test_http_log_equivalence () =
  let records =
    (Hilti_traces.Http_gen.generate
       { Hilti_traces.Http_gen.default with sessions = 40 })
      .Hilti_traces.Http_gen.records
  in
  let proto = `Http Hilti_analyzers.Driver.Http_std in
  let from_list = evaluate ~proto (Pcap.iosrc_of_records records) in
  with_temp_pcap records (fun path ->
      let from_file = evaluate ~proto (Pcap.iosrc_of_file path) in
      List.iter
        (fun log ->
          Alcotest.(check string)
            (log ^ ".log: streaming byte-identical")
            (log_text from_list log) (log_text from_file log))
        [ "http"; "files" ])

let test_dns_log_equivalence () =
  let records =
    (Hilti_traces.Dns_gen.generate
       { Hilti_traces.Dns_gen.default with transactions = 300 })
      .Hilti_traces.Dns_gen.records
  in
  let proto = `Dns Hilti_analyzers.Driver.Dns_std in
  let from_list = evaluate ~proto (Pcap.iosrc_of_records records) in
  with_temp_pcap records (fun path ->
      let serial = evaluate ~proto (Pcap.iosrc_of_file path) in
      Alcotest.(check string)
        "dns.log: streaming byte-identical" (log_text from_list "dns")
        (log_text serial "dns");
      let parallel = evaluate ~proto ~jobs:2 (Pcap.iosrc_of_file path) in
      Alcotest.(check string)
        "dns.log: streaming + jobs=2 byte-identical" (log_text from_list "dns")
        (log_text parallel "dns"))

(* ---- Pinned TCP-runner output ------------------------------------------------------ *)

(* HTTP, MQTT and FTP share one TCP stream runner.  These digests were
   recorded from the three per-protocol loops it replaced: every log, the
   driver stats and the raw event stream (which also pins the per-packet
   [set_time] calls and the creation-order flush at end of trace, neither
   of which the logs show) must stay byte-identical for both parser kinds,
   with and without idle eviction. *)
let tcp_digest ?idle_timeout (proto, run) src =
  let r = evaluate ?idle_timeout ~proto (src ()) in
  let s = r.Hilti_analyzers.Driver.stats in
  let counts =
    Printf.sprintf "%d %d %d %d" s.Hilti_analyzers.Driver.packets
      s.Hilti_analyzers.Driver.connections s.Hilti_analyzers.Driver.events
      s.Hilti_analyzers.Driver.evicted
  in
  let events = Buffer.create 4096 in
  let sink =
    {
      Hilti_analyzers.Events.raise_event =
        (fun name args ->
          Buffer.add_string events
            (String.concat " " (name :: List.map Mini_bro.Bro_val.to_string args));
          Buffer.add_char events '\n');
      set_time = (fun ts -> Buffer.add_string events (Printf.sprintf "@%Ld\n" ts));
    }
  in
  ignore (run ~sink ?idle_timeout (src ()));
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          ((counts :: List.map (log_text r) [ "http"; "files"; "mqtt"; "ftp" ])
          @ [ Buffer.contents events ])))

let tcp_cases () =
  let open Hilti_analyzers in
  let http () =
    Hilti_traces.Http_gen.iosrc { Hilti_traces.Http_gen.default with sessions = 30 }
  in
  let mqtt () =
    Hilti_traces.Mqtt_gen.iosrc { Hilti_traces.Mqtt_gen.default with sessions = 30 }
  in
  let ftp () =
    Hilti_traces.Ftp_gen.iosrc { Hilti_traces.Ftp_gen.default with sessions = 30 }
  in
  let http_kind kind =
    (`Http kind, fun ~sink ?idle_timeout src -> Driver.run_http_src ~kind ~sink ?idle_timeout src)
  in
  let mqtt_kind kind =
    ( `Mqtt kind,
      fun ~sink ?idle_timeout src ->
        Driver.run_tcp_src ~parsers:(Driver.mqtt_parsers kind) ~sink ?idle_timeout src )
  in
  let ftp_kind kind =
    ( `Ftp kind,
      fun ~sink ?idle_timeout src ->
        Driver.run_tcp_src ~parsers:(Driver.ftp_parsers kind) ~sink ?idle_timeout src )
  in
  [
    ("http/std", http_kind Driver.Http_std, http);
    ("http/pac", http_kind (Driver.Http_pac (Http_pac.load ())), http);
    ("mqtt/std", mqtt_kind Driver.Mqtt_std, mqtt);
    ("mqtt/pac", mqtt_kind (Driver.Mqtt_pac (Mqtt_pac.load ())), mqtt);
    ("ftp/std", ftp_kind Driver.Ftp_std, ftp);
    ("ftp/pac", ftp_kind (Driver.Ftp_pac (Ftp_pac.load ())), ftp);
  ]

let pinned_tcp_digests =
  [
    ("http/std", "3efbc7bbff7a3cda649111679adc2e2b");
    ("http/std+5ms", "93bf70449cbcd65f06c09f34db34e1df");
    ("http/pac", "3efbc7bbff7a3cda649111679adc2e2b");
    ("http/pac+5ms", "93bf70449cbcd65f06c09f34db34e1df");
    ("mqtt/std", "51f6456c64e34ae19ef9338b05fd693f");
    ("mqtt/std+5ms", "601254d88e0b7633de48e2c88f6d015f");
    ("mqtt/pac", "51f6456c64e34ae19ef9338b05fd693f");
    ("mqtt/pac+5ms", "601254d88e0b7633de48e2c88f6d015f");
    ("ftp/std", "426783f18a7fc159f75bf70dc057ca2f");
    ("ftp/std+5ms", "002ae4857490e3dbe44161ea8055d106");
    ("ftp/pac", "426783f18a7fc159f75bf70dc057ca2f");
    ("ftp/pac+5ms", "002ae4857490e3dbe44161ea8055d106");
  ]

let test_tcp_pinned_digests () =
  let got =
    List.concat_map
      (fun (name, runner, src) ->
        [
          (name, tcp_digest runner src);
          (name ^ "+5ms", tcp_digest ~idle_timeout:(Interval_ns.of_msecs 5) runner src);
        ])
      (tcp_cases ())
  in
  Alcotest.(check (list (pair string string)))
    "logs + stats + events match the pinned digests" pinned_tcp_digests got

(* ---- Idle-connection eviction ------------------------------------------------------ *)

let test_flow_table_eviction () =
  let timer_mgr = Hilti_rt.Timer_mgr.create () in
  let removed = ref [] in
  let table =
    Flow_table.create
      ~timeout:(Interval_ns.of_msecs 10)
      ~timer_mgr
      (fun _flow ts -> ts)
  in
  Flow_table.on_remove table (fun conn -> removed := conn.Flow_table.state :: !removed);
  let flow =
    Flow.make
      ~src:(Addr.of_ipv4_octets 10 0 0 1)
      ~dst:(Addr.of_ipv4_octets 10 0 0 2)
      ~src_port:(Port.tcp 1234) ~dst_port:(Port.tcp 80)
  in
  let t0 = Time_ns.of_secs 100 in
  (* Expiry timers are scheduled against the manager's clock, so move it
     along with the packets (as the driver does before each lookup). *)
  ignore (Hilti_rt.Timer_mgr.advance timer_mgr t0);
  ignore (Flow_table.lookup table ~ts:t0 flow);
  Alcotest.(check int) "created" 1 (Flow_table.size table);
  (* Re-access refreshes the idle clock: not expired 15ms after creation. *)
  let t1 = Time_ns.add t0 (Interval_ns.of_msecs 8) in
  ignore (Hilti_rt.Timer_mgr.advance timer_mgr t1);
  ignore (Flow_table.lookup table ~ts:t1 flow);
  ignore (Hilti_rt.Timer_mgr.advance timer_mgr (Time_ns.add t0 (Interval_ns.of_msecs 15)));
  Alcotest.(check int) "refreshed, still live" 1 (Flow_table.size table);
  (* 10ms past the last access the eviction timer fires the remove hook. *)
  ignore (Hilti_rt.Timer_mgr.advance timer_mgr (Time_ns.add t1 (Interval_ns.of_msecs 11)));
  Alcotest.(check int) "evicted" 0 (Flow_table.size table);
  Alcotest.(check int) "expired counter" 1 (Flow_table.expired table);
  Alcotest.(check (list int64)) "remove hook saw the state" [ t0 ] !removed

let test_pipeline_eviction () =
  let check_proto name proto src logs =
    let baseline = evaluate ~proto (src ()) in
    let evicting = evaluate ~proto ~idle_timeout:(Interval_ns.of_msecs 5) (src ()) in
    Alcotest.(check bool)
      (name ^ ": eviction fired") true
      (evicting.Hilti_analyzers.Driver.stats.Hilti_analyzers.Driver.evicted > 0);
    Alcotest.(check int)
      (name ^ ": same events")
      baseline.Hilti_analyzers.Driver.stats.Hilti_analyzers.Driver.events
      evicting.Hilti_analyzers.Driver.stats.Hilti_analyzers.Driver.events;
    (* Eviction may reorder end-of-connection rows but must lose none. *)
    List.iter
      (fun log ->
        Alcotest.(check (list string))
          (log ^ ".log: same rows up to order")
          (Mini_bro.Bro_log.normalized baseline.Hilti_analyzers.Driver.logger log)
          (Mini_bro.Bro_log.normalized evicting.Hilti_analyzers.Driver.logger log))
      logs
  in
  check_proto "http" (`Http Hilti_analyzers.Driver.Http_std)
    (fun () ->
      Hilti_traces.Http_gen.iosrc { Hilti_traces.Http_gen.default with sessions = 60 })
    [ "http"; "files" ];
  check_proto "mqtt" (`Mqtt Hilti_analyzers.Driver.Mqtt_std)
    (fun () ->
      Hilti_traces.Mqtt_gen.iosrc { Hilti_traces.Mqtt_gen.default with sessions = 60 })
    [ "mqtt" ];
  check_proto "ftp" (`Ftp Hilti_analyzers.Driver.Ftp_std)
    (fun () ->
      Hilti_traces.Ftp_gen.iosrc { Hilti_traces.Ftp_gen.default with sessions = 60 })
    [ "ftp" ]

(* ---- Bounded parser retention ------------------------------------------------------ *)

let http_message =
  "GET /index.html HTTP/1.1\r\nHost: example.test\r\nContent-Length: 5\r\n\r\nhello"

let feed_in_chunks ~chunk ~feed ~retained stream bound =
  let n = String.length stream in
  let worst = ref 0 in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    feed (String.sub stream !i len);
    i := !i + len;
    if retained () > !worst then worst := retained ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "retained %d stays under %d" !worst bound)
    true (!worst <= bound)

let test_http_std_retention () =
  let p =
    Hilti_analyzers.Http_std.create ~is_request:true
      ~on_request:(fun _ -> ())
      ~on_reply:(fun _ -> ())
  in
  let stream = String.concat "" (List.init 200 (fun _ -> http_message)) in
  (* Consumed input is trimmed after every drain: retention is bounded by
     one in-flight message plus one chunk, never the 15KB stream. *)
  feed_in_chunks ~chunk:17
    ~feed:(Hilti_analyzers.Http_std.feed p)
    ~retained:(fun () -> Hilti_analyzers.Http_std.retained p)
    stream
    (String.length http_message + 17);
  Hilti_analyzers.Http_std.eof p;
  Alcotest.(check int) "all messages parsed" 200 (Hilti_analyzers.Http_std.messages p)

let test_binpac_trim_retention () =
  let parser = Binpacxx.Runtime.load (Binpacxx.Grammars.parse_http ()) in
  let s = Binpacxx.Runtime.session parser ~unit_name:"Requests" in
  let stream = String.concat "" (List.init 100 (fun _ -> http_message)) in
  (* The grammar's &trim on [requests] drops each parsed element's bytes. *)
  feed_in_chunks ~chunk:23
    ~feed:(fun chunk -> ignore (Binpacxx.Runtime.feed s chunk))
    ~retained:(fun () -> Binpacxx.Runtime.retained s)
    stream
    (String.length http_message + 23);
  ignore (Binpacxx.Runtime.finish s)

let suite =
  [
    qt "pcap: writer->reader roundtrip across chunk sizes" roundtrip_arb
      roundtrip_prop;
    Alcotest.test_case "pcap: truncated tail is graceful in lax mode" `Quick
      test_truncated_tail;
    Alcotest.test_case "pcap: corrupt lengths always rejected" `Quick
      test_caplen_validation;
    Alcotest.test_case "pcap: writer rejects oversize records" `Quick
      test_writer_rejects_oversize;
    Alcotest.test_case "pcap: file streaming == list reading" `Quick
      test_file_streaming_identity;
    Alcotest.test_case "gen_stream: window 0 is rejected" `Quick
      test_gen_stream_window_zero;
    Alcotest.test_case "gen_stream: window 1 vs trace-wide window" `Quick
      test_gen_stream_window_one;
    Alcotest.test_case "gen_stream: duplicate timestamps stay stable" `Quick
      test_gen_stream_duplicate_ts;
    Alcotest.test_case "gen_stream: end-of-stream flushes pending sorted" `Quick
      test_gen_stream_flush_pending;
    Alcotest.test_case "gen: http iosrc == generate" `Quick test_http_gen_iosrc;
    Alcotest.test_case "gen: dns iosrc == generate" `Quick test_dns_gen_iosrc;
    Alcotest.test_case "gen: ssh iosrc == generate" `Quick test_ssh_gen_iosrc;
    Alcotest.test_case "gen: mix iosrc == generate" `Quick test_mix_iosrc;
    Alcotest.test_case "driver: http logs byte-identical when streaming" `Quick
      test_http_log_equivalence;
    Alcotest.test_case "driver: dns logs byte-identical (serial + jobs=2)"
      `Quick test_dns_log_equivalence;
    Alcotest.test_case "driver: tcp logs match pinned digests (std/pac, eviction)"
      `Quick test_tcp_pinned_digests;
    Alcotest.test_case "flow table: idle timeout evicts through remove hook"
      `Quick test_flow_table_eviction;
    Alcotest.test_case "driver: eviction bounds table, loses no rows" `Quick
      test_pipeline_eviction;
    Alcotest.test_case "http_std: retention bounded by in-flight message"
      `Quick test_http_std_retention;
    Alcotest.test_case "binpac: &trim bounds session retention" `Quick
      test_binpac_trim_retention;
  ]
