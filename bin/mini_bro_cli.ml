(** mini-bro — the Bro-like host application (§4, Fig. 8(c)).

    Reads a pcap trace (or generates a synthetic one), runs the bundled
    HTTP/DNS/scan analysis scripts over it with either the standard or the
    BinPAC++ protocol parsers, with the scripts either interpreted or
    compiled to HILTI ([compile_scripts=T]), and writes Bro-style logs. *)

let usage =
  {|mini-bro — Bro-like traffic analysis over HILTI

usage: mini-bro [options]

input (one required):
  -r FILE          read packets from a pcap trace
  -g http[:N]      generate a synthetic HTTP trace (N sessions, default 200)
  -g dns[:N]       generate a synthetic DNS trace (N transactions, default 2000)
  -g mqtt[:N]      generate a synthetic MQTT trace (N sessions, default 120)
  -g ftp[:N]       generate a synthetic FTP trace (N sessions, default 80)

analysis:
  -proto http|dns|mqtt|ftp
                   which analyzer to run (default: guessed from -g, else http)
  -parsers std|pac standard hand-written or BinPAC++/HILTI parsers (default std)
  -compile-scripts run scripts compiled to HILTI instead of interpreted
  -w DIR           write http.log/files.log/dns.log into DIR (default .)
  -j N             shard DNS decode+parse over N OCaml domains (flow-sharded
                   data plane; both directions of a connection stay on one
                   shard); logs are byte-identical to the serial pipeline's
  -timeout MS      evict connections idle for MS milliseconds of trace time,
                   bounding the session table by the live flows
  -quiet           do not write logs, just report counts
  -profile FILE    dump profiler measurements to FILE (§3.3)

observability:
  -metrics PATH       enable metrics and write PATH.metrics.jsonl (one
                      snapshot per line) plus PATH.prom (Prometheus text);
                      a final snapshot is always taken at end of run
  -stats-interval MS  also snapshot every MS milliseconds of trace time
  -trace-spans        record trace spans; written to PATH.trace.json
                      (Chrome trace-event format; requires -metrics)

differential fuzzing (no input required):
  -fuzz dns|mqtt|ftp|all
                   run the grammar-aware differential fuzzer: mutated
                   generator streams through hand-written vs BinPAC++
                   parsers and generic vs specialized VM bytecode; writes
                   DIR/fuzz.jsonl and exits nonzero on any finding
  -seed N          fuzzer RNG seed (default 1); replays are deterministic
  -budget N        mutated executions per oracle pair (default 150)

Input is streamed: packets are pulled from the trace (or synthesized) one
at a time, so memory is bounded by the live connections, not trace size.

Fig. 7(d) mode — positional files instead of -proto:
  mini-bro -r ssh.trace ssh.evt ssh.bro
  mini-bro -g ssh:20 examples/data/ssh.evt examples/data/ssh.bro
An .evt file configures a BinPAC++ analyzer (its grammar is loaded
relative to the .evt); .bro files supply the event handlers.
|}

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let input = ref None in
  let proto = ref None in
  let parsers = ref "std" in
  let compiled = ref false in
  let outdir = ref "." in
  let quiet = ref false in
  let profile = ref None in
  let jobs = ref None in
  let idle_timeout = ref None in
  let metrics = ref None in
  let stats_interval = ref None in
  let trace_spans = ref false in
  let evt_files = ref [] in
  let bro_files = ref [] in
  let fuzz = ref None in
  let fuzz_seed = ref 1 in
  let fuzz_budget = ref Hilti_fuzz.Engine.default.Hilti_fuzz.Engine.execs in
  let rec parse_args = function
    | [] -> ()
    | "-r" :: f :: rest -> input := Some (`Pcap f); parse_args rest
    | "-fuzz" :: p :: rest -> fuzz := Some p; parse_args rest
    | "-seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> fuzz_seed := s
        | None ->
            Printf.eprintf "-seed expects an integer, got %s\n" n;
            exit 1);
        parse_args rest
    | "-budget" :: n :: rest ->
        (match int_of_string_opt n with
        | Some b when b >= 0 -> fuzz_budget := b
        | _ ->
            Printf.eprintf "-budget expects a non-negative count, got %s\n" n;
            exit 1);
        parse_args rest
    | "-g" :: spec :: rest -> input := Some (`Gen spec); parse_args rest
    | "-proto" :: p :: rest -> proto := Some p; parse_args rest
    | "-parsers" :: p :: rest -> parsers := p; parse_args rest
    | "-compile-scripts" :: rest -> compiled := true; parse_args rest
    | "-w" :: d :: rest -> outdir := d; parse_args rest
    | "-quiet" :: rest -> quiet := true; parse_args rest
    | "-profile" :: f :: rest -> profile := Some f; parse_args rest
    | "-metrics" :: p :: rest -> metrics := Some p; parse_args rest
    | "-trace-spans" :: rest -> trace_spans := true; parse_args rest
    | "-stats-interval" :: ms :: rest ->
        (match int_of_string_opt ms with
        | Some m when m >= 1 ->
            stats_interval := Some (Hilti_types.Interval_ns.of_msecs m)
        | _ ->
            Printf.eprintf
              "-stats-interval expects a positive millisecond count, got %s\n" ms;
            exit 1);
        parse_args rest
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := Some j
        | _ ->
            Printf.eprintf "-j expects a positive domain count, got %s\n" n;
            exit 1);
        parse_args rest
    | "-timeout" :: ms :: rest ->
        (match int_of_string_opt ms with
        | Some m when m >= 1 ->
            idle_timeout := Some (Hilti_types.Interval_ns.of_msecs m)
        | _ ->
            Printf.eprintf "-timeout expects a positive millisecond count, got %s\n" ms;
            exit 1);
        parse_args rest
    | ("-h" | "--help") :: _ -> print_string usage; exit 0
    | f :: rest when Filename.check_suffix f ".evt" ->
        evt_files := f :: !evt_files;
        parse_args rest
    | f :: rest when Filename.check_suffix f ".bro" ->
        bro_files := f :: !bro_files;
        parse_args rest
    | a :: _ ->
        Printf.eprintf "unknown argument %s\n%s" a usage;
        exit 1
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* Observability: -metrics enables recording and owns the export files;
     -stats-interval adds periodic trace-time snapshots on top. *)
  let exporter =
    match !metrics with
    | Some prefix ->
        Hilti_obs.Metrics.set_enabled true;
        if !trace_spans then Hilti_obs.Trace.set_enabled true;
        Some (Hilti_obs.Export.create ~prefix)
    | None ->
        if !stats_interval <> None || !trace_spans then
          Printf.eprintf "note: -stats-interval/-trace-spans require -metrics\n";
        None
  in
  let stats_export =
    match (exporter, !stats_interval) with
    | Some ex, Some ival -> Some (ival, fun () -> Hilti_obs.Export.scrape ex)
    | _ -> None
  in
  let finish_metrics () =
    match (exporter, !metrics) with
    | Some ex, Some prefix ->
        Hilti_obs.Export.close ex;
        Printf.printf "wrote metrics to %s.metrics.jsonl / %s.prom\n" prefix prefix
    | _ -> ()
  in
  (* Differential fuzz mode: no packet input — the fuzzer builds its own
     corpus from the generators. *)
  (match !fuzz with
  | Some which ->
      let protos =
        match which with
        | "all" -> [ Hilti_fuzz.Shape.Mqtt; Hilti_fuzz.Shape.Ftp; Hilti_fuzz.Shape.Dns ]
        | p -> (
            match Hilti_fuzz.Shape.proto_of_string p with
            | Some pr when pr <> Hilti_fuzz.Shape.Generic -> [ pr ]
            | _ ->
                Printf.eprintf "bad -fuzz spec %s (dns|mqtt|ftp|all)\n" p;
                exit 1)
      in
      let cfg =
        { Hilti_fuzz.Engine.default with
          Hilti_fuzz.Engine.seed = !fuzz_seed;
          execs = !fuzz_budget }
      in
      let pairs =
        List.concat_map
          (Hilti_fuzz.Oracle.pairs_for ~step_budget:cfg.Hilti_fuzz.Engine.step_budget)
          protos
      in
      let report, ns = Hilti_obs.Clock.timed (fun () -> Hilti_fuzz.Engine.run ~pairs cfg) in
      let dt = Int64.to_float ns /. 1e9 in
      Printf.printf "%s in %.1f s (%.0f execs/s, seed %d)\n"
        (Hilti_fuzz.Engine.summary report)
        dt
        (float_of_int report.Hilti_fuzz.Engine.r_execs /. max 1e-9 dt)
        !fuzz_seed;
      List.iter
        (fun f ->
          Printf.printf "  [%s] %s %s: %s\n" f.Hilti_fuzz.Engine.f_class
            f.Hilti_fuzz.Engine.f_pair f.Hilti_fuzz.Engine.f_fingerprint
            f.Hilti_fuzz.Engine.f_detail)
        report.Hilti_fuzz.Engine.r_findings;
      if not !quiet then begin
        let path = Filename.concat !outdir "fuzz.jsonl" in
        let oc = open_out path in
        output_string oc (Hilti_fuzz.Engine.report_to_jsonl report);
        close_out oc;
        Printf.printf "wrote %s (%d findings)\n" path
          (List.length report.Hilti_fuzz.Engine.r_findings)
      end;
      finish_metrics ();
      exit (if report.Hilti_fuzz.Engine.r_findings = [] then 0 else 1)
  | None -> ());
  (* A re-creatable streaming source: packets are pulled on demand (from
     the trace file or synthesized), never materialised as a list.  The
     thunk lets the Fig. 7(d) mode replay the input once per .evt file. *)
  let make_src, default_proto =
    match !input with
    | Some (`Pcap f) ->
        ((fun () -> Hilti_net.Pcap.iosrc_of_file f), "http")
    | Some (`Gen spec) -> (
        match String.split_on_char ':' spec with
        | "http" :: rest ->
            let sessions =
              match rest with [ n ] -> int_of_string n | _ -> 200
            in
            ( (fun () ->
                Hilti_traces.Http_gen.iosrc
                  { Hilti_traces.Http_gen.default with sessions }),
              "http" )
        | "dns" :: rest ->
            let transactions =
              match rest with [ n ] -> int_of_string n | _ -> 2000
            in
            ( (fun () ->
                Hilti_traces.Dns_gen.iosrc
                  { Hilti_traces.Dns_gen.default with transactions }),
              "dns" )
        | "mqtt" :: rest ->
            let sessions =
              match rest with [ n ] -> int_of_string n | _ -> 120
            in
            ( (fun () ->
                Hilti_traces.Mqtt_gen.iosrc
                  { Hilti_traces.Mqtt_gen.default with sessions }),
              "mqtt" )
        | "ftp" :: rest ->
            let sessions = match rest with [ n ] -> int_of_string n | _ -> 80 in
            ( (fun () ->
                Hilti_traces.Ftp_gen.iosrc
                  { Hilti_traces.Ftp_gen.default with sessions }),
              "ftp" )
        | "ssh" :: rest ->
            let sessions = match rest with [ n ] -> int_of_string n | _ -> 20 in
            ( (fun () ->
                Hilti_traces.Ssh_gen.iosrc
                  { Hilti_traces.Ssh_gen.default with sessions }),
              "evt" )
        | _ ->
            Printf.eprintf "bad -g spec %s\n" spec;
            exit 1)
    | None ->
        print_string usage;
        exit 1
  in
  (* Fig. 7(d) mode: .evt + .bro files drive a BinPAC++ analyzer. *)
  if !evt_files <> [] then begin
    let script =
      Mini_bro.Bro_parse.parse
        (String.concat "\n" (List.map read_file (List.rev !bro_files)))
    in
    let engine_mode =
      if !compiled then Mini_bro.Bro_engine.Compiled
      else Mini_bro.Bro_engine.Interpreted
    in
    let engine = Mini_bro.Bro_engine.load engine_mode script in
    let sink = Hilti_analyzers.Events.engine_sink engine in
    List.iter
      (fun evt_file ->
        let cfg = Hilti_analyzers.Evt.parse (read_file evt_file) in
        let grammar_path =
          Filename.concat (Filename.dirname evt_file) cfg.Hilti_analyzers.Evt.grammar_file
        in
        let grammar = Binpacxx.Grammar_parser.parse (read_file grammar_path) in
        let loaded = Hilti_analyzers.Evt.load cfg grammar in
        let stats =
          Hilti_analyzers.Driver.(run_tcp_src ~parsers:(evt_parsers loaded) ~sink)
            (make_src ())
        in
        Printf.eprintf "%s: %d packets, %d connections, %d events\n" evt_file
          stats.Hilti_analyzers.Driver.packets
          stats.Hilti_analyzers.Driver.connections
          stats.Hilti_analyzers.Driver.events)
      (List.rev !evt_files);
    finish_metrics ();
    exit 0
  end;
  let proto = Option.value ~default:default_proto !proto in
  let scripts = Mini_bro.Bro_scripts.parse_all () in
  let engine_mode =
    if !compiled then Mini_bro.Bro_engine.Compiled
    else Mini_bro.Bro_engine.Interpreted
  in
  let open Hilti_analyzers in
  let proto_kind =
    match (proto, !parsers) with
    | "http", "std" -> `Http Driver.Http_std
    | "http", "pac" -> `Http (Driver.Http_pac (Http_pac.load ()))
    | "dns", "std" -> `Dns Driver.Dns_std
    | "dns", "pac" -> `Dns (Driver.Dns_pac (Dns_pac.load ()))
    | "mqtt", "std" -> `Mqtt Driver.Mqtt_std
    | "mqtt", "pac" -> `Mqtt (Driver.Mqtt_pac (Mqtt_pac.load ()))
    | "ftp", "std" -> `Ftp Driver.Ftp_std
    | "ftp", "pac" -> `Ftp (Driver.Ftp_pac (Ftp_pac.load ()))
    | p, k ->
        Printf.eprintf "bad -proto %s / -parsers %s\n" p k;
        exit 1
  in
  (match (!jobs, proto) with
  | Some _, "http" ->
      Printf.eprintf "note: -j applies to the DNS parse stage; http runs serially\n"
  | _ -> ());
  let result =
    Driver.evaluate_src ~proto:proto_kind ~engine_mode ~scripts
      ~logging:(not !quiet) ?jobs:!jobs ?idle_timeout:!idle_timeout ?stats_export
      (make_src ())
  in
  finish_metrics ();
  Printf.printf
    "processed %d packets, %d connections, %d events (parsers=%s scripts=%s%s)\n"
    result.Driver.stats.Driver.packets result.Driver.stats.Driver.connections
    result.Driver.stats.Driver.events !parsers
    (if !compiled then "compiled-to-HILTI" else "interpreted")
    (match !jobs with
    | Some j when proto = "dns" -> Printf.sprintf " shards=%d" j
    | _ -> "");
  (match !idle_timeout with
  | Some _ ->
      Printf.printf "evicted %d idle connections\n"
        result.Driver.stats.Driver.evicted
  | None -> ());
  Printf.printf "time: total %.1f ms (parse %.1f, script %.1f, glue %.1f)\n"
    (Int64.to_float result.Driver.total_ns /. 1e6)
    (Int64.to_float result.Driver.parse_ns /. 1e6)
    (Int64.to_float result.Driver.script_ns /. 1e6)
    (Int64.to_float result.Driver.glue_ns /. 1e6);
  (match !profile with
  | Some path ->
      Hilti_rt.Profiler.write_report path;
      Printf.printf "wrote profiler report to %s\n" path
  | None -> ());
  if not !quiet then begin
    let streams =
      match proto with
      | "http" -> [ "http"; "files" ]
      | "mqtt" -> [ "mqtt" ]
      | "ftp" -> [ "ftp" ]
      | _ -> [ "dns" ]
    in
    List.iter
      (fun s ->
        let path = Filename.concat !outdir (s ^ ".log") in
        Mini_bro.Bro_log.write_file result.Driver.logger s path;
        Printf.printf "wrote %s (%d lines)\n" path
          (Mini_bro.Bro_log.row_count result.Driver.logger s))
      streams
  end
