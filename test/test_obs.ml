(* The observability subsystem: sharded metric exactness under domains,
   histogram merge laws, end-to-end counter ground truth against the
   deterministic trace generators, export formats, and the zero-cost
   disabled path. *)

open Hilti_types
module Metrics = Hilti_obs.Metrics
module Trace = Hilti_obs.Trace
module Export = Hilti_obs.Export

let qt name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 gen prop)

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let evaluate ?jobs ?idle_timeout ~proto src =
  Hilti_analyzers.Driver.evaluate_src ~proto
    ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
    ~logging:false ?jobs ?idle_timeout src

let scraped_counter name =
  match Metrics.find_counter (Metrics.scrape ()) name with
  | Some v -> v
  | None -> Alcotest.failf "metric %s not scraped" name

(* ---- Sharded counters are exact under domains ------------------------------------- *)

let test_counter_sharding () =
  Metrics.with_enabled true (fun () ->
      List.iter
        (fun domains ->
          let c =
            Metrics.counter (Printf.sprintf "test_obs_shard_%d" domains)
          in
          let per_domain = 10_000 in
          let workers =
            List.init domains (fun _ ->
                Domain.spawn (fun () ->
                    for _ = 1 to per_domain do
                      Metrics.incr c
                    done))
          in
          List.iter Domain.join workers;
          (* Writers are gone; the sum over their shards must be exact. *)
          Alcotest.(check int)
            (Printf.sprintf "%d domains x %d increments" domains per_domain)
            (domains * per_domain) (Metrics.counter_value c))
        [ 1; 2; 4 ])

let test_counter_add_and_reset () =
  Metrics.with_enabled true (fun () ->
      let c = Metrics.counter "test_obs_add" in
      Metrics.add c 41;
      Metrics.incr c;
      Alcotest.(check int) "add + incr" 42 (Metrics.counter_value c);
      Metrics.reset ();
      Alcotest.(check int) "reset zeroes shards" 0 (Metrics.counter_value c))

let test_gauge_ops () =
  Metrics.with_enabled true (fun () ->
      let g = Metrics.gauge "test_obs_gauge" in
      Metrics.gauge_set g 7;
      Metrics.gauge_incr g;
      Metrics.gauge_decr g;
      Metrics.gauge_add g 3;
      Alcotest.(check int) "gauge arithmetic" 10 (Metrics.gauge_value g))

(* ---- Histogram merge laws ---------------------------------------------------------- *)

let snap_eq a b =
  a.Metrics.buckets = b.Metrics.buckets
  && a.Metrics.sum = b.Metrics.sum
  && a.Metrics.count = b.Metrics.count

let values_gen = QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_bound 5000))

let test_hmerge_associative =
  qt "histogram merge associative"
    QCheck.(triple values_gen values_gen values_gen)
    (fun (a, b, c) ->
      let h = Metrics.hsnapshot_of_list in
      snap_eq
        (Metrics.hmerge (Metrics.hmerge (h a) (h b)) (h c))
        (Metrics.hmerge (h a) (Metrics.hmerge (h b) (h c))))

let test_hmerge_is_sharding =
  qt "merge of shards == one shard of everything"
    QCheck.(pair values_gen values_gen)
    (fun (a, b) ->
      let h = Metrics.hsnapshot_of_list in
      snap_eq (h (a @ b)) (Metrics.hmerge (h a) (h b)))

let test_histogram_observe () =
  Metrics.with_enabled true (fun () ->
      let h = Metrics.histogram "test_obs_hist" in
      List.iter (Metrics.observe h) [ 0; 1; 2; 3; 1000 ];
      let s = Metrics.histogram_snapshot h in
      Alcotest.(check int) "count" 5 s.Metrics.count;
      Alcotest.(check int) "sum" 1006 s.Metrics.sum;
      Alcotest.(check int) "bucket 0 holds v<=0" 1 s.Metrics.buckets.(0);
      Alcotest.(check int) "bucket 1 holds 1" 1 s.Metrics.buckets.(1);
      Alcotest.(check int) "bucket 2 holds 2..3" 2 s.Metrics.buckets.(2);
      Alcotest.(check int) "1000 lands in [512,1024)" 1 s.Metrics.buckets.(10))

(* ---- End-to-end ground truth ------------------------------------------------------- *)

let test_dns_packets_read_exact () =
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 300 } in
  let expected =
    List.length (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records
  in
  let proto = `Dns Hilti_analyzers.Driver.Dns_std in
  let run jobs =
    Metrics.reset ();
    Metrics.with_enabled true (fun () ->
        let r = evaluate ?jobs ~proto (Hilti_traces.Dns_gen.iosrc cfg) in
        (r.Hilti_analyzers.Driver.stats, scraped_counter "packets_read",
         scraped_counter "events_raised"))
  in
  let stats_s, packets_s, events_s = run None in
  Alcotest.(check int) "serial: packets_read == generator count" expected packets_s;
  Alcotest.(check int)
    "serial: packets_read == driver stats" stats_s.Hilti_analyzers.Driver.packets
    packets_s;
  Alcotest.(check int)
    "serial: events_raised == driver stats" stats_s.Hilti_analyzers.Driver.events
    events_s;
  let stats_p, packets_p, events_p = run (Some 4) in
  Alcotest.(check int) "jobs=4: packets_read == generator count" expected packets_p;
  Alcotest.(check int)
    "jobs=4: packets_read == driver stats" stats_p.Hilti_analyzers.Driver.packets
    packets_p;
  Alcotest.(check int)
    "jobs=4: events_raised == serial events_raised" events_s events_p

(* A session table fed the packets of [src] directly, on its own timer
   manager: every fire of one of its timers either evicts the entry or
   re-arms the timer at the entry's moved deadline, so the manager's own
   fire count is the ground truth for the two [Exp_map] counters. *)
let check_session_table_timers name src =
  Metrics.reset ();
  Metrics.with_enabled true (fun () ->
      let module Ft = Hilti_net.Flow_table in
      let mgr = Hilti_rt.Timer_mgr.create () in
      let table = Ft.create ~timeout:(Interval_ns.of_msecs 5) ~timer_mgr:mgr (fun _ _ -> ()) in
      let rec go () =
        match Hilti_rt.Iosrc.read src with
        | Some p ->
            let ts = p.Hilti_rt.Iosrc.ts in
            ignore (Hilti_rt.Timer_mgr.advance mgr ts);
            (match Option.bind (Hilti_net.Packet.decode_opt ~ts p.Hilti_rt.Iosrc.data)
                     Hilti_net.Packet.flow with
            | Some flow -> ignore (Ft.lookup table ~ts flow)
            | None -> ());
            go ()
        | None -> ()
      in
      go ();
      let rearmed = scraped_counter "exp_map_timers_rearmed" in
      Alcotest.(check bool) (name ^ ": timers re-armed") true (rearmed > 0);
      Alcotest.(check int)
        (name ^ ": exp_map_timers_rearmed == timer fires - evictions")
        (Hilti_rt.Timer_mgr.fired_total mgr - Ft.expired table)
        rearmed;
      Alcotest.(check int)
        (name ^ ": exp_map_expired == table evictions")
        (Ft.expired table)
        (scraped_counter "exp_map_expired");
      Alcotest.(check int)
        (name ^ ": exp_map_timers_scheduled == connections created")
        (Ft.created table)
        (scraped_counter "exp_map_timers_scheduled");
      Alcotest.(check int)
        (name ^ ": one pending timer per live connection")
        (Ft.size table)
        (Hilti_rt.Timer_mgr.pending mgr))

let test_tcp_evictions_exact () =
  let check_proto name proto mk_src =
    Metrics.reset ();
    Metrics.with_enabled true (fun () ->
        let r = evaluate ~proto ~idle_timeout:(Interval_ns.of_msecs 5) (mk_src ()) in
        let stats = r.Hilti_analyzers.Driver.stats in
        Alcotest.(check bool)
          (name ^ ": eviction fired") true
          (stats.Hilti_analyzers.Driver.evicted > 0);
        Alcotest.(check int)
          (name ^ ": connections_evicted == driver stats")
          stats.Hilti_analyzers.Driver.evicted
          (scraped_counter "connections_evicted");
        Alcotest.(check int)
          (name ^ ": exp_map_expired == driver stats")
          stats.Hilti_analyzers.Driver.evicted
          (scraped_counter "exp_map_expired");
        Alcotest.(check int)
          (name ^ ": flow_connections_created == driver stats")
          stats.Hilti_analyzers.Driver.connections
          (scraped_counter "flow_connections_created");
        Alcotest.(check int)
          (name ^ ": events_raised == driver stats")
          stats.Hilti_analyzers.Driver.events
          (scraped_counter "events_raised"));
    check_session_table_timers name (mk_src ())
  in
  check_proto "http" (`Http Hilti_analyzers.Driver.Http_std) (fun () ->
      Hilti_traces.Http_gen.iosrc { Hilti_traces.Http_gen.default with sessions = 60 });
  check_proto "mqtt" (`Mqtt Hilti_analyzers.Driver.Mqtt_std) (fun () ->
      Hilti_traces.Mqtt_gen.iosrc { Hilti_traces.Mqtt_gen.default with sessions = 60 });
  check_proto "ftp" (`Ftp Hilti_analyzers.Driver.Ftp_std) (fun () ->
      Hilti_traces.Ftp_gen.iosrc { Hilti_traces.Ftp_gen.default with sessions = 60 })

let test_vm_instruction_groups () =
  (* Any compiled-script run must retire instructions in the data and
     control groups; the grouped counters are labelled variants of one
     metric family. *)
  Metrics.reset ();
  Metrics.with_enabled true (fun () ->
      let cfg = { Hilti_traces.Dns_gen.default with transactions = 20 } in
      ignore
        (Hilti_analyzers.Driver.evaluate_src
           ~proto:(`Dns Hilti_analyzers.Driver.Dns_std)
           ~engine_mode:Mini_bro.Bro_engine.Compiled ~scripts:(Lazy.force scripts)
           ~logging:false
           (Hilti_traces.Dns_gen.iosrc cfg));
      let grouped =
        List.filter_map
          (fun s ->
            match (s.Metrics.s_name, s.Metrics.s_value) with
            | "vm_instructions", Metrics.V_counter v when v > 0 -> Some v
            | _ -> None)
          (Metrics.scrape ())
      in
      Alcotest.(check bool)
        "several opcode groups saw instructions" true
        (List.length grouped >= 2);
      match
        List.find_map
          (fun s ->
            match s.Metrics.s_value with
            | Metrics.V_histogram h when s.Metrics.s_name = "vm_func_instrs" ->
                Some h
            | _ -> None)
          (Metrics.scrape ())
      with
      | Some h ->
          (* Activations nest (Call re-enters exec_func), so the histogram
             sum counts inner instructions once per enclosing activation;
             it can only meet or exceed the flat per-group totals. *)
          Alcotest.(check bool) "activation histogram filled" true
            (h.Metrics.count > 0
            && h.Metrics.sum >= List.fold_left ( + ) 0 grouped)
      | None -> Alcotest.fail "vm_func_instrs not scraped")

(* ---- Disabled fast path ------------------------------------------------------------ *)

let test_disabled_no_alloc () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test_obs_noalloc" in
  let h = Metrics.histogram "test_obs_noalloc_h" in
  (* Warm the DLS paths outside the measured window. *)
  Metrics.with_enabled true (fun () ->
      Metrics.incr c;
      Metrics.observe h 1);
  Metrics.reset ();
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Metrics.incr c;
    Metrics.observe h i
  done;
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no allocation when disabled (%.0f words)" delta)
    true (delta < 256.0);
  Alcotest.(check int) "and nothing recorded" 0 (Metrics.counter_value c)

(* ---- Trace rings ------------------------------------------------------------------- *)

let test_trace_ring_bounded () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      Trace.with_span "outer" (fun () -> Trace.instant "mark");
      let evs = Trace.events () in
      Alcotest.(check int) "span + instant retained" 2 (List.length evs);
      (* Instants start inside the span, so they sort first or equal;
         completed spans carry their duration. *)
      Alcotest.(check bool)
        "chrome json renders" true
        (String.length (Trace.to_chrome_json ()) > 2);
      for _ = 1 to Trace.capacity + 100 do
        Trace.instant "flood"
      done;
      Alcotest.(check bool)
        "ring stays bounded" true
        (List.length (Trace.events ()) <= Trace.capacity + 2);
      Alcotest.(check bool) "drops counted" true (Trace.dropped () >= 100))

(* ---- Export formats ---------------------------------------------------------------- *)

let test_export_files () =
  let prefix = Filename.temp_file "hilti_obs" "" in
  Metrics.reset ();
  Metrics.with_enabled true (fun () ->
      let c = Metrics.counter "test_obs_export" ~help:"an export probe" in
      Metrics.add c 5;
      let ex = Export.create ~prefix in
      Export.scrape ex;
      Metrics.add c 2;
      Export.close ex;
      let read path =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let jsonl = read (prefix ^ ".metrics.jsonl") in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
      in
      Alcotest.(check int) "one line per scrape (incl. final)" 2 (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool)
            "jsonl line shape" true
            (String.length l > 2
            && String.sub l 0 9 = {|{"ts_ns":|}
            && l.[String.length l - 1] = '}'))
        lines;
      let contains ~needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "jsonl carries the counter" true
        (contains ~needle:{|"name":"test_obs_export","type":"counter","value":7|}
           (List.nth lines 1));
      let prom = read (prefix ^ ".prom") in
      Alcotest.(check bool)
        "prom TYPE header" true
        (contains ~needle:"# TYPE test_obs_export counter" prom);
      Alcotest.(check bool)
        "prom HELP header" true
        (contains ~needle:"# HELP test_obs_export an export probe" prom);
      Alcotest.(check bool)
        "prom sample line" true (contains ~needle:"test_obs_export 7" prom);
      Sys.remove (prefix ^ ".metrics.jsonl");
      Sys.remove (prefix ^ ".prom");
      if Sys.file_exists prefix then Sys.remove prefix)

let test_atomic_write () =
  let path = Filename.temp_file "hilti_obs_atomic" ".txt" in
  Export.write_file_atomic path "hello";
  let ic = open_in path in
  let got =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "content lands" "hello" got;
  (* No temp droppings next to the target. *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let droppings =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           f <> base
           && String.length f > String.length base
           && String.sub f 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no temp files left" [] droppings;
  Sys.remove path

(* ---- Profilers in the one registry ------------------------------------------------ *)

module Profiler = Hilti_rt.Profiler
module Driver = Hilti_analyzers.Driver

(* (calls, cycles) of the parse, script and glue profilers after a
   BinPAC++-parser, compiled-script run: mini-bro's
   [-parsers pac -compile-scripts -quiet -timeout MS]. *)
let pac_attribution ?jobs ~timeout_ms ~proto src =
  ignore
    (Driver.evaluate_src ~proto ~engine_mode:Mini_bro.Bro_engine.Compiled
       ~scripts:(Lazy.force scripts) ~logging:false ?jobs
       ~idle_timeout:(Interval_ns.of_msecs timeout_ms) src);
  List.map
    (fun p -> (Profiler.invocations p, Profiler.cycles p))
    [ Driver.parse_profiler; Driver.script_profiler; Mini_bro.Bro_val.glue_profiler ]

let attribution = Alcotest.(list (pair int int64))

(* Pinned values: mini-bro's [-profile] report on the same traces.  Any
   drift means the VM's cycle credits or the profiler bookkeeping moved
   instructions between blocks — or the lowered code itself changed: the
   cycles are retired instructions, so re-pin (from [-profile]) whenever
   lowering emits fewer of them; the call counts must not move.  Glue
   calls are one per compiled-script dispatch (all its arguments in one
   window), one per queued event and one per parsed BinPAC++ unit. *)
let test_profiler_attribution_dns () =
  let src () =
    Hilti_traces.Dns_gen.iosrc { Hilti_traces.Dns_gen.default with transactions = 6000 }
  in
  let run ?jobs () =
    pac_attribution ?jobs ~timeout_ms:50
      ~proto:(`Dns (Driver.Dns_pac (Hilti_analyzers.Dns_pac.load ())))
      (src ())
  in
  let serial = run () in
  Alcotest.check attribution "dns:6000 parse/script/glue"
    [ (47, 2736593L); (47, 419915L); (29923, 0L) ]
    serial;
  (* With 4 shards the glue runs on the worker domains; sharded profiler
     counters make the call count exact. *)
  let glue_calls r = fst (List.nth r 2) in
  Alcotest.(check int)
    "jobs=4: bro/glue calls == serial" (glue_calls serial)
    (glue_calls (run ~jobs:4 ()))

let test_profiler_attribution_tcp () =
  let check name proto src expected =
    Alcotest.check attribution name expected (pac_attribution ~timeout_ms:5 ~proto src)
  in
  check "http:60"
    (`Http (Driver.Http_pac (Hilti_analyzers.Http_pac.load ())))
    (Hilti_traces.Http_gen.iosrc { Hilti_traces.Http_gen.default with sessions = 60 })
    [ (598, 118514L); (420, 14728L); (718, 0L) ];
  check "mqtt:60"
    (`Mqtt (Driver.Mqtt_pac (Hilti_analyzers.Mqtt_pac.load ())))
    (Hilti_traces.Mqtt_gen.iosrc { Hilti_traces.Mqtt_gen.default with sessions = 60 })
    [ (712, 80042L); (531, 14416L); (1107, 0L) ];
  check "ftp:60"
    (`Ftp (Driver.Ftp_pac (Hilti_analyzers.Ftp_pac.load ())))
    (Hilti_traces.Ftp_gen.iosrc { Hilti_traces.Ftp_gen.default with sessions = 60 })
    [ (1023, 53469L); (1214, 33395L); (2117, 0L) ]

(* A block opened and closed mid-activation is charged exactly the
   instructions retired inside it: the VM credits the cycle clock before a
   [profiler.*] instruction and before a host call, not only at exit. *)
let test_profiler_cycles_mid_activation () =
  let src =
    {|
module Main

declare void Host::start ()
declare void Host::stop ()

int<64> run () {
    local int<64> i
    local bool more
    i = assign 0
warm:
    more = int.lt i 500
    if.else more warm_body measured
warm_body:
    i = int.add i 1
    jump warm
measured:
    profiler.start "test_obs/vm_op"
    call Host::start ()
    i = assign 0
inner:
    more = int.lt i 5
    if.else more inner_body done
inner_body:
    i = int.add i 1
    jump inner
done:
    call Host::stop ()
    profiler.stop "test_obs/vm_op"
    return i
}
|}
  in
  let host = Profiler.create "test_obs/host" and op = Profiler.create "test_obs/vm_op" in
  Profiler.reset_all ();
  let api = Hilti_vm.Host_api.compile [ Hilti_lang.Parser.parse_module src ] in
  Hilti_vm.Host_api.register api "Host::start" (fun _ ->
      Profiler.start host;
      Hilti_vm.Value.Null);
  Hilti_vm.Host_api.register api "Host::stop" (fun _ ->
      Profiler.stop host;
      Hilti_vm.Value.Null);
  ignore (Hilti_vm.Host_api.call api "Main::run" []);
  let retired = Hilti_vm.Host_api.cycles api in
  let cycles p = Profiler.cycles p in
  Alcotest.(check bool) "warm-up loop retired > 1000" true (retired > 1000L);
  Alcotest.(check bool)
    (Printf.sprintf "host-call block charged its inner loop only (%Ld)" (cycles host))
    true
    (cycles host > 0L && cycles host < 100L);
  Alcotest.(check bool)
    (Printf.sprintf "profiler.* block charged its inner loop only (%Ld)" (cycles op))
    true
    (cycles op > cycles host && cycles op < 100L)

let test_profiler_exact_under_domains () =
  let p = Profiler.create "test_obs/domains" in
  Profiler.reset_all ();
  let per_domain = 10_000 in
  List.init 4 (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to per_domain do
            Profiler.time p ignore
          done))
  |> List.iter Domain.join;
  Alcotest.(check int) "4 domains x time calls" (4 * per_domain) (Profiler.invocations p)

let test_profiler_scraped_when_disabled () =
  Metrics.with_enabled false (fun () ->
      let p = Profiler.create "test_obs/scraped" in
      Profiler.reset_all ();
      Profiler.time p ignore;
      Profiler.time p ignore;
      let samples = Metrics.scrape () in
      let value name =
        List.find_map
          (fun (s : Metrics.sample) ->
            match s.s_value with
            | Metrics.V_counter v
              when s.s_name = name && s.s_label = Some ("name", "test_obs/scraped") ->
                Some v
            | _ -> None)
          samples
      in
      Alcotest.(check (option int)) "profiler_calls" (Some 2) (value "profiler_calls");
      Alcotest.(check bool)
        "profiler_wall_ns" true
        (Option.is_some (value "profiler_wall_ns"));
      Alcotest.(check (option int)) "profiler_cycles" (Some 0) (value "profiler_cycles");
      Alcotest.(check bool)
        "prometheus sample line" true
        (Astring_contains.contains (Export.prometheus_text samples)
           {|profiler_calls{name="test_obs/scraped"} 2|}))

let test_profiler_snapshot_cap () =
  let p = Profiler.create "test_obs/snap_cap" in
  Profiler.reset_all ();
  (* Wall totals after each of 300 snapshots, in order. *)
  let walls =
    List.init 300 (fun _ ->
        Profiler.time p ignore;
        Profiler.snapshot p;
        Profiler.wall_ns p)
  in
  let snaps = Profiler.snapshots p in
  Alcotest.(check int)
    "capped at max_snapshots" Profiler.max_snapshots (List.length snaps);
  (* The newest survive: the retained window is [45..300], oldest first. *)
  Alcotest.(check (list int64))
    "newest retained, oldest first"
    (List.filteri (fun i _ -> i >= 300 - Profiler.max_snapshots) walls)
    (List.map fst snaps)

(* Exclusive windows on the deterministic cycle clock: each block is
   charged exactly the cycles run while it was innermost, so nested
   windows add up to the total, also when a window raises. *)
let test_profiler_windows_additive () =
  Profiler.reset_all ();
  let outer = Profiler.create "test_obs/win_outer"
  and mid = Profiler.create "test_obs/win_mid"
  and inner = Profiler.create "test_obs/win_inner" in
  let tick n = Profiler.bump Profiler.cycle_clock n in
  let c0 = Profiler.clock () in
  Profiler.time outer (fun () ->
      tick 3;
      Profiler.time_exclusive mid (fun () ->
          tick 5;
          Profiler.time_exclusive inner (fun () -> tick 7);
          tick 11);
      tick 13);
  let total = Int64.of_int (Profiler.clock () - c0) in
  Alcotest.(check (list int64))
    "outer, mid, inner" [ 16L; 16L; 7L ]
    (List.map Profiler.cycles [ outer; mid; inner ]);
  Alcotest.(check int64) "outer + mid + inner = total" total
    (List.fold_left (fun a p -> Int64.add a (Profiler.cycles p)) 0L [ outer; mid; inner ]);
  Alcotest.(check int) "nothing left running" 0 (List.length !(Profiler.running ()));
  Profiler.reset_all ()

let test_profiler_window_raises () =
  Profiler.reset_all ();
  let outer = Profiler.create "test_obs/raise_outer"
  and inner = Profiler.create "test_obs/raise_inner" in
  let tick n = Profiler.bump Profiler.cycle_clock n in
  Profiler.time outer (fun () ->
      tick 2;
      (match Profiler.time_exclusive inner (fun () -> tick 4; failwith "boom") with
      | () -> Alcotest.fail "the window did not raise"
      | exception Failure _ -> ());
      (match !(Profiler.running ()) with
      | [ f ] -> Alcotest.(check string) "outer block restored" "test_obs/raise_outer" f.Profiler.p.Profiler.name
      | l -> Alcotest.failf "%d blocks running after the window raised" (List.length l));
      tick 8);
  Alcotest.(check (list int64))
    "outer charged before and after, inner until it raised" [ 10L; 4L ]
    (List.map Profiler.cycles [ outer; inner ]);
  Alcotest.(check int) "one call each" 2 (Profiler.invocations outer + Profiler.invocations inner);
  Profiler.reset_all ()

let suite =
  [
    Alcotest.test_case "counter sharding exact under domains" `Quick
      test_counter_sharding;
    Alcotest.test_case "counter add/reset" `Quick test_counter_add_and_reset;
    Alcotest.test_case "gauge ops" `Quick test_gauge_ops;
    test_hmerge_associative;
    test_hmerge_is_sharding;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_observe;
    Alcotest.test_case "dns: packets_read exact, serial and jobs=4" `Quick
      test_dns_packets_read_exact;
    Alcotest.test_case "http: evictions and events exact" `Quick
      test_tcp_evictions_exact;
    Alcotest.test_case "vm opcode-group counters" `Quick test_vm_instruction_groups;
    Alcotest.test_case "disabled path does not allocate" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "trace ring bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "export jsonl + prometheus" `Quick test_export_files;
    Alcotest.test_case "atomic file write" `Quick test_atomic_write;
    Alcotest.test_case "profiler attribution pinned: dns, serial and jobs=4" `Quick
      test_profiler_attribution_dns;
    Alcotest.test_case "profiler attribution pinned: http/mqtt/ftp" `Quick
      test_profiler_attribution_tcp;
    Alcotest.test_case "profiler cycles exact mid-activation" `Quick
      test_profiler_cycles_mid_activation;
    Alcotest.test_case "profiler calls exact under domains" `Quick
      test_profiler_exact_under_domains;
    Alcotest.test_case "profiler samples scraped with metrics disabled" `Quick
      test_profiler_scraped_when_disabled;
    Alcotest.test_case "profiler snapshot history capped" `Quick
      test_profiler_snapshot_cap;
    Alcotest.test_case "profiler: nested exclusive windows add up" `Quick
      test_profiler_windows_additive;
    Alcotest.test_case "profiler: a raising window restores the outer block" `Quick
      test_profiler_window_raises;
  ]
