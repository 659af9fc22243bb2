(** §6.6 concurrency check: the same HILTI parsing code runs unchanged in
    threaded and non-threaded setups.  DNS datagrams are load-balanced by
    flow hash across N virtual threads (the hash-scheduling scheme of
    §3.2); every configuration must parse exactly the same messages. *)

open Binpacxx

(* A host-linked wrapper unit: parse one datagram, report its DNS id back
   to the host, swallowing parse errors (crud). *)
let wrapper_module () =
  let m = Module_ir.create "Bench" in
  Module_ir.add_func m
    {
      Module_ir.fname = "Bench::record";
      params = [ ("id", Htype.Int 64) ];
      result = Htype.Void;
      locals = [];
      blocks = [];
      cc = Module_ir.Cc_c;
      hook_priority = 0;
      exported = true;
    };
  let b =
    Builder.func m "Bench::parse_one" ~exported:true
      ~params:[ ("pkt", Htype.Ref Htype.Bytes) ]
      ~result:Htype.Void
  in
  let exc = Builder.local b "e" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "bad"; Instr.Local exc ];
  let it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Instr.Local "pkt" ] in
  let itl = Builder.local b "it" (Htype.Iter Htype.Bytes) in
  Builder.instr b ~target:itl "assign" [ it ];
  let t =
    Builder.emit b
      (Htype.Tuple [ Htype.Any; Htype.Iter Htype.Bytes ])
      "call"
      [ Instr.Fname "DNS::parse_Message"; Instr.Tuple_op [ Instr.Local itl; Instr.Local itl ] ]
  in
  let st =
    Builder.emit b (Htype.Ref (Htype.Struct "DNS::Message")) "tuple.get"
      [ t; Builder.const_int 0 ]
  in
  let id = Builder.emit b (Htype.Int 64) "struct.get" [ st; Instr.Member "id" ] in
  Builder.call b "Bench::record" [ id ];
  Builder.return_ b;
  Builder.set_block b "bad";
  Builder.return_ b;
  m

(* Serial and sharded runs must produce byte-identical event streams.  On
   multi-core hardware, 2 shards must hold >= 0.9x the cooperative
   throughput (the old engine regressed to ~0.45x); a 1-core box can only
   measure overhead, so the gate is skipped there (the report carries a
   warning instead). *)
let gates ~cores =
  let open Bench_util.Report in
  [ ("identical_output", Equals (Flag true)); ("cores_available", Recorded) ]
  @ if cores >= 2 then [ ("shards_2_vs_cooperative", At_least 0.9) ] else [ ("warning", Recorded) ]

let run ?(quick = false) ?datagrams () =
  let datagrams_override = datagrams in
  Bench_util.header "§6.6 load-balancing DNS across virtual threads";
  let module R = Bench_util.Report in
  let cores = Domain.recommended_domain_count () in
  let r = R.create "threads" ~gates:(gates ~cores) in
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 800; seed = 606 } in
  let trace = Hilti_traces.Dns_gen.generate cfg in
  (* Pre-extract (flow-hash, payload) pairs. *)
  let datagrams =
    List.filter_map
      (fun (r : Hilti_net.Pcap.record) ->
        match Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data with
        | Some pkt -> (
            match (Hilti_net.Packet.flow pkt, pkt.Hilti_net.Packet.transport) with
            | Some flow, Hilti_net.Packet.UDP (_, payload) ->
                Some (Hilti_net.Flow.hash flow, payload)
            | _ -> None)
        | None -> None)
      trace.Hilti_traces.Dns_gen.records
  in
  let dns_m = Codegen.compile (Grammars.parse_dns ()) in
  (* The cooperative scheduler over [nthreads] virtual threads. *)
  let run_with nthreads =
    let api = Hilti_vm.Host_api.compile [ dns_m; wrapper_module () ] in
    let recorded = ref [] in
    Hilti_vm.Host_api.register_ctx api "Bench::record" (fun ctx args ->
        (match args with
        | [ Hilti_vm.Value.Int id ] ->
            let tid = ctx.Hilti_vm.Vm.current_thread in
            recorded := (tid, id) :: !recorded
        | _ -> ());
        Hilti_vm.Value.Null);
    (* Thread-local state: each virtual thread compiles its own regexps. *)
    for tid = 0 to nthreads - 1 do
      Hilti_vm.Host_api.schedule api (Int64.of_int tid) "DNS::init" []
    done;
    List.iter
      (fun (hash, payload) ->
        let tid = Hilti_rt.Scheduler.thread_for_hash ~threads:nthreads hash in
        let b = Hilti_types.Hbytes.of_string payload in
        Hilti_types.Hbytes.freeze b;
        Hilti_vm.Host_api.schedule api tid "Bench::parse_one" [ Hilti_vm.Value.Bytes b ])
      datagrams;
    let (), ns = Bench_util.time_ns (fun () -> Hilti_vm.Host_api.run_scheduler api) in
    let stats = Hilti_vm.Host_api.scheduler_stats api in
    (List.sort compare (List.map snd !recorded),
     List.sort_uniq compare (List.map fst !recorded),
     stats, ns)
  in
  let baseline_ids, _, _, _ = run_with 1 in
  Printf.printf "%d datagrams, %d parsed on a single virtual thread\n"
    (List.length datagrams) (List.length baseline_ids);
  let ok = ref true in
  List.iter
    (fun n ->
      let ids, threads_used, stats, ns = run_with n in
      let same = ids = baseline_ids in
      if not same then ok := false;
      Printf.printf
        "threads=%d: %d messages, %d vthreads active, %d jobs, %.1f ms -> %s\n" n
        (List.length ids) (List.length threads_used)
        stats.Hilti_rt.Scheduler.total_jobs (Bench_util.ms ns)
        (if same then "identical results" else "MISMATCH"))
    [ 1; 2; 4; 8 ];
  Printf.printf "threaded == unthreaded: %s (paper: same parsing code supports both)\n"
    (if !ok then "yes" else "NO");

  (* Serial pipeline vs the flow-sharded data plane (the §6.6 scaling
     experiment).  The workload is sized to be meaningful: a scheduling
     benchmark over a couple of thousand datagrams measures only fixed
     costs, so we stream >= 200k datagrams (~100k distinct flows) through
     the full DNS pipeline — BinPAC++ parser, connection tracking, event
     dispatch — serially and sharded over 1, 2 and 4 domains, checking the
     event streams are byte-identical along the way. *)
  let cores = Domain.recommended_domain_count () in
  let target =
    match datagrams_override with
    | Some d -> d
    | None -> if quick then 20_000 else 200_000
  in
  let dns_cfg =
    { Hilti_traces.Dns_gen.default with
      transactions = max 1 (target / 2);
      seed = 707;
      clients = 60_000 }
  in
  let shard_counts = [ 1; 2; 4 ] in
  Printf.printf
    "\nserial pipeline vs flow-sharded data plane (%d datagrams, %d core%s available)\n"
    target cores (if cores = 1 then "" else "s");
  (* One BinPAC++ parser per (run, shard), all compiled up front on this
     domain so grammar compilation never lands inside a timed region. *)
  let pool =
    Array.init
      (1 + List.fold_left ( + ) 0 shard_counts)
      (fun _ -> Hilti_analyzers.Dns_pac.load ())
  in
  let next_parser = ref 0 in
  let take_parser () =
    let p = pool.(!next_parser) in
    incr next_parser;
    Hilti_analyzers.Driver.Dns_pac p
  in
  (* Fingerprint the event stream: event name + rendered arguments, chained
     through a digest so memory stays O(1) regardless of trace size. *)
  let mk_sink () =
    let state = ref "" and events = ref 0 in
    let line = Buffer.create 256 in
    let sink =
      { Hilti_analyzers.Events.raise_event =
          (fun name args ->
            incr events;
            Buffer.clear line;
            Buffer.add_string line name;
            List.iter
              (fun v ->
                Buffer.add_char line ' ';
                Buffer.add_string line (Mini_bro.Bro_val.to_string v))
              args;
            state := Digest.string (!state ^ Buffer.contents line));
        set_time = (fun _ -> ()) }
    in
    (sink, (fun () -> Digest.to_hex !state), fun () -> !events)
  in
  let serial_sink, serial_digest, serial_events = mk_sink () in
  let serial_kind = take_parser () in
  let serial_stats, serial_ns =
    Bench_util.time_ns (fun () ->
        Hilti_analyzers.Driver.run_dns_src ~kind:serial_kind ~sink:serial_sink
          (Hilti_traces.Dns_gen.iosrc dns_cfg))
  in
  let dgrams = serial_stats.Hilti_analyzers.Driver.packets in
  let flows = serial_stats.Hilti_analyzers.Driver.connections in
  let dps ns = float_of_int dgrams /. (Int64.to_float ns /. 1e9) in
  let serial_fp = serial_digest () in
  Printf.printf "cooperative : %7.1f ms  %8.0f datagrams/s  (%d flows, %d events)\n"
    (Bench_util.ms serial_ns) (dps serial_ns) flows (serial_events ());
  let shard_results =
    List.map
      (fun shards ->
        let sink, digest, _ = mk_sink () in
        let _, ns =
          Bench_util.time_ns (fun () ->
              Hilti_analyzers.Driver.run_dns_sharded_src ~shards
                ~mk_kind:(fun _ -> take_parser ())
                ~sink
                (Hilti_traces.Dns_gen.iosrc dns_cfg))
        in
        let same = digest () = serial_fp in
        if not same then ok := false;
        Printf.printf
          "shards=%d    : %7.1f ms  %8.0f datagrams/s  speedup vs serial: %.2fx -> %s\n"
          shards (Bench_util.ms ns) (dps ns)
          (Int64.to_float serial_ns /. Int64.to_float ns)
          (if same then "identical events" else "MISMATCH");
        (shards, ns))
      shard_counts
  in
  R.int r ~unit_:"datagrams" "datagrams" dgrams;
  R.int r ~unit_:"flows" "flows" flows;
  R.int r ~unit_:"cores" "cores_available" cores;
  let max_shards = List.fold_left max 1 shard_counts in
  if cores < max_shards then
    R.text r "warning"
      (Printf.sprintf
         "only %d core(s) available for %d shards; sharded timings measure overhead, not scaling"
         cores max_shards);
  R.flag r "identical_output" !ok;
  List.iter
    (fun (mode, shards, ns) ->
      let labels = [ ("mode", R.Text mode); ("shards", R.Num (float_of_int shards)) ] in
      R.num r ~labels ~unit_:"ms" "ms" (Bench_util.ms ns);
      R.num r ~labels ~unit_:"datagrams/s" "datagrams_per_sec" (dps ns))
    (("cooperative", 0, serial_ns) :: List.map (fun (s, ns) -> ("sharded", s, ns)) shard_results);
  R.num r ~unit_:"x" "shards_2_vs_cooperative" (dps (List.assoc 2 shard_results) /. dps serial_ns);
  r
