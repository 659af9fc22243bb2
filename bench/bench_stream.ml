(** Streaming-pipeline memory bench: the tentpole claim of the Iosrc
    refactor is that memory is bounded by *trace-independent* state (live
    connections + one in-flight message per side), not by trace length.

    We run the HTTP analyzer over synthetic traces growing 1x/4x/16x,
    once through the streaming path (generator iosrc -> evaluate_src with
    an idle timeout) and once through the materialised list path, and
    record the peak live heap and throughput of each.  Streaming peaks
    should stay near-flat while the list path grows with the trace.

    Peak heap is measured precisely: the packet source is tapped and every
    [sample_every] packets a full major collection runs before reading
    live words, so floating garbage (which scales with allocation rate,
    not retention) cannot inflate the number.  Throughput comes from a
    separate untapped run. *)

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let idle_timeout = Hilti_types.Interval_ns.of_msecs 50

let sample_every = 500

(* Wrap a source so [sample] runs every [sample_every] packets. *)
let tapped sample (src : Hilti_rt.Iosrc.t) : Hilti_rt.Iosrc.t =
  let count = ref 0 in
  Hilti_rt.Iosrc.create ~kind:(Hilti_rt.Iosrc.kind src) (fun () ->
      incr count;
      if !count mod sample_every = 0 then sample ();
      Hilti_rt.Iosrc.read src)

(* Peak *live* major-heap words across [f ~tap]: [tap] forces a major
   collection and reads what is actually reachable. *)
let peak_live_words f =
  (* Settle the heap first: a single compaction can still report words the
     next major cycle would free (live_words lags a cycle). *)
  Gc.compact ();
  Gc.full_major ();
  Gc.full_major ();
  let peak = ref (Gc.quick_stat ()).Gc.live_words in
  let sample () =
    Gc.full_major ();
    let lw = (Gc.quick_stat ()).Gc.live_words in
    if lw > !peak then peak := lw
  in
  let r = f ~tap:(tapped sample) in
  sample ();
  (r, !peak)

let evaluate ?idle_timeout src =
  Hilti_analyzers.Driver.evaluate_src
    ~proto:(`Http Hilti_analyzers.Driver.Http_std)
    ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
    ~logging:false ?idle_timeout src

(* Streaming path: synthesize on demand, evict idle connections. *)
let run_streaming ~tap sessions =
  let cfg = { Hilti_traces.Http_gen.default with sessions } in
  evaluate ~idle_timeout (tap (Hilti_traces.Http_gen.iosrc cfg))

(* List path: materialise the whole trace first (the closure keeps the
   record list alive for the duration), no eviction — the old pipeline. *)
let run_list ~tap sessions =
  let cfg = { Hilti_traces.Http_gen.default with sessions } in
  let records = (Hilti_traces.Http_gen.generate cfg).Hilti_traces.Http_gen.records in
  evaluate (tap (Hilti_net.Pcap.iosrc_of_records records))

let mib words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* ---- End-to-end throughput: zero-copy batched loops vs the pre-PR loops --- *)

let null_sink () =
  { Hilti_analyzers.Events.raise_event = (fun _ _ -> ());
    set_time = (fun _ -> ()) }

(* Interleave the two loops, round-robin, and keep each one's best time:
   paired rounds see similar machine conditions, so the ratio of the two
   minima is much more stable than two separate best-of blocks on a busy
   host. *)
let best_pair ~rounds f g =
  ignore (f ());
  ignore (g ());
  (* warm *)
  let once h =
    Bench_util.gc_normalize ();
    let _, ns = Bench_util.time_ns h in
    Int64.to_float ns /. 1e9
  in
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to rounds do
    let s = once f in
    if s < !bf then bf := s;
    let s = once g in
    if s < !bg then bg := s
  done;
  (!bf, !bg)

(* DNS: the per-packet string loop ([run_dns_src_unbatched], the pre-PR
   pipeline kept as the measured baseline) against the zero-copy batched
   loop.  Both raise the identical event stream (test_shard's differential
   oracle); only the decode representation and the per-packet obs/timer
   cadence differ. *)
let dns_throughput r =
  let module D = Hilti_analyzers.Driver in
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 4000; seed = 7 } in
  let records = (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records in
  let src () = Hilti_net.Pcap.iosrc_of_records records in
  let packets =
    (D.run_dns_src ~kind:D.Dns_std ~sink:(null_sink ()) (src ())).D.packets
  in
  let t_un, t_zc =
    best_pair ~rounds:15
      (fun () ->
        D.run_dns_src_unbatched ~kind:D.Dns_std ~sink:(null_sink ()) (src ()))
      (fun () -> D.run_dns_src ~kind:D.Dns_std ~sink:(null_sink ()) (src ()))
  in
  let pps_un = float_of_int packets /. t_un in
  let pps_zc = float_of_int packets /. t_zc in
  Printf.printf
    "DNS end-to-end (%d packets, best of 15 interleaved):\n\
    \  per-packet string loop:   %10.0f pkts/s\n\
    \  zero-copy batched loop:   %10.0f pkts/s\n\
    \  speedup: %.2fx\n"
    packets pps_un pps_zc (pps_zc /. pps_un);
  Bench_util.Report.num r ~unit_:"pkt/s" "dns_pps_unbatched" pps_un;
  Bench_util.Report.num r ~unit_:"pkt/s" "dns_pps_zero_copy" pps_zc;
  Bench_util.Report.num r ~unit_:"x" "dns_speedup_zero_copy" (pps_zc /. pps_un)

(* Firewall: batch=1 degenerates the batched loop to the pre-PR per-packet
   accounting; the default batch amortizes it.  The gate is a guardrail —
   batching must not cost the firewall path anything. *)
let firewall_throughput r =
  let rules =
    Hilti_firewall.Fw_rules.parse_rules
      {|
10.2.0.0/16 192.168.200.0/24 allow
192.168.200.2/32 * allow
10.2.7.0/24 * deny
|}
  in
  let module D = Hilti_analyzers.Driver in
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 4000; seed = 31 } in
  let records = (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records in
  let src () = Hilti_net.Pcap.iosrc_of_records records in
  let fw = Hilti_firewall.Fw_hilti.load rules in
  let packets = (D.run_firewall_src ~fw (src ())).D.packets in
  let t_1, t_b =
    best_pair ~rounds:9
      (fun () -> ignore (D.run_firewall_src ~fw ~batch:1 (src ())))
      (fun () -> ignore (D.run_firewall_src ~fw (src ())))
  in
  let speedup = t_1 /. t_b in
  Printf.printf
    "Firewall end-to-end (%d packets, best of 9 interleaved):\n\
    \  batch=1 (per-packet):     %10.0f pkts/s\n\
    \  default batch:            %10.0f pkts/s\n\
    \  batch speedup: %.2fx\n"
    packets
    (float_of_int packets /. t_1)
    (float_of_int packets /. t_b)
    speedup;
  Bench_util.Report.num r ~unit_:"x" "firewall_batch_speedup" speedup

(* The zero-copy batched DNS loop must hold >= 1.5x over the pre-PR
   per-packet string loop (both measured in the same interleaved run and
   recorded), and batching must not cost the firewall path anything (0.95
   allows measurement noise). *)
let gates =
  Bench_util.Report.
    [ ("dns_pps_unbatched", Recorded);
      ("dns_pps_zero_copy", Recorded);
      ("dns_speedup_zero_copy", At_least 1.5);
      ("firewall_batch_speedup", At_least 0.95) ]

let run ?(base = 150) () =
  Bench_util.header "Streaming pipeline: peak heap vs trace size";
  let module R = Bench_util.Report in
  let r = R.create "stream" ~gates in
  R.int r ~unit_:"sessions" "base_sessions" base;
  Printf.printf "%-10s %6s %9s %12s %12s %12s\n" "mode" "scale" "packets"
    "peak MiB" "ms" "pkts/s";
  let no_tap src = src in
  let measure mode scale f =
    Bench_util.gc_normalize ();
    let result, peak = peak_live_words f in
    (* Time a second, untapped run: forced majors would poison it. *)
    let _, ns = Bench_util.time_ns (fun () -> f ~tap:no_tap) in
    let packets = result.Hilti_analyzers.Driver.stats.Hilti_analyzers.Driver.packets in
    let secs = Int64.to_float ns /. 1e9 in
    Printf.printf "%-10s %6dx %9d %12.2f %12.1f %12.0f\n%!" mode scale packets
      (mib peak) (Bench_util.ms ns)
      (float_of_int packets /. secs);
    let labels = [ ("mode", R.Text mode); ("scale", R.Num (float_of_int scale)) ] in
    R.int r ~labels ~unit_:"pkts" "packets" packets;
    R.num r ~labels ~unit_:"MiB" "peak_mib" (mib peak);
    R.num r ~labels ~unit_:"ms" "ms" (Bench_util.ms ns);
    peak
  in
  let stream =
    List.map (fun s -> (s, measure "stream" s (fun ~tap -> run_streaming ~tap (base * s)))) [ 1; 4; 16 ]
  in
  (* The list path only needs the endpoints to show the contrast. *)
  let listed =
    List.map (fun s -> (s, measure "list" s (fun ~tap -> run_list ~tap (base * s)))) [ 1; 16 ]
  in
  let growth results = float_of_int (List.assoc 16 results) /. float_of_int (List.assoc 1 results) in
  let stream_growth = growth stream and list_growth = growth listed in
  let bounded = stream_growth < 2.0 in
  Printf.printf
    "peak heap growth at 16x trace: streaming %.2fx, list %.2fx -> %s\n"
    stream_growth list_growth
    (if bounded then "bounded" else "NOT BOUNDED");
  R.num r ~unit_:"x" "stream_peak_growth_16x" stream_growth;
  R.num r ~unit_:"x" "list_peak_growth_16x" list_growth;
  R.flag r "bounded" bounded;
  print_newline ();
  Bench_util.header "Zero-copy batched loops: end-to-end throughput";
  dns_throughput r;
  firewall_throughput r;
  r
