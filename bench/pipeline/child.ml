(** One repetition of a workload in a fresh process, untraced or traced.
    The child reports "key value" lines on stdout for the parent. *)

open Hilti_analyzers

let say key fmt = Printf.printf ("%s " ^^ fmt ^^ "\n") key

(** This process's peak resident set (VmHWM) in kB: the memory an operator
    sees.  The GC's [top_heap_words] moves in heap-growth steps, so two
    traces of one size can differ by a whole step. *)
let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | Some _ -> go ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      go ())

(** The calls mini-bro makes and nothing else.  [spawn_ns] is the
    parent's clock reading just before it started this process, so
    [setup_ns] covers exec, runtime start and every load.  [preload]
    compiled script engines are loaded and dropped first (the reload
    probe). *)
let untraced w ~trace ~logdir ~spawn_ns ~preload =
  if preload > 0 then begin
    let scripts = Mini_bro.Bro_scripts.parse_all () in
    for _ = 1 to preload do
      ignore (Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Compiled scripts)
    done
  end;
  let loaded = Workload.load w ~logdir in
  let src = Hilti_net.Pcap.iosrc_of_file trace in
  let w0 = Gc.minor_words () in
  let t0 = Spans.now () in
  let stats = loaded.Workload.run src in
  ignore (loaded.Workload.finish ());
  let t1 = Spans.now () in
  let words = Gc.minor_words () -. w0 in
  say "setup_ns" "%d" (t0 - spawn_ns);
  say "rep_ns" "%d" (t1 - t0);
  say "packets" "%d" stats.Driver.packets;
  say "alloc_b_per_pkt" "%.17g" (words *. 8. /. float_of_int (max 1 stats.Driver.packets));
  say "peak_rss_kb" "%d" (peak_rss_kb ());
  say "digest" "%s" (Workload.log_digest w ~logdir)

(* Span names of pass A. *)
let run_span = 0
let script_span = 1
let log_span = 2
let span_names = [| "run"; "script"; "log" |]

(** Per-layer metrics the parent measures around the children. *)
let parent_measured = [ "trace.overhead_share"; "host.cal_ms"; "host.pps_median" ]

(** The runtime's pauses (GC, in practice) since [cursor] was created:
    the outermost runtime phases as (start, end) in ns on the spans'
    clock, and how many events the ring lost. *)
let runtime_pauses cursor =
  let depth = ref 0 and start = ref 0 and pauses = ref [] and lost = ref 0 in
  let ns t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t _ ->
        if !depth = 0 then start := ns t;
        incr depth)
      ~runtime_end:(fun _ t _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then pauses := (!start, ns t) :: !pauses
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  ignore (Runtime_events.read_poll cursor callbacks None);
  (!pauses, !lost)

type pass_a = {
  spans : Spans.t;
  stats : Driver.stats;
  rows : int;
  events : int;
  pauses : (int * int) list;
  lost : int;
  dns_kind : Driver.dns_kind option;
}

(* One pass A: load afresh, run, and collect the runtime's pauses from
   [cursor]. *)
let pass_a w ~trace ~logdir cursor =
  Gc.compact ();
  let sp = Spans.create span_names in
  let events = ref 0 in
  let timed_sink (s : Events.sink) =
    { Events.raise_event =
        (fun name args ->
          incr events;
          let id = Spans.enter sp script_span in
          s.Events.raise_event name args;
          Spans.close sp id);
      set_time = s.Events.set_time }
  in
  let in_log f =
    let id = Spans.enter sp log_span in
    f ();
    Spans.close sp id
  in
  (* Per packet on the firewall: no closure, which the driver would pay for. *)
  let wrap_emit emit line =
    let id = Spans.enter sp log_span in
    emit line;
    Spans.close sp id
  in
  let hooks = { Workload.wrap_sink = timed_sink; wrap_emit; in_log } in
  let loaded = Workload.load ~hooks w ~logdir in
  let src = Hilti_net.Pcap.iosrc_of_file trace in
  let root = Spans.enter sp run_span in
  let stats = loaded.Workload.run src in
  let rows = loaded.Workload.finish () in
  Spans.close sp root;
  let pauses, lost = runtime_pauses cursor in
  { spans = sp; stats; rows; events = !events; pauses; lost; dns_kind = loaded.Workload.dns_kind }

(** The number of pass-A runs, and of pass-B rounds between them. *)
let passes = 5

(** Pass A runs the real driver over the same calls as {!untraced}, with
    spans on two of the boundaries the caller hands it: the event sink's
    [raise_event] and the log writes (or firewall emits).  The packet
    source and the sink's [set_time] are left unwrapped — a span costs
    more than a pcap read or a clock update — and the source is replayed
    in pass B instead.  GC pauses are taken out of the span they
    interrupt and reported as their own layer.  Pass A runs {!passes}
    times, each with everything loaded afresh, alternating with rounds of
    pass B ({!Replay}); the fastest pass-A run and each layer's fastest
    replay count, so that both passes see the host in its fastest state.
    Prints every per-layer metric except the ones the parent measures. *)
let traced w ~trace ~logdir ~chrome =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let first = pass_a w ~trace ~logdir cursor in
  let prepared = Replay.prepare w ~dns_kind:first.dns_kind ~trace in
  let runs = ref [ first ] and rounds = ref [ Replay.round prepared ] in
  for _ = 2 to passes do
    runs := pass_a w ~trace ~logdir cursor :: !runs;
    rounds := Replay.round prepared :: !rounds
  done;
  Runtime_events.free_cursor cursor;
  let runs = !runs in
  let a =
    List.fold_left
      (fun best r -> if Spans.total r.spans < Spans.total best.spans then r else best)
      (List.hd runs) runs
  in
  let sp = a.spans and stats = a.stats in
  let outside, inside = Spans.calibrate () in
  let packets = stats.Driver.packets in
  Spans.write_chrome sp ~limit:20_000 chrome;
  let bd = Spans.breakdown ~outside ~inside ~pauses:a.pauses sp in
  let self_ns = bd.Spans.self_ns and self_words = bd.Spans.self_words in
  let b = Replay.result prepared !rounds in
  let per_pkt x = x /. float_of_int (max 1 packets) in
  let layer name =
    match List.find_opt (fun (n, _, _) -> n = name) b.Replay.layers with
    | Some (_, ns, words) -> (float_of_int ns, words)
    | None -> (0., 0.)
  in
  let span_layer i = (float_of_int self_ns.(i), self_words.(i)) in
  let plus (a, b) (c, d) = (a +. c, b +. d) in
  let value name =
    match name with
    | "script" -> span_layer script_span
    | "log" -> plus (span_layer log_span) (layer "log")
    | "driver" -> span_layer run_span
    | l -> layer l
  in
  List.iter
    (fun l ->
      let ns, words = value l in
      say "metric" "%s.ns_per_pkt %.17g" l (per_pkt ns);
      say "metric" "%s.alloc_b_per_pkt %.17g" l (per_pkt (words *. 8.)))
    Metrics.layers;
  say "metric" "gc.ns_per_pkt %.17g" (per_pkt (float_of_int bd.Spans.pause_ns));
  let pass_b_ns = List.fold_left (fun s (_, ns, _) -> s + ns) 0 b.Replay.layers in
  let counts =
    b.Replay.counts
    @ [ ("timers.evicted", float_of_int stats.Driver.evicted);
        ("script.events_per_pkt", per_pkt (float_of_int a.events));
        ("log.rows", float_of_int a.rows);
        ( "driver.unattributed_share",
          1. -. (float_of_int pass_b_ns /. float_of_int (max 1 self_ns.(run_span))) ) ]
  in
  (* A layer the workload does not use counts 0. *)
  List.iter
    (fun (name, _) ->
      if not (List.mem name parent_measured) then
        say "metric" "%s %.17g" name (Option.value ~default:0. (List.assoc_opt name counts)))
    Metrics.counts;
  say "packets" "%d" packets;
  say "records" "%d" b.Replay.records;
  say "walked" "%s" (String.concat "," (List.map string_of_int b.Replay.walked));
  say "total_ns" "%d" (Spans.total sp);
  say "self_sum_ns" "%d" (Array.fold_left ( + ) bd.Spans.pause_ns self_ns + bd.Spans.trace_ns);
  say "lost_events" "%d" (List.fold_left (fun k r -> k + r.lost) 0 runs);
  say "digest" "%s" (Workload.log_digest w ~logdir)
