(** Every metric the benchmark reports, with its unit.  BENCHMARK.json
    lists the same names. *)

(** Untraced runs: what an operator of mini-bro sees. *)
let end_to_end = [ ("pps_ref", "pkt/s"); ("peak_rss_mib", "MiB"); ("setup_s", "s") ]

(** Pipeline layers, in packet order.  [script] and [log] are spans
    around the event sink and the log writes in the traced run; [driver]
    is the rest of that run, GC pauses excepted.  The other layers are
    replayed on their own, and [iosrc] to [fw] (and the firewall's
    [Driver.fw_line], counted in [log]) break [driver] down. *)
let layers =
  [ "iosrc"; "decode"; "flow"; "timers"; "reassembly"; "parse"; "glue"; "script"; "log"; "fw";
    "driver" ]

(** Layer counts: shares of packets or work, and plain counts. *)
let counts =
  [ ("decode.slow_path_share", "ratio");
    ("flow.new_share", "ratio");
    ("timers.evicted", "count");
    ("reassembly.out_of_order_share", "ratio");
    ("parse.fail_share", "ratio");
    ("script.events_per_pkt", "1/pkt");
    ("log.rows", "count");
    ("driver.unattributed_share", "ratio");
    ("trace.overhead_share", "ratio");
    ("host.cal_ms", "ms");
    ("host.pps_median", "pkt/s") ]

(** The traced run's metrics.  [gc] is the runtime's pauses, taken out of
    whichever layer's span they interrupted. *)
let per_layer =
  List.concat_map (fun l -> [ (l ^ ".ns_per_pkt", "ns"); (l ^ ".alloc_b_per_pkt", "B") ]) layers
  @ (("gc.ns_per_pkt", "ns") :: counts)

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Metrics.unit_of: " ^ name)

(** A number as measured, in as few digits as read back exactly. *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15
