(** Export of scraped metrics as JSONL and Prometheus text, and of trace
    rings as Chrome trace-event JSON.

    An exporter owns a filename prefix.  Each [scrape] appends one JSON
    line (a timestamped snapshot of every metric) to [prefix.metrics.jsonl]
    and atomically rewrites [prefix.prom] with the Prometheus text
    exposition of the same snapshot; [close] takes a final scrape and, if
    tracing was enabled, writes [prefix.trace.json].  Periodic driving is
    the caller's business: the analyzer driver arms a [Timer_mgr] timer
    that calls [scrape] at the configured interval (this module must not
    depend on [hilti_rt], which it instruments). *)

(** Write [content] to [path] atomically: temp file in the same directory,
    then rename.  An interrupted run can never leave a truncated file. *)
let write_file_atomic path content =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let oc = open_out tmp in
  let ok =
    try
      output_string oc content;
      close_out oc;
      true
    with e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  in
  ignore ok;
  Sys.rename tmp path

let json_escape = Trace.json_escape

let json_of_sample (s : Metrics.sample) =
  let label =
    match s.s_label with
    | None -> ""
    | Some (k, v) -> Printf.sprintf {|,"label":{"%s":"%s"}|} (json_escape k) (json_escape v)
  in
  match s.s_value with
  | Metrics.V_counter v ->
      Printf.sprintf {|{"name":"%s","type":"counter","value":%d%s}|}
        (json_escape s.s_name) v label
  | Metrics.V_gauge v ->
      Printf.sprintf {|{"name":"%s","type":"gauge","value":%g%s}|}
        (json_escape s.s_name) v label
  | Metrics.V_histogram h ->
      let b = Buffer.create 128 in
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            if Buffer.length b > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf {|"%s":%d|} (Metrics.bucket_le i) n)
          end)
        h.Metrics.buckets;
      Printf.sprintf
        {|{"name":"%s","type":"histogram","count":%d,"sum":%d,"buckets":{%s}%s}|}
        (json_escape s.s_name) h.Metrics.count h.Metrics.sum (Buffer.contents b)
        label

(** One scrape rendered as a single JSON line: timestamp + samples. *)
let jsonl_line ~ts_ns samples =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf {|{"ts_ns":%Ld,"metrics":[|} ts_ns);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (json_of_sample s))
    samples;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let prom_label = function
  | None -> ""
  | Some (k, v) -> Printf.sprintf "{%s=\"%s\"}" k (String.escaped v)

let prom_label_with extra = function
  | None -> Printf.sprintf "{%s}" extra
  | Some (k, v) -> Printf.sprintf "{%s=\"%s\",%s}" k (String.escaped v) extra

(** Prometheus text exposition of one scrape.  HELP/TYPE headers are
    emitted once per metric family, histograms as cumulative
    [_bucket{le=...}] plus [_sum] and [_count]. *)
let prometheus_text samples =
  let b = Buffer.create 2048 in
  let seen_header = Hashtbl.create 16 in
  let header name help ty =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty)
    end
  in
  List.iter
    (fun (s : Metrics.sample) ->
      match s.s_value with
      | Metrics.V_counter v ->
          header s.s_name s.s_help "counter";
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" s.s_name (prom_label s.s_label) v)
      | Metrics.V_gauge v ->
          header s.s_name s.s_help "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s%s %g\n" s.s_name (prom_label s.s_label) v)
      | Metrics.V_histogram h ->
          header s.s_name s.s_help "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              cum := !cum + n;
              (* Collapse empty interior buckets; always emit +Inf. *)
              if n > 0 || i = Metrics.nbuckets - 1 then
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" s.s_name
                     (prom_label_with
                        (Printf.sprintf "le=\"%s\"" (Metrics.bucket_le i))
                        s.s_label)
                     !cum))
            h.Metrics.buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %d\n" s.s_name (prom_label s.s_label)
               h.Metrics.sum);
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" s.s_name (prom_label s.s_label)
               h.Metrics.count))
    samples;
  Buffer.contents b

type t = {
  prefix : string;
  jsonl : out_channel;
  mutable scrapes : int;
  mutable closed : bool;
}

(** Create an exporter writing [prefix.metrics.jsonl] (truncated) and,
    on each scrape, [prefix.prom]. *)
let create ~prefix =
  { prefix; jsonl = open_out (prefix ^ ".metrics.jsonl"); scrapes = 0; closed = false }

(** Snapshot the registry now: append a JSONL line, rewrite the .prom
    file atomically. *)
let scrape ?ts_ns t =
  if not t.closed then begin
    let ts_ns =
      (* A point in time, not a duration: wall-clock epoch nanoseconds. *)
      match ts_ns with
      | Some ts -> ts
      | None -> Int64.of_float (Unix.gettimeofday () *. 1e9)
    in
    let samples = Metrics.scrape () in
    output_string t.jsonl (jsonl_line ~ts_ns samples);
    flush t.jsonl;
    write_file_atomic (t.prefix ^ ".prom") (prometheus_text samples);
    t.scrapes <- t.scrapes + 1
  end

(** Final scrape, then close.  Writes [prefix.trace.json] when tracing
    captured any events. *)
let close ?ts_ns t =
  if not t.closed then begin
    scrape ?ts_ns t;
    t.closed <- true;
    close_out t.jsonl;
    if Trace.events () <> [] then
      write_file_atomic (t.prefix ^ ".trace.json") (Trace.to_chrome_json ())
  end
