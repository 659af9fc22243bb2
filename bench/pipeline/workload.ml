(** The four workloads: how each trace is generated from a seed, what its
    logs must contain, and the pipeline mini-bro runs over it.

    Every workload is closed-loop offline trace analysis: the driver pulls
    the next batch of packets only after it has finished the current one. *)

open Hilti_analyzers
module Bro_log = Mini_bro.Bro_log

type t = Dns_std | Dns_hilti | Http_std | Firewall

let all = [ Dns_std; Dns_hilti; Http_std; Firewall ]

let name = function
  | Dns_std -> "dns-std"
  | Dns_hilti -> "dns-hilti"
  | Http_std -> "http-std"
  | Firewall -> "firewall"

let of_name s = List.find_opt (fun w -> name w = s) all

(* ---- Traces ------------------------------------------------------------------- *)

(** Trace sizes.  [quick] is the self-test's: tiny, but every code path
    still runs. *)
let dns_transactions ~quick = function
  | Dns_std | Firewall -> if quick then 400 else 20_000
  | Dns_hilti -> if quick then 150 else 6_000
  | Http_std -> 0

let http_sessions ~quick = function
  | Http_std | Firewall -> if quick then 40 else 1_500
  | Dns_std | Dns_hilti -> 0

let dns_cfg ~seed n = { Hilti_traces.Dns_gen.default with transactions = n; seed }

(* The firewall mix starts both generators at the same instant, so DNS and
   HTTP packets interleave instead of following one another. *)
let http_cfg ~seed n =
  { Hilti_traces.Http_gen.default with
    sessions = n;
    seed;
    start_ts = Hilti_traces.Dns_gen.default.start_ts }

(** A one-line description of the trace, also its cache key. *)
let trace_spec ~quick ~seed w =
  Printf.sprintf "%s seed=%d dns_transactions=%d http_sessions=%d" (name w) seed
    (dns_transactions ~quick w) (http_sessions ~quick w)

(** The §6.3 rule set. *)
let fw_rules_text =
  {|
10.2.0.0/16 192.168.200.0/24 allow
192.168.200.2/32 * allow
10.2.7.0/24 * deny
|}

let idle_timeout = Hilti_types.Interval_ns.of_msecs 50

(* ---- What the logs must contain -------------------------------------------- *)

(** The generator's ground truth, reduced to what the logs must show.
    [Rows] is the sorted projection of one log onto some columns; [Exact]
    is the MD5 of the whole file. *)
type expect =
  | Rows of { stream : string; columns : string list; count : int; md5 : string }
  | Exact of { stream : string; count : int; md5 : string }

let rows_md5 rows = Digest.to_hex (Digest.string (String.concat "\n" rows))

let rows_expect stream columns rows =
  let rows = List.sort compare rows in
  Rows { stream; columns; count = List.length rows; md5 = rows_md5 rows }

(* Every DNS transaction's reply is logged on its connection, with its
   rcode.  The query column is not compared: the driver's idle clock moves
   once per batch, so a connection can be evicted between query and reply,
   and the reply then logs no query. *)
let dns_expect (txs : Hilti_traces.Dns_gen.transaction list) =
  let open Hilti_traces.Dns_gen in
  let addr = Hilti_types.Addr.to_string in
  rows_expect "dns" [ "orig_h"; "orig_p"; "resp_h"; "resp_p"; "rcode" ]
    (List.map
       (fun tx ->
         Printf.sprintf "%s\t%d/udp\t%s\t53/udp\t%d" (addr tx.client) tx.cport
           (addr tx.resolver) tx.reply.rcode)
       txs)

(* Every HTTP transaction is logged once, with its request and status. *)
let http_expect txs =
  let open Hilti_traces.Http_gen in
  rows_expect "http" [ "method"; "host"; "uri"; "status_code" ]
    (List.concat_map
       (fun (_, session) ->
         List.map
           (fun tx -> Printf.sprintf "%s\t%s\t%s\t%d" tx.meth tx.host tx.uri tx.status)
           session)
       txs)

(* The firewall log must equal the independent reference matcher's
   decisions over the packets as the pcap holds them (microsecond
   timestamps), line for line. *)
let fw_expect path =
  let reference = Hilti_firewall.Fw_rules.(reference (parse_rules fw_rules_text)) in
  let b = Buffer.create (1 lsl 20) and count = ref 0 in
  List.iter
    (fun (r : Hilti_net.Pcap.record) ->
      match Hilti_net.Packet.peek_addrs r.Hilti_net.Pcap.data with
      | Some (src, dst) ->
          let ts = r.Hilti_net.Pcap.ts in
          incr count;
          Buffer.add_string b
            (Driver.fw_line ~ts ~src ~dst
               (Hilti_firewall.Fw_rules.match_packet reference ~ts ~src ~dst));
          Buffer.add_char b '\n'
      | None -> ())
    (Hilti_net.Pcap.read_file path);
  Exact { stream = "fw"; count = !count; md5 = Digest.to_hex (Digest.string (Buffer.contents b)) }

(** Write [w]'s trace for [seed] to the pcap file [path]; returns what the
    logs must contain. *)
let generate ~quick ~seed w ~path : expect =
  let write records = Hilti_net.Pcap.write_file path records in
  match w with
  | Dns_std | Dns_hilti ->
      let t = Hilti_traces.Dns_gen.generate (dns_cfg ~seed (dns_transactions ~quick w)) in
      write t.Hilti_traces.Dns_gen.records;
      dns_expect t.Hilti_traces.Dns_gen.transactions
  | Http_std ->
      let t = Hilti_traces.Http_gen.generate (http_cfg ~seed (http_sessions ~quick w)) in
      write t.Hilti_traces.Http_gen.records;
      http_expect t.Hilti_traces.Http_gen.transactions
  | Firewall ->
      write
        (Hilti_traces.Mix.generate
           { Hilti_traces.Mix.http = Some (http_cfg ~seed (http_sessions ~quick w));
             dns = Some (dns_cfg ~seed (dns_transactions ~quick w));
             ssh = None });
      fw_expect path

let expect_to_string = function
  | Rows { stream; columns; count; md5 } ->
      Printf.sprintf "rows %s %s %d %s" stream (String.concat "," columns) count md5
  | Exact { stream; count; md5 } -> Printf.sprintf "exact %s - %d %s" stream count md5

let expect_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "rows"; stream; cols; count; md5 ] ->
      Rows { stream; columns = String.split_on_char ',' cols; count = int_of_string count; md5 }
  | [ "exact"; stream; "-"; count; md5 ] -> Exact { stream; count = int_of_string count; md5 }
  | _ -> failwith ("bad expectation: " ^ s)

(** Log digests ({!log_digest}) of the default seed's full-size traces,
    recorded when the benchmark was defined, where mini-bro wrote the
    same bytes: these logs must stay byte-identical. *)
let recorded =
  [ (Dns_std, "d70b5c5e65a4ff963712893222680afb");
    (Dns_hilti, "ac5ad0ddaf9211041009bf6a81dd60b0");
    (Http_std, "43eb157b364a1900f80965d659bec028");
    (Firewall, "a7b78400bdbb98aab60e44b16a90273b") ]

let default_seed = 1

let recorded_digest ~seed w = if seed = default_seed then List.assoc_opt w recorded else None

(* ---- Checking logs ------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

(** [None] when the logs in [logdir] show what [e] demands, otherwise
    what is wrong. *)
let check_logs e ~logdir =
  let path stream = Filename.concat logdir (stream ^ ".log") in
  let rows_check stream columns count md5 =
    match read_lines (path stream) with
    | header :: rows ->
        let fields = List.tl (String.split_on_char '\t' header) in
        let index col =
          let rec go i = function
            | [] -> failwith (Printf.sprintf "%s.log has no column %s" stream col)
            | c :: _ when c = col -> i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 fields
        in
        let idx = List.map index columns in
        let project row =
          let cells = Array.of_list (String.split_on_char '\t' row) in
          String.concat "\t" (List.map (fun i -> cells.(i)) idx)
        in
        let got = List.sort compare (List.map project rows) in
        if List.length got <> count || rows_md5 got <> md5 then
          Some
            (Printf.sprintf "%s.log: %d rows do not match the %d generated transactions" stream
               (List.length got) count)
        else None
    | [] -> Some (stream ^ ".log is empty")
  in
  try
    match e with
    | Exact { stream; count; md5 } ->
        let lines = read_lines (path stream) in
        let got = Digest.to_hex (Digest.file (path stream)) in
        if List.length lines <> count || got <> md5 then
          Some
            (Printf.sprintf "%s.log: %d lines (md5 %s), reference %d lines (md5 %s)" stream
               (List.length lines) got count md5)
        else None
    | Rows { stream; columns; count; md5 } -> rows_check stream columns count md5
  with Sys_error msg -> Some msg

(* ---- The pipeline ---------------------------------------------------------------- *)

(** The log streams each workload writes. *)
let streams = function
  | Dns_std | Dns_hilti -> [ "dns" ]
  | Http_std -> [ "http"; "files" ]
  | Firewall -> [ "fw" ]

(** One digest over every log file of [w], in stream order. *)
let log_digest w ~logdir =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun s -> Digest.file (Filename.concat logdir (s ^ ".log")))
             (streams w))))

(** Where a traced run puts its spans: around the event sink, around each
    log write or firewall emit.  The untraced run uses {!no_hooks}. *)
type hooks = {
  wrap_sink : Events.sink -> Events.sink;
  wrap_emit : (string -> unit) -> string -> unit;
  in_log : (unit -> unit) -> unit;
}

let no_hooks = { wrap_sink = Fun.id; wrap_emit = Fun.id; in_log = (fun f -> f ()) }

type loaded = {
  run : Hilti_rt.Iosrc.t -> Driver.stats;  (** the driver over one source *)
  finish : unit -> int;  (** write the logs; rows written *)
  dns_kind : Driver.dns_kind option;  (** the DNS parser [run] uses *)
}

(** Load everything mini-bro loads before the first packet — scripts,
    engine, parser or firewall — mirroring [Driver.evaluate_src]. *)
let load ?(hooks = no_hooks) w ~logdir : loaded =
  let log_path s = Filename.concat logdir (s ^ ".log") in
  match w with
  | Dns_std | Dns_hilti | Http_std ->
      Hilti_rt.Profiler.reset_all ();
      let scripts = Mini_bro.Bro_scripts.parse_all () in
      let logger = Bro_log.create () in
      Mini_bro.Bro_scripts.setup_logs logger;
      let mode =
        if w = Dns_hilti then Mini_bro.Bro_engine.Compiled else Mini_bro.Bro_engine.Interpreted
      in
      let engine = Mini_bro.Bro_engine.load ~logger mode scripts in
      Mini_bro.Bro_engine.set_print_sink engine (fun _ -> ());
      let sink = hooks.wrap_sink (Events.engine_sink engine) in
      let dns_kind =
        match w with
        | Dns_hilti -> Some (Driver.Dns_pac (Dns_pac.load ()))
        | Dns_std -> Some Driver.Dns_std
        | _ -> None
      in
      let run =
        match dns_kind with
        | Some kind -> fun src -> Driver.run_dns_src ~kind ~sink ~idle_timeout src
        | None -> fun src -> Driver.run_http_src ~kind:Driver.Http_std ~sink ~idle_timeout src
      in
      let finish () =
        List.fold_left
          (fun rows s ->
            hooks.in_log (fun () -> Bro_log.write_file logger s (log_path s));
            rows + Bro_log.row_count logger s)
          0 (streams w)
      in
      { run; finish; dns_kind }
  | Firewall ->
      let fw = Hilti_firewall.Fw_hilti.load (Hilti_firewall.Fw_rules.parse_rules fw_rules_text) in
      let oc = open_out_bin (log_path "fw") in
      let lines = ref 0 in
      let emit =
        hooks.wrap_emit (fun line ->
            incr lines;
            output_string oc line;
            output_char oc '\n')
      in
      let run src = Driver.run_firewall_src ~fw ~emit src in
      let finish () =
        hooks.in_log (fun () -> close_out oc);
        !lines
      in
      { run; finish; dns_kind = None }
