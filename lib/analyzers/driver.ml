(** The analysis driver: the Bro-core equivalent that feeds trace packets
    through flow tracking, TCP reassembly, and a protocol parser (standard
    or BinPAC++), raising events into a Mini-Bro engine (§6.1's pipeline).

    All entry points fold over a {!Hilti_rt.Iosrc.t} — the canonical packet
    interface; an in-memory trace goes through {!Pcap.iosrc_of_records} —
    so the pipeline's state is bounded by the live connections, not by the
    trace length: packets are pulled a batch at a time, consumed parser
    input is trimmed, and idle connections can be evicted through
    {!Flow_table} timeouts ([?idle_timeout]).

    Every runner is one packet loop, {!Hilti_par.Shard_plane.run}: a serial
    run is its zero-shard case, so the serial and sharded paths batch,
    order and time packets the same way.  HTTP, MQTT, FTP and
    [.evt]-configured analyzers share one TCP stream runner
    ({!run_tcp_src}); a protocol only supplies the per-direction parsers,
    and every BinPAC++ one is a {!Binpacxx.Runtime} session whose hooks
    raise its events.  DNS and the firewall shard over domains on the same
    loop.  {!run_dns_src_unbatched} is the one loop outside it: the
    per-packet reference oracle for tests and benchmarks.

    Component costs are recorded under the profilers
    ["analyzer/parse"] (protocol parsing), ["analyzer/script"] (event
    dispatch = script execution), and ["bro/glue"] (value conversion,
    charged inside {!Mini_bro.Bro_val}) — the Figure 9/10 breakdown. *)

open Hilti_net
open Mini_bro

type http_kind = Http_std | Http_pac of Http_pac.t
type dns_kind = Dns_std | Dns_pac of Dns_pac.t
type mqtt_kind = Mqtt_std | Mqtt_pac of Mqtt_pac.t
type ftp_kind = Ftp_std | Ftp_pac of Ftp_pac.t

type stats = {
  mutable packets : int;
  mutable connections : int;
  mutable events : int;
  mutable evicted : int;  (** connections torn down by idle timeout *)
}

let parse_profiler = Hilti_rt.Profiler.create "analyzer/parse"
let script_profiler = Hilti_rt.Profiler.create "analyzer/script"

let m_events =
  Hilti_obs.Metrics.counter "events_raised"
    ~help:"Events dispatched into the script engine"

let m_parse_errors =
  Hilti_obs.Metrics.counter "parse_errors"
    ~help:"Datagrams rejected by a protocol parser"

let m_bytes_trimmed =
  Hilti_obs.Metrics.counter "bytes_trimmed"
    ~help:"Consumed parser input released by Hbytes.trim"

(* The bytes layer sits below the metrics library, so it exposes a hook
   instead of counting trims itself; the driver wires it up once. *)
let () =
  Hilti_types.Hbytes.set_on_trim (fun n -> Hilti_obs.Metrics.add m_bytes_trimmed n)

(* Wrap a sink so every event dispatch is timed as "script execution";
   exclusive timing pauses the parse profiler when events fire from inside
   a parse, keeping the components additive. *)
let profiled_sink (sink : Events.sink) (stats : stats) : Events.sink =
  {
    Events.raise_event =
      (fun name args ->
        stats.events <- stats.events + 1;
        Hilti_obs.Metrics.incr m_events;
        Hilti_rt.Profiler.time_exclusive script_profiler (fun () ->
            sink.Events.raise_event name args));
    set_time = sink.Events.set_time;
  }

(* Accounting-only sink for the batched loops: events are still counted,
   but the script profiler runs once per batch (the plane's consume phase)
   instead of opening an exclusive span around every dispatch — the per-event
   clock reads are exactly the kind of per-packet obs cost batching is
   meant to amortize.  The events-raised metric is likewise deferred:
   dispatches bump a plain counter and the returned flush publishes the
   delta, which the runners call once per batch epoch (and once at end
   of stream).  Event content is unaffected. *)
let counted_sink (sink : Events.sink) (stats : stats) :
    Events.sink * (unit -> unit) =
  let pending = ref 0 in
  ( {
      Events.raise_event =
        (fun name args ->
          stats.events <- stats.events + 1;
          incr pending;
          sink.Events.raise_event name args);
      set_time = sink.Events.set_time;
    },
    fun () ->
      if !pending > 0 then begin
        Hilti_obs.Metrics.add m_events !pending;
        pending := 0
      end )

let in_parse f =
  Hilti_obs.Trace.with_span ~cat:"analyzer" "parse" (fun () ->
      Hilti_rt.Profiler.time parse_profiler f)

(* ---- Periodic stats export ---------------------------------------------------------- *)

(* A stats request is (interval of trace time, scrape callback); the driver
   arms a rearming timer on the run's timer manager, so exports line up
   with the trace clock exactly like HILTI's periodic profiler dumps. *)
type stats_export = Hilti_types.Interval_ns.t * (unit -> unit)

let arm_stats timer_mgr (stats : stats_export option) =
  match stats with
  | None -> ()
  | Some (ival, cb) ->
      let rec arm () =
        ignore
          (Hilti_rt.Timer_mgr.schedule_in timer_mgr
             (fun () ->
               cb ();
               arm ())
             ival)
      in
      arm ()

let fresh_stats () = { packets = 0; connections = 0; events = 0; evicted = 0 }

(* ---- Session scaffold -------------------------------------------------------------- *)

(* Every protocol runner used to hand-wire the same trio — a timer manager,
   an optional stats-export timer, and a flow table with optional idle
   eviction.  One scaffold now serves the serial paths and the collector
   side of the sharded data plane, so the two cannot drift. *)
type 'st session = {
  ss_table : 'st Flow_table.t;
  ss_tick : Hilti_types.Time_ns.t -> unit;
      (** advance trace time (timers, exports); cheap no-op when neither
          idle eviction nor stats export is configured *)
}

let make_session ?idle_timeout ?(stats_export : stats_export option) ?on_evict
    (fresh : Flow.t -> Hilti_types.Time_ns.t -> 'st) : 'st session =
  let timer_mgr = Hilti_rt.Timer_mgr.create () in
  arm_stats timer_mgr stats_export;
  let table =
    match idle_timeout with
    | Some ival -> Flow_table.create ~timeout:ival ~timer_mgr fresh
    | None -> Flow_table.create fresh
  in
  (match on_evict with Some f -> Flow_table.on_remove table f | None -> ());
  let tick =
    if idle_timeout <> None || stats_export <> None then fun ts ->
      ignore (Hilti_rt.Timer_mgr.advance timer_mgr ts)
    else fun _ -> ()
  in
  { ss_table = table; ss_tick = tick }

(* ---- TCP streams: HTTP, MQTT, FTP --------------------------------------------------- *)

(** One direction of a TCP connection as the stream runner sees its parser:
    each reassembled slice [s.[off, off + len)] goes to [feed s off len]
    (the slice may lie in a captured frame; the parser copies it into its
    stream buffer), the end of the stream to [eof], and [failed] reports
    whether the parser has gone dead. *)
type tcp_side = {
  feed : string -> int -> int -> unit;
  eof : unit -> unit;
  failed : unit -> bool;
}

(** A protocol's parser constructor.  It is applied to the run's event sink
    once per run, then to each new connection's value and flow; it returns
    the (originator, responder) sides, or [None] for a flow it does not
    parse (which is still tracked and still raises connection events).
    Constructors build the originator side first: a BinPAC++ session
    starts its parse fiber on creation. *)
type tcp_parsers =
  Events.sink -> Bro_val.t -> Flow.t -> (tcp_side * tcp_side) option

type tcp_dir = {
  side : tcp_side;
  rs : Reassembly.t;
  mutable err_counted : bool;
      (** [m_parse_errors] counts a dead direction once: stream parsers
          report failure on every feed once dead, so each direction
          carries a latch *)
}

type tcp_conn = {
  conn_val : Bro_val.t;
  dirs : (tcp_dir * tcp_dir) option;  (** originator, responder *)
  seq : int;  (** creation order, for the deterministic end-of-trace flush *)
  mutable established : bool;
}

let tcp_dir side =
  {
    side;
    rs = Reassembly.create_sub (fun s off len -> in_parse (fun () -> side.feed s off len));
    err_counted = false;
  }

let note_failed d =
  if (not d.err_counted) && d.side.failed () then begin
    d.err_counted <- true;
    Hilti_obs.Metrics.incr m_parse_errors
  end

(* A BinPAC++ session as a stream side; its hooks already raise events. *)
let pac_side (s : Binpacxx.Runtime.session) : tcp_side =
  {
    feed = (fun data off len -> ignore (Binpacxx.Runtime.feed_sub s data off len));
    eof = (fun () -> ignore (Binpacxx.Runtime.finish s));
    failed =
      (fun () ->
        match Binpacxx.Runtime.status s with
        | Binpacxx.Runtime.Failed _ -> true
        | _ -> false);
  }

(* The TCP runner's batch.  A batch's peeked segments are headers and
   offsets into frames the batch buffer holds anyway; no payload is copied
   before the parser's stream buffer.  The batch is still short: at the
   DNS batch (256) http-std read a median 4.3% lower [pps_ref] and
   +1.5 MiB peak RSS (4 interleaved 20 s pairs), a long batch keeping more
   frames and headers live across minor collections. *)
let tcp_batch = 16

(** Stream a TCP source through the pipeline on the packet loop at zero
    shards ({!Hilti_par.Shard_plane.run}): flow tracking, per-direction
    reassembly into the sides [parsers] builds, [connection_established] on
    the responder's SYN+ACK and [connection_state_remove] at teardown.
    With [?idle_timeout], connections idle for that long (in trace time)
    are flushed and evicted as the clock advances, keeping the session
    table bounded by the live flows; without it the table drains only at
    end of trace, in creation order. *)
let run_tcp_src ~(parsers : tcp_parsers) ~(sink : Events.sink) ?idle_timeout
    ?(stats_export : stats_export option) (src : Hilti_rt.Iosrc.t) : stats =
  let stats = fresh_stats () in
  let sink = profiled_sink sink stats in
  let parsers = parsers sink in
  sink.Events.raise_event "bro_init" [];
  let uid_counter = ref 0 in
  let fresh flow ts =
    incr uid_counter;
    stats.connections <- stats.connections + 1;
    let uid = "C" ^ string_of_int !uid_counter in
    let conn_val = Events.connection_val ~uid ~flow ~start_time:ts in
    let dirs =
      Option.map
        (fun (orig, resp) -> (tcp_dir orig, tcp_dir resp))
        (parsers conn_val flow)
    in
    { conn_val; dirs; seq = !uid_counter; established = false }
  in
  let note_sides c =
    match c.dirs with
    | Some (orig, resp) ->
        note_failed orig;
        note_failed resp
    | None -> ()
  in
  let finish c =
    (match c.dirs with
    | Some (orig, resp) ->
        Reassembly.finish orig.rs;
        Reassembly.finish resp.rs;
        in_parse orig.side.eof;
        in_parse resp.side.eof
    | None -> ());
    note_sides c;
    Events.raise_connection_state_remove sink c.conn_val
  in
  let session =
    make_session ?idle_timeout ?stats_export
      ~on_evict:(fun conn ->
        stats.evicted <- stats.evicted + 1;
        finish conn.Flow_table.state)
      fresh
  in
  (* The header peek is the pure per-packet pass: each segment's payload
     stays a slice of its frame until reassembly hands it to the parser.
     The trace clock still advances per packet, in [before], so eviction
     points do not depend on the batch.  Parse and event spans nest here,
     so the runner times them itself ([in_parse], [profiled_sink]). *)
  ignore
    (Hilti_par.Shard_plane.run ~shards:0 ~batch:tcp_batch ~timing:Untimed
       ~shard_of:(fun _ -> 0)
       ~init:ignore
       ~process:(fun () ~seq:_ (p : Hilti_rt.Iosrc.packet) ->
         match Packet.peek_tcp p.Hilti_rt.Iosrc.data with
         | Some seg -> Some (p, seg)
         | None -> None)
       ~before:(fun ~seq:_ ~ts ->
         stats.packets <- stats.packets + 1;
         if idle_timeout <> None then sink.Events.set_time ts;
         session.ss_tick ts)
       ~consume:(fun ~seq:_ ((p : Hilti_rt.Iosrc.packet), (flow, tcp, off, len)) ->
         let ts = p.Hilti_rt.Iosrc.ts in
         sink.Events.set_time ts;
         let conn, _ = Flow_table.lookup session.ss_table ~ts flow in
         let c = conn.Flow_table.state in
         let from_orig = Flow.equal flow conn.Flow_table.flow in
         if
           (not c.established)
           && (not from_orig)
           && Tcp.has_flag tcp Tcp.flag_syn
           && Tcp.has_flag tcp Tcp.flag_ack
         then begin
           c.established <- true;
           Events.raise_connection_established sink c.conn_val
         end;
         (match c.dirs with
         | Some (orig, resp) ->
             Reassembly.segment_sub
               (if from_orig then orig.rs else resp.rs)
               ~seq:tcp.Tcp.seq
               ~syn:(Tcp.has_flag tcp Tcp.flag_syn)
               ~fin:(Tcp.has_flag tcp Tcp.flag_fin)
               p.Hilti_rt.Iosrc.data off len
         | None -> ());
         note_sides c)
       src);
  (* Trace over: flush the still-live connections in creation order. *)
  let live =
    Flow_table.fold (fun conn acc -> conn.Flow_table.state :: acc) session.ss_table []
  in
  List.iter finish (List.sort (fun a b -> compare a.seq b.seq) live);
  sink.Events.raise_event "bro_done" [];
  stats

(* ---- HTTP ------------------------------------------------------------------------ *)

let http_parsers (kind : http_kind) : tcp_parsers =
 fun sink conn_val _flow ->
    let side ~is_request =
      match kind with
      | Http_std ->
          let p =
            Http_std.create ~is_request
              ~on_request:(fun r -> Events.raise_http_request sink conn_val r)
              ~on_reply:(fun r -> Events.raise_http_reply sink conn_val r)
          in
          { feed = Http_std.feed_sub p;
            eof = (fun () -> Http_std.eof p);
            failed = (fun () -> Http_std.failed p) }
      | Http_pac t -> pac_side (Http_pac.session t ~sink ~conn:conn_val ~is_request)
    in
    let req = side ~is_request:true in
    Some (req, side ~is_request:false)

(** Stream an HTTP source through the pipeline ({!run_tcp_src}). *)
let run_http_src ~(kind : http_kind) ~(sink : Events.sink) ?idle_timeout
    ?(stats_export : stats_export option) (src : Hilti_rt.Iosrc.t) : stats =
  run_tcp_src ~parsers:(http_parsers kind) ~sink ?idle_timeout ?stats_export src

(* ---- MQTT ------------------------------------------------------------------------ *)

(* Control packets parsed per direction, raised on the owning connection. *)
let mqtt_parsers (kind : mqtt_kind) : tcp_parsers =
 fun sink conn_val _flow ->
  let on_packet ev = Events.raise_mqtt sink conn_val ev in
  let side () =
    match kind with
    | Mqtt_std ->
        let p = Mqtt_std.create ~on_packet in
        { feed = Mqtt_std.feed_sub p;
          eof = (fun () -> Mqtt_std.eof p);
          failed = (fun () -> Mqtt_std.failed p <> None) }
    | Mqtt_pac t -> pac_side (Mqtt_pac.session t ~on_packet)
  in
  let orig = side () in
  Some (orig, side ())

(* ---- FTP ------------------------------------------------------------------------- *)

(* One field of a host,port sextet: 1-3 ASCII decimal digits, at most 255. *)
let sextet_field s =
  let n = String.length s in
  if n >= 1 && n <= 3 && String.for_all (fun c -> c >= '0' && c <= '9') s then
    let v = int_of_string s in
    if v <= 255 then Some v else None
  else None

(* "h1,h2,h3,h4,p1,p2" (RFC 959 PORT argument / 227 payload). *)
let parse_host_port (s : string) : (Hilti_types.Addr.t * int) option =
  match List.map sextet_field (String.split_on_char ',' (String.trim s)) with
  | [ Some a; Some b; Some c; Some d; Some p1; Some p2 ] ->
      Some (Hilti_types.Addr.of_ipv4_octets a b c d, (p1 lsl 8) lor p2)
  | _ -> None

(* The host,port sextet inside a 227 reply's parentheses. *)
let parse_pasv (text : string) : (Hilti_types.Addr.t * int) option =
  match (String.index_opt text '(', String.rindex_opt text ')') with
  | Some l, Some r when r > l ->
      parse_host_port (String.sub text (l + 1) (r - l - 1))
  | _ -> None

(** Control connections (port 21) get command/reply parsers; every other
    flow, data connections included, is tracked but not parsed.  PORT
    commands and 227 passive replies raise [ftp_data] with the announced
    endpoint on the control connection. *)
let ftp_parsers (kind : ftp_kind) : tcp_parsers =
 fun sink ->
  let announce conn_val (host, port) =
    Events.raise_ftp_data sink conn_val ~host ~port:(Hilti_types.Port.tcp port)
  in
  let on_control_event conn_val (ev : Events.ftp_event) =
    (match ev with
    | Events.F_request { Events.cmd; arg } when String.uppercase_ascii cmd = "PORT" ->
        Option.iter (announce conn_val) (parse_host_port arg)
    | Events.F_reply { Events.code = 227; msg } ->
        Option.iter (announce conn_val) (parse_pasv msg)
    | _ -> ());
    Events.raise_ftp sink conn_val ev
  in
  fun conn_val flow ->
    if
      Hilti_types.Port.number flow.Flow.dst_port = 21
      || Hilti_types.Port.number flow.Flow.src_port = 21
    then begin
      let on_event = on_control_event conn_val in
      let side ~is_command =
        match kind with
        | Ftp_std ->
            let p = Ftp_std.create ~is_command ~on_event in
            { feed = Ftp_std.feed_sub p;
              eof = (fun () -> Ftp_std.eof p);
              failed = (fun () -> Ftp_std.failed p <> None) }
        | Ftp_pac t -> pac_side (Ftp_pac.session t ~is_command ~on_event)
      in
      let commands = side ~is_command:true in
      Some (commands, side ~is_command:false)
    end
    else None

(* ---- Event-configured analyzers (Fig. 7) ------------------------------------------ *)

(** Flows on the [.evt] file's port get originator and responder sessions
    on its top unit, whose bindings raise the configured events; every
    other flow is tracked but not parsed. *)
let evt_parsers (l : Evt.loaded) : tcp_parsers =
 fun sink ->
  let port = Hilti_types.Port.number l.Evt.config.Evt.port in
  fun _conn_val flow ->
    if
      Hilti_types.Port.number flow.Flow.dst_port = port
      || Hilti_types.Port.number flow.Flow.src_port = port
    then begin
      let orig = pac_side (Evt.session l ~sink) in
      Some (orig, pac_side (Evt.session l ~sink))
    end
    else None

(* ---- DNS ------------------------------------------------------------------------- *)

type dns_outcome =
  | D_req of Events.dns_request
  | D_rep of Events.dns_reply
  | D_none  (* port-53 crud: still creates the connection *)

(* Extract the DNS-relevant view of a datagram: the connection oriented
   client -> resolver plus the UDP payload.  Pure per-packet work — it runs
   on a shard domain in the sharded plane. *)
let dns_datagram (p : Hilti_rt.Iosrc.packet) : (Flow.t * string) option =
  let ts = p.Hilti_rt.Iosrc.ts in
  match Packet.decode_opt ~ts p.Hilti_rt.Iosrc.data with
  | Some pkt -> (
      match (pkt.Packet.transport, Packet.flow pkt) with
      | Packet.UDP (udp, payload), Some flow ->
          let from_client = udp.Udp.dst_port = 53 in
          Some ((if from_client then flow else Flow.reverse flow), payload)
      | _ -> None)
  | None -> None

(* The zero-copy variant of [dns_datagram]: the payload stays a slice of
   the captured frame.  [Packet.peek_udp] runs the header walk that
   [dns_datagram]'s decode runs, so both accept the same frames, IPv6
   included. *)
let dns_slice (p : Hilti_rt.Iosrc.packet) :
    (Flow.t * Hilti_types.Hbytes.view) option =
  let data = p.Hilti_rt.Iosrc.data in
  match Packet.peek_udp data with
  | Some (flow, off, len) ->
      let from_client = Hilti_types.Port.number flow.Flow.dst_port = 53 in
      let oriented = if from_client then flow else Flow.reverse flow in
      Some (oriented, Hilti_types.Hbytes.view_of_string ~off ~len data)
  | None -> None

(* Parse one datagram with the given parser kind.  Also pure per-packet
   work (parser state is per-kind instance, owned by whoever holds it).
   This string entry is the pre-batching path, kept for the unbatched
   reference loop and as the bench baseline; the fast path is
   [dns_parse_view]. *)
let dns_parse (kind : dns_kind) payload : dns_outcome =
  match kind with
  | Dns_std -> (
      match in_parse (fun () -> Dns_std.parse payload) with
      | msg ->
          if msg.Dns_std.is_response then D_rep (Dns_std.to_reply msg)
          else D_req (Dns_std.to_request msg)
      | exception Dns_std.Bad_dns _ ->
          Hilti_obs.Metrics.incr m_parse_errors;
          D_none)
  | Dns_pac t -> (
      match in_parse (fun () -> Dns_pac.parse t payload) with
      | Dns_pac.Request rq -> D_req rq
      | Dns_pac.Reply rp -> D_rep rp
      | Dns_pac.Not_dns ->
          Hilti_obs.Metrics.incr m_parse_errors;
          D_none)

(* Parse one payload slice in place.  No per-packet profiler span — the
   batched runners open one span per batch; [scratch] is the caller-owned
   (per session / per shard) label buffer of the standard parser. *)
let dns_parse_view ?scratch (kind : dns_kind) (v : Hilti_types.Hbytes.view) :
    dns_outcome =
  match kind with
  | Dns_std -> (
      match Dns_std.parse_view ?scratch v with
      | msg ->
          if msg.Dns_std.is_response then D_rep (Dns_std.to_reply msg)
          else D_req (Dns_std.to_request msg)
      | exception Dns_std.Bad_dns _ ->
          Hilti_obs.Metrics.incr m_parse_errors;
          D_none)
  | Dns_pac t -> (
      match Dns_pac.parse_view t v with
      | Dns_pac.Request rq -> D_req rq
      | Dns_pac.Reply rp -> D_rep rp
      | Dns_pac.Not_dns ->
          Hilti_obs.Metrics.incr m_parse_errors;
          D_none)

(* The serial event stage: connection tracking, uid assignment, trace-time
   timers, and event dispatch, driven strictly in packet order.  On the
   packet loop [ds_event] runs per packet in global order, then one
   [ds_count]/[ds_epoch] pair closes the batch (packet accounting + a
   single timer advance to the batch's last timestamp), at any shard
   count; the unbatched oracle closes an epoch per packet instead. *)
type dns_stage = {
  ds_count : int -> unit;  (* per batch: packet accounting *)
  ds_event : ts:Hilti_types.Time_ns.t -> Flow.t -> dns_outcome -> unit;
  ds_epoch : Hilti_types.Time_ns.t -> unit;
      (* per batch: advance the trace clock (timers, exports) once *)
}

let dns_stage ~(sink : Events.sink) ~(stats : stats) ?idle_timeout
    ?(stats_export : stats_export option) () : dns_stage =
  let uid_counter = ref 0 in
  let fresh flow ts =
    incr uid_counter;
    stats.connections <- stats.connections + 1;
    let uid = "C" ^ string_of_int !uid_counter in
    let conn_val = Events.connection_val ~uid ~flow ~start_time:ts in
    Events.raise_connection_established sink conn_val;
    conn_val
  in
  let session =
    make_session ?idle_timeout ?stats_export
      ~on_evict:(fun _ -> stats.evicted <- stats.evicted + 1)
      fresh
  in
  {
    ds_count = (fun n -> stats.packets <- stats.packets + n);
    ds_event =
      (fun ~ts oriented outcome ->
        sink.Events.set_time ts;
        let conn, _ = Flow_table.lookup session.ss_table ~ts oriented in
        let conn_val = conn.Flow_table.state in
        match outcome with
        | D_req rq -> Events.raise_dns_request sink conn_val rq
        | D_rep rp -> Events.raise_dns_reply sink conn_val rp
        | D_none -> ());
    ds_epoch = session.ss_tick;
  }

(** The driver's batch size: the packet loop's one batch constant. *)
let dns_batch = Hilti_par.Shard_plane.default_batch

(** An empty packet, for filling {!Hilti_rt.Iosrc.read_batch} buffers. *)
let null_packet = Hilti_par.Shard_plane.null_packet

(** The pre-batching serial loop — one payload string materialized per
    datagram, per-packet tick and timer advance.  Kept as the measured
    baseline ([bench stream] runs both loops to quantify the zero-copy +
    batched fast path) and as a differential oracle in tests. *)
let run_dns_src_unbatched ~(kind : dns_kind) ~(sink : Events.sink)
    ?idle_timeout ?(stats_export : stats_export option)
    (src : Hilti_rt.Iosrc.t) : stats =
  let stats = fresh_stats () in
  let sink = profiled_sink sink stats in
  sink.Events.raise_event "bro_init" [];
  let stage = dns_stage ~sink ~stats ?idle_timeout ?stats_export () in
  Hilti_rt.Iosrc.iter
    (fun (p : Hilti_rt.Iosrc.packet) ->
      let ts = p.Hilti_rt.Iosrc.ts in
      stage.ds_count 1;
      stage.ds_epoch ts;
      match dns_datagram p with
      | Some (oriented, payload) ->
          stage.ds_event ~ts oriented (dns_parse kind payload)
      | None -> ())
    src;
  sink.Events.raise_event "bro_done" [];
  stats

(** Stream a DNS source through the pipeline on the packet loop
    ({!Hilti_par.Shard_plane.run}).  Each batch's datagrams are parsed
    zero-copy off the raw frames with the parser [mk_kind] builds for
    their shard, then the serial event stage consumes the results in
    packet order, and the trace clock advances once to the batch's last
    timestamp.  [?idle_timeout] bounds the per-flow connection-value table
    the same way as for HTTP (DNS has no teardown events, so eviction only
    releases state).

    [shards = 0] runs inline on the calling domain ({!run_dns_src}).
    With [shards >= 1] decode and parse fan out over that many OCaml
    domains: the dispatcher hashes each datagram's 5-tuple symmetrically
    ({!Flow.shard}) so both directions of a connection land on the same
    shard, each shard owns the private parser [mk_kind] builds on its
    domain (no cross-domain locks on the fast path), and the collector
    replays connection tracking and event dispatch in global packet
    order — the produced events, and therefore the logs, are
    byte-identical to the zero-shard run's at the same [?batch]. *)
let run_dns_sharded_src ?batch ?ring ~shards ~(mk_kind : int -> dns_kind)
    ?idle_timeout ?(stats_export : stats_export option) ~(sink : Events.sink)
    (src : Hilti_rt.Iosrc.t) : stats =
  let stats = fresh_stats () in
  let sink, flush_obs = counted_sink sink stats in
  sink.Events.raise_event "bro_init" [];
  let stage = dns_stage ~sink ~stats ?idle_timeout ?stats_export () in
  let shard_of (p : Hilti_rt.Iosrc.packet) =
    match Packet.peek_flow p.Hilti_rt.Iosrc.data with
    | Some flow -> Flow.shard ~shards flow
    | None -> 0
  in
  (* The plane charges each batch's parse pass and its event replay to the
     two profilers (pairs with [counted_sink]).  The phases never nest, so
     plain timing keeps the breakdown additive. *)
  ignore
    (Hilti_par.Shard_plane.run ~shards ?batch ?ring
       ~timing:(Phases (parse_profiler, script_profiler))
       ~shard_of
       ~init:(fun sid -> (mk_kind sid, Dns_std.make_scratch ()))
       ~process:(fun (kind, scratch) ~seq:_ p ->
         match dns_slice p with
         | Some (oriented, v) ->
             Some (p.Hilti_rt.Iosrc.ts, oriented, dns_parse_view ~scratch kind v)
         | None -> None)
       ~after_batch:(fun ~n ~ts ->
         stage.ds_count n;
         flush_obs ();
         stage.ds_epoch ts)
       ~before:(fun ~seq:_ ~ts:_ -> ())
       ~consume:(fun ~seq:_ (ts, oriented, outcome) ->
         stage.ds_event ~ts oriented outcome)
       src);
  sink.Events.raise_event "bro_done" [];
  flush_obs ();
  stats

(** The serial DNS runner: {!run_dns_sharded_src} at zero shards. *)
let run_dns_src ~(kind : dns_kind) ~(sink : Events.sink) ?idle_timeout
    ?(stats_export : stats_export option) ?batch (src : Hilti_rt.Iosrc.t) : stats =
  run_dns_sharded_src ?batch ~shards:0 ~mk_kind:(fun _ -> kind) ?idle_timeout
    ?stats_export ~sink src

(* ---- Firewall -------------------------------------------------------------------- *)

(* The firewall example (§4.1) runs on the same packet loop as DNS.  Its
   dynamic state (the VM-side rule set and its expiry timers) is keyed by
   host pair, so the shard key is the symmetric address-pair hash: every
   packet between two hosts — either direction, any port — lands on the
   shard owning that pair's state, and per-shard trace clocks advance
   independently without changing any decision. *)

(** One decision line, ["<ns> <src> > <dst> allow|deny"], built in one
    buffer. *)
let fw_line ~ts ~src ~dst allowed =
  let b = Buffer.create 64 in
  Hilti_types.Digits.add_int64 b (Hilti_types.Time_ns.to_ns ts);
  Buffer.add_char b ' ';
  Hilti_types.Addr.add_to_buffer b src;
  Buffer.add_string b " > ";
  Hilti_types.Addr.add_to_buffer b dst;
  Buffer.add_string b (if allowed then " allow" else " deny");
  Buffer.contents b

(** Run every frame of [src] through a firewall, emitting one decision
    line per IP packet via [emit], in trace order.  [mk_fw] builds each
    shard's private firewall instance (its own VM, rule set, timers) on
    the shard's domain; [shards = 0] runs inline ({!run_firewall_src}).
    Decisions are per packet (each carries its own timestamp), so the
    emitted log depends on neither the batch size nor the shard count. *)
let run_firewall_sharded_src ?batch ?ring ~shards
    ~(mk_fw : int -> Hilti_firewall.Fw_hilti.t) ?(emit = fun _ -> ())
    (src : Hilti_rt.Iosrc.t) : stats =
  let stats = fresh_stats () in
  let shard_of (p : Hilti_rt.Iosrc.packet) =
    match Packet.peek_addrs p.Hilti_rt.Iosrc.data with
    | Some (a, b) -> Flow.shard_of_hash ~shards (Flow.host_pair_hash a b)
    | None -> 0
  in
  ignore
    (Hilti_par.Shard_plane.run ~shards ?batch ?ring ~timing:Untimed ~shard_of
       ~init:mk_fw
       ~process:(fun fw ~seq:_ p ->
         let ts = p.Hilti_rt.Iosrc.ts in
         match Packet.peek_addrs p.Hilti_rt.Iosrc.data with
         | Some (src_a, dst_a) ->
             let allowed =
               Hilti_firewall.Fw_hilti.match_packet fw ~ts ~src:src_a ~dst:dst_a
             in
             Some (fw_line ~ts ~src:src_a ~dst:dst_a allowed)
         | None -> None)
       ~after_batch:(fun ~n ~ts:_ -> stats.packets <- stats.packets + n)
       ~before:(fun ~seq:_ ~ts:_ -> ())
       ~consume:(fun ~seq:_ line ->
         stats.events <- stats.events + 1;
         emit line)
       src);
  stats

(** The serial firewall runner: {!run_firewall_sharded_src} at zero
    shards over the one instance [fw]. *)
let run_firewall_src ~(fw : Hilti_firewall.Fw_hilti.t) ?emit ?batch
    (src : Hilti_rt.Iosrc.t) : stats =
  run_firewall_sharded_src ?batch ~shards:0 ~mk_fw:(fun _ -> fw) ?emit src

(* ---- Convenience: full evaluation runs (§6.4/§6.5) ---------------------------------- *)

type run_result = {
  logger : Bro_log.t;
  stats : stats;
  parse_ns : int64;
  script_ns : int64;
  glue_ns : int64;
  total_ns : int64;
}

(** Run an HTTP, DNS, MQTT or FTP source end-to-end with a given parser
    kind and script engine; returns logs and the component time breakdown.

    @param jobs shard DNS decode+parse over this many OCaml domains
    ({!run_dns_sharded_src}; absent means 0, the inline run); each shard
    gets its own freshly-built parser.  The TCP protocols run serially
    regardless (their parse state lives on the collector).
    @param idle_timeout evict connections idle for this long (trace time);
    honored identically by the serial and sharded DNS paths.
    @param stats_export scrape callback fired at this interval of trace
    time (the mini-bro [-stats-interval] plumbing). *)
let evaluate_src
    ~(proto :
       [ `Http of http_kind
       | `Dns of dns_kind
       | `Mqtt of mqtt_kind
       | `Ftp of ftp_kind ]) ~(engine_mode : Bro_engine.mode)
    ~(scripts : Bro_ast.script) ?(logging = true) ?jobs ?idle_timeout
    ?(stats_export : stats_export option) (src : Hilti_rt.Iosrc.t) : run_result =
  Hilti_rt.Profiler.reset_all ();
  let logger = Bro_log.create () in
  Bro_scripts.setup_logs logger;
  Bro_log.set_enabled logger logging;
  let engine = Bro_engine.load ~logger engine_mode scripts in
  Bro_engine.set_print_sink engine (fun _ -> ());
  let sink = Events.engine_sink engine in
  let stats, total_ns =
    Hilti_obs.Clock.timed (fun () ->
        match proto with
        | `Http kind -> run_http_src ~kind ~sink ?idle_timeout ?stats_export src
        | `Dns kind ->
            let shards = Option.value jobs ~default:0 in
            (* Each worker domain gets its own BinPAC++ parser; a zero-shard
               run uses the caller's. *)
            let mk_kind _shard =
              match kind with
              | Dns_pac _ when shards > 0 -> Dns_pac (Dns_pac.load ())
              | k -> k
            in
            run_dns_sharded_src ~shards ~mk_kind ?idle_timeout ?stats_export
              ~sink src
        | `Mqtt kind ->
            run_tcp_src ~parsers:(mqtt_parsers kind) ~sink ?idle_timeout ?stats_export src
        | `Ftp kind ->
            run_tcp_src ~parsers:(ftp_parsers kind) ~sink ?idle_timeout ?stats_export src)
  in
  {
    logger;
    stats;
    parse_ns = Hilti_rt.Profiler.wall_ns parse_profiler;
    script_ns = Hilti_rt.Profiler.wall_ns script_profiler;
    glue_ns = Hilti_rt.Profiler.wall_ns Bro_val.glue_profiler;
    total_ns;
  }
