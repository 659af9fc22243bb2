(** Pass B of the traced run: the driver's inner layers, each replayed on
    its own over inputs an untimed prepass captured from the same trace.

    A replay builds its layer's state afresh (untimed), walks every packet
    in 256-packet batches — the driver's batch — and times the calls into
    the layer's public functions.  The traced child runs the replays in
    rounds between its pass-A runs; each layer's fastest replay counts. *)

open Hilti_net
open Hilti_analyzers
module Timer_mgr = Hilti_rt.Timer_mgr

(** Time and minor-heap words one layer took in one replay, over [calls]
    timed calls. *)
type acc = { mutable ns : int; mutable words : float; mutable calls : int }

let acc () = { ns = 0; words = 0.; calls = 0 }

let timed a f =
  let w0 = Spans.minor_words () in
  let t0 = Spans.now () in
  f ();
  a.ns <- a.ns + (Spans.now () - t0);
  a.words <- a.words +. (Spans.minor_words () -. w0);
  a.calls <- a.calls + 1

(* What one [timed] call adds to the time it measures: the median of five
   runs of 20k timed no-ops.  Taken out of every layer, it matters where
   single calls are timed (HTTP's flow and timers). *)
let timed_cost =
  lazy
    (Spans.median5 (fun () ->
         let a = acc () in
         for _ = 1 to 20_000 do
           timed a ignore
         done;
         a.ns / a.calls))

(* [f lo hi] over consecutive batches of [0, n). *)
let batches n f =
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + Driver.dns_batch) in
    f !lo hi;
    lo := hi
  done

(** One replay: the packets it walked, each layer's accumulator, and
    layer counts (shares) that do not depend on timing. *)
type run = { walked : int; layers : (string * acc) list; counts : (string * float) list }

(* A single layer timed per batch: [setup ()] builds fresh state and
   returns the step for packet [i].  Slot [n], when [slots = n + 1],
   carries the end-of-trace work. *)
let single name ?slots n setup () =
  let slots = Option.value slots ~default:n in
  let step = setup () in
  let a = acc () and walked = ref 0 in
  batches slots (fun lo hi ->
      timed a (fun () -> for i = lo to hi - 1 do step i done);
      walked := !walked + (min hi n - lo));
  { walked = !walked; layers = [ (name, a) ]; counts = [] }

let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let count p arr = Array.fold_left (fun k x -> if p x then k + 1 else k) 0 arr

(* ---- DNS: the batched zero-copy loop of [Driver.run_dns_src] ------------------ *)

let dns (kind : Driver.dns_kind) (recs : Pcap.record array) =
  let n = Array.length recs in
  let packets =
    Array.map (fun (r : Pcap.record) -> { Hilti_rt.Iosrc.ts = r.Pcap.ts; data = r.Pcap.data }) recs
  in
  let slices = Array.map Driver.dns_slice packets in
  let datagrams = count Option.is_some slices in
  let scratch = Dns_std.make_scratch () in
  let outcomes =
    Array.map
      (function Some (_, v) -> Driver.dns_parse_view ~scratch kind v | None -> Driver.D_none)
      slices
  in
  let failed = ref 0 in
  Array.iteri
    (fun i s ->
      match (s, outcomes.(i)) with Some _, Driver.D_none -> incr failed | _ -> ())
    slices;
  let ts i = packets.(i).Hilti_rt.Iosrc.ts in
  (* The driver's session table: flow lookups per batch, then one timer
     advance to the batch's last timestamp — the driver's cadence, so
     evictions match.  [lookups] and [advance] wrap each batch's two
     halves; [seen i conn] follows each lookup. *)
  let sessions fresh ~seen ~lookups ~advance =
    let mgr = Timer_mgr.create () in
    let table = Flow_table.create ~timeout:Workload.idle_timeout ~timer_mgr:mgr fresh in
    batches n (fun lo hi ->
        lookups (fun () ->
            for i = lo to hi - 1 do
              match slices.(i) with
              | Some (flow, _) -> seen i (fst (Flow_table.lookup table ~ts:(ts i) flow))
              | None -> ()
            done);
        advance (fun () -> ignore (Timer_mgr.advance mgr (ts (hi - 1)))))
  in
  (* Prepass: which packet opens each connection, and every packet's
     connection value. *)
  let opens = Array.make n false and conn_vals = Array.make n None in
  (let conns = ref 0 in
   sessions
     (fun flow start_time ->
       incr conns;
       Events.connection_val ~uid:("C" ^ string_of_int !conns) ~flow ~start_time)
     ~seen:(fun i conn ->
       (* Only a lookup that just created the connection leaves it so. *)
       opens.(i) <- conn.Flow_table.orig_packets = 1 && conn.Flow_table.resp_packets = 0;
       conn_vals.(i) <- Some conn.Flow_table.state)
     ~lookups:(fun f -> f ())
     ~advance:(fun f -> f ()));
  (* The driver's decode step: the header peek, or the full decoder. *)
  let decode =
    single "decode" n (fun () i -> ignore (Sys.opaque_identity (Driver.dns_slice packets.(i))))
  in
  let flow_timers () =
    let fa = acc () and ta = acc () in
    sessions (fun _ _ -> ()) ~seen:(fun _ _ -> ()) ~lookups:(timed fa) ~advance:(timed ta);
    { walked = n; layers = [ ("flow", fa); ("timers", ta) ]; counts = [] }
  in
  let parse =
    single "parse" n (fun () ->
        let scratch = Dns_std.make_scratch () in
        fun i ->
          match (slices.(i), kind) with
          | Some (_, v), Driver.Dns_std -> (
              match Dns_std.parse_view ~scratch v with
              | m ->
                  ignore
                    (Sys.opaque_identity
                       (if m.Dns_std.is_response then Driver.D_rep (Dns_std.to_reply m)
                        else Driver.D_req (Dns_std.to_request m)))
              | exception Dns_std.Bad_dns _ -> ())
          | Some (_, v), Driver.Dns_pac t -> ignore (Sys.opaque_identity (Dns_pac.parse_view t v))
          | None, _ -> ())
  in
  (* Events to Bro values: the connection record when a packet opens one,
     then the packet's DNS event. *)
  let sink = Events.null_sink in
  let glue =
    single "glue" n (fun () i ->
        (match slices.(i) with
        | Some (flow, _) when opens.(i) ->
            Events.raise_connection_established sink
              (Events.connection_val ~uid:("C" ^ string_of_int i) ~flow ~start_time:(ts i))
        | _ -> ());
        match (outcomes.(i), conn_vals.(i)) with
        | Driver.D_req rq, Some c -> Events.raise_dns_request sink c rq
        | Driver.D_rep rp, Some c -> Events.raise_dns_reply sink c rp
        | _ -> ())
  in
  ( [ decode; flow_timers; parse; glue ],
    [ ("decode.slow_path_share",
       share (count (fun p -> Packet.peek_udp p.Hilti_rt.Iosrc.data = None) packets) n);
      ("flow.new_share", share (count Fun.id opens) datagrams);
      ("parse.fail_share", share !failed datagrams) ] )

(* ---- HTTP: the per-packet loop of [Driver.run_http_src] -------------------------- *)

type http_event =
  | Opened of Flow.t * Hilti_types.Time_ns.t
  | Established
  | Request of Events.http_request
  | Reply of Events.http_reply
  | Removed

(* What reached the parsers, in order: stream data for a direction, or the
   direction's end. *)
type parse_op = Feed of int * string | Eof of int

type http_conn = {
  id : int;  (** directions [2 id] (originator) and [2 id + 1] *)
  conn_val : Mini_bro.Bro_val.t;
  req : Http_std.t * Reassembly.t;
  rep : Http_std.t * Reassembly.t;
  mutable established : bool;
}

(* The prepass follows [Driver.run_http_src] step for step — tick, decode,
   flow lookup, reassembly, parse, eviction and the end-of-trace flush —
   and records, per packet slot, what each layer was handed.  Slot [n]
   holds the end-of-trace flush. *)
let http (recs : Pcap.record array) =
  let n = Array.length recs in
  let slot = ref 0 in
  let ops = Array.make (n + 1) [] and events = Array.make (n + 1) [] in
  let finished = Array.make (n + 1) [] in
  let segs = Array.make n None and flows = Array.make n None in
  let push a x = a.(!slot) <- x :: a.(!slot) in
  let conns = ref 0 in
  let fresh flow ts =
    let id = !conns in
    incr conns;
    let conn_val = Events.connection_val ~uid:("C" ^ string_of_int (id + 1)) ~flow ~start_time:ts in
    push events (conn_val, Opened (flow, ts));
    let side dir ~is_request =
      let p =
        Http_std.create ~is_request
          ~on_request:(fun r -> push events (conn_val, Request r))
          ~on_reply:(fun r -> push events (conn_val, Reply r))
      in
      ( p,
        Reassembly.create (fun data ->
            push ops (Feed (dir, data));
            Http_std.feed p data) )
    in
    { id;
      conn_val;
      req = side (2 * id) ~is_request:true;
      rep = side ((2 * id) + 1) ~is_request:false;
      established = false }
  in
  let finish c =
    push finished c.id;
    Reassembly.finish (snd c.req);
    Reassembly.finish (snd c.rep);
    push ops (Eof (2 * c.id));
    Http_std.eof (fst c.req);
    push ops (Eof ((2 * c.id) + 1));
    Http_std.eof (fst c.rep);
    push events (c.conn_val, Removed)
  in
  let mgr = Timer_mgr.create () in
  let table = Flow_table.create ~timeout:Workload.idle_timeout ~timer_mgr:mgr fresh in
  Flow_table.on_remove table (fun conn -> finish conn.Flow_table.state);
  Array.iteri
    (fun i (r : Pcap.record) ->
      slot := i;
      let ts = r.Pcap.ts in
      ignore (Timer_mgr.advance mgr ts);
      match Packet.decode_opt ~ts r.Pcap.data with
      | Some pkt -> (
          match (pkt.Packet.transport, Packet.flow pkt) with
          | Packet.TCP (tcp, payload), Some flow ->
              flows.(i) <- Some flow;
              let conn, _ = Flow_table.lookup table ~ts flow in
              let c = conn.Flow_table.state in
              let from_orig = Flow.equal flow conn.Flow_table.flow in
              let syn = Tcp.has_flag tcp Tcp.flag_syn and fin = Tcp.has_flag tcp Tcp.flag_fin in
              if (not c.established) && (not from_orig) && syn && Tcp.has_flag tcp Tcp.flag_ack
              then begin
                c.established <- true;
                push events (c.conn_val, Established)
              end;
              let dir = if from_orig then 2 * c.id else (2 * c.id) + 1 in
              segs.(i) <- Some (dir, tcp.Tcp.seq, syn, fin, payload);
              Reassembly.segment
                (snd (if from_orig then c.req else c.rep))
                ~seq:tcp.Tcp.seq ~syn ~fin payload
          | _ -> ())
      | None -> ())
    recs;
  slot := n;
  Flow_table.fold (fun conn acc -> conn.Flow_table.state :: acc) table []
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.iter finish;
  let in_order a = Array.iteri (fun i l -> a.(i) <- List.rev l) a in
  in_order ops;
  in_order events;
  in_order finished;
  let dirs = 2 * !conns in
  let lookups = count Option.is_some flows in
  let data_segs = count (function Some (_, _, _, _, p) -> p <> "" | None -> false) segs in
  let decode =
    single "decode" n (fun () i ->
        let r = recs.(i) in
        match Packet.decode_opt ~ts:r.Pcap.ts r.Pcap.data with
        | Some pkt -> ignore (Sys.opaque_identity (Packet.flow pkt))
        | None -> ())
  in
  (* The driver advances the timers on every packet, between lookups, so
     the two layers are timed call by call. *)
  let flow_timers () =
    let mgr = Timer_mgr.create () in
    let table =
      Flow_table.create ~timeout:Workload.idle_timeout ~timer_mgr:mgr (fun _ _ -> ())
    in
    let fa = acc () and ta = acc () in
    batches n (fun lo hi ->
        for i = lo to hi - 1 do
          let ts = recs.(i).Pcap.ts in
          timed ta (fun () -> ignore (Timer_mgr.advance mgr ts));
          match flows.(i) with
          | Some flow -> timed fa (fun () -> ignore (Flow_table.lookup table ~ts flow))
          | None -> ()
        done);
    { walked = n;
      layers = [ ("flow", fa); ("timers", ta) ];
      counts = [ ("flow.new_share", share (Flow_table.created table) lookups) ] }
  in
  let reassembly () =
    let rs = Array.init dirs (fun _ -> Reassembly.create ignore) in
    let r =
      single "reassembly" ~slots:(n + 1) n
        (fun () i ->
          List.iter
            (fun id ->
              Reassembly.finish rs.(2 * id);
              Reassembly.finish rs.((2 * id) + 1))
            finished.(i);
          if i < n then
            match segs.(i) with
            | Some (dir, seq, syn, fin, payload) ->
                Reassembly.segment rs.(dir) ~seq ~syn ~fin payload
            | None -> ())
        ()
    in
    let ooo = Array.fold_left (fun k r -> k + Reassembly.out_of_order r) 0 rs in
    { r with counts = [ ("reassembly.out_of_order_share", share ooo data_segs) ] }
  in
  let parse () =
    let ps =
      Array.init dirs (fun d ->
          Http_std.create ~is_request:(d mod 2 = 0) ~on_request:ignore ~on_reply:ignore)
    in
    let r =
      single "parse" ~slots:(n + 1) n
        (fun () i ->
          List.iter
            (function Feed (d, data) -> Http_std.feed ps.(d) data | Eof d -> Http_std.eof ps.(d))
            ops.(i))
        ()
    in
    { r with counts = [ ("parse.fail_share", share (count Http_std.failed ps) dirs) ] }
  in
  let sink = Events.null_sink in
  let glue =
    single "glue" ~slots:(n + 1) n (fun () i ->
        List.iter
          (fun (c, ev) ->
            match ev with
            | Opened (flow, start_time) ->
                ignore (Sys.opaque_identity (Events.connection_val ~uid:"C" ~flow ~start_time))
            | Established -> Events.raise_connection_established sink c
            | Request r -> Events.raise_http_request sink c r
            | Reply r -> Events.raise_http_reply sink c r
            | Removed -> Events.raise_connection_state_remove sink c)
          events.(i))
  in
  (* Every frame takes the full decoder: the HTTP loop has no header peek. *)
  ([ decode; flow_timers; reassembly; parse; glue ], [ ("decode.slow_path_share", 1.) ])

(* ---- Firewall: [Driver.run_firewall_src] ---------------------------------------- *)

let firewall (recs : Pcap.record array) =
  let n = Array.length recs in
  let addrs = Array.map (fun (r : Pcap.record) -> Packet.peek_addrs r.Pcap.data) recs in
  let rules = Hilti_firewall.Fw_rules.parse_rules Workload.fw_rules_text in
  let decisions = Array.make n false in
  let decode = single "decode" n (fun () i -> ignore (Packet.peek_addrs recs.(i).Pcap.data)) in
  let fw =
    single "fw" n (fun () ->
        let fw = Hilti_firewall.Fw_hilti.load rules in
        fun i ->
          match addrs.(i) with
          | Some (src, dst) ->
              decisions.(i) <-
                Hilti_firewall.Fw_hilti.match_packet fw ~ts:recs.(i).Pcap.ts ~src ~dst
          | None -> ())
  in
  let log =
    single "log" n (fun () i ->
        match addrs.(i) with
        | Some (src, dst) ->
            let ts = recs.(i).Pcap.ts in
            ignore (Sys.opaque_identity (Driver.fw_line ~ts ~src ~dst decisions.(i)))
        | None -> ())
  in
  ( [ decode; fw; log ],
    [ ("decode.slow_path_share",
       share (count (fun (r : Pcap.record) -> Packet.peek_ipv4 r.Pcap.data = None) recs) n) ] )

(* ---- The packet source, for every workload ---------------------------------- *)

(* The pcap file read in the driver's batches.  A span around every read
   in pass A would cost more than the read. *)
let iosrc path () =
  let src = Pcap.iosrc_of_file path in
  let buf = Array.make Driver.dns_batch Driver.null_packet in
  let a = acc () and walked = ref 0 and eof = ref false in
  while not !eof do
    let got = ref 0 in
    timed a (fun () -> got := Hilti_rt.Iosrc.read_batch src buf Driver.dns_batch);
    walked := !walked + !got;
    if !got < Driver.dns_batch then eof := true
  done;
  { walked = !walked; layers = [ ("iosrc", a) ]; counts = [] }

(* ---- Running the replays -------------------------------------------------------- *)

type result = {
  layers : (string * int * float) list;  (** layer, ns, minor words: the fastest replay's *)
  records : int;  (** packets in the trace *)
  walked : int list;  (** packets walked, one entry per replay *)
  counts : (string * float) list;
}

(** Every replay of a workload, ready to run. *)
type prepared = { replays : (unit -> run) list; counts : (string * float) list; records : int }

(** Capture [w]'s layer inputs from the pcap file [trace]. *)
let prepare (w : Workload.t) ~(dns_kind : Driver.dns_kind option) ~trace : prepared =
  let recs = Array.of_list (Pcap.read_file trace) in
  let replays, counts =
    match (w, dns_kind) with
    | (Workload.Dns_std | Workload.Dns_hilti), Some kind -> dns kind recs
    | Workload.Http_std, _ -> http recs
    | Workload.Firewall, _ -> firewall recs
    | _, None -> invalid_arg "Replay.prepare: a DNS workload needs its parser"
  in
  { replays = iosrc trace :: replays; counts; records = Array.length recs }

(** One round: every replay once, in order. *)
let round p = List.map (fun r -> r ()) p.replays

(** Each layer's fastest replay over [rounds]. *)
let result p (rounds : run list list) : result =
  let per_replay = List.mapi (fun i _ -> List.map (fun rs -> List.nth rs i) rounds) p.replays in
  let layers =
    List.concat_map
      (fun (runs : run list) ->
        List.map
          (fun (name, _) ->
            let accs = List.map (fun (r : run) -> List.assoc name r.layers) runs in
            let best =
              List.fold_left (fun b a -> if a.ns < b.ns then a else b) (List.hd accs) accs
            in
            (name, best.ns - (best.calls * Lazy.force timed_cost), best.words))
          (List.hd runs).layers)
      per_replay
  in
  { layers;
    records = p.records;
    walked = List.concat_map (List.map (fun (r : run) -> r.walked)) rounds;
    counts = p.counts @ List.concat_map (fun (r : run) -> r.counts) (List.hd rounds) }
