(** Event definitions shared by the standard and BinPAC++-based analyzers:
    both must raise byte-identical event streams (modulo the documented
    semantic differences of §6.4) into the Mini-Bro engine. *)

open Hilti_types
open Mini_bro

let connection_names = [| "uid"; "start_time"; "id" |]
let conn_id_names = [| "orig_h"; "orig_p"; "resp_h"; "resp_p" |]

(** The Bro [connection] record value for a flow.  Its records share the
    static name arrays above, which are never written in place. *)
let connection_val ~uid ~(flow : Hilti_net.Flow.t) ~start_time : Bro_val.t =
  let id =
    Bro_val.Vrecord
      {
        rtype = "conn_id";
        rnames = conn_id_names;
        rvals =
          [| Bro_val.Vaddr flow.Hilti_net.Flow.src;
             Bro_val.Vport flow.Hilti_net.Flow.src_port;
             Bro_val.Vaddr flow.Hilti_net.Flow.dst;
             Bro_val.Vport flow.Hilti_net.Flow.dst_port |];
      }
  in
  Bro_val.Vrecord
    {
      rtype = "connection";
      rnames = connection_names;
      rvals = [| Bro_val.Vstring uid; Bro_val.Vtime start_time; id |];
    }

(** Run a BinPAC++ unit-to-event conversion under the HILTI-to-Bro glue
    profiler (§6.4). *)
let glue f = Hilti_rt.Profiler.time_exclusive Bro_val.glue_profiler f

type http_request = {
  method_ : string;
  uri : string;
  version : string;
  host : string;
}

type http_reply = {
  r_version : string;
  code : int;
  reason : string;
  mime : string;
  body_len : int;
  body_sha1 : string;
}

type mqtt_connect = {
  client_id : string;
  proto : string;
  version : int;
  keepalive : int;
}

type mqtt_publish = { topic : string; qos : int; payload_len : int }

type mqtt_subscribe = { s_msgid : int; topics : (string * int) list }

(** One decoded MQTT control packet, as both the hand-written and the
    BinPAC++ analyzer report it — the common currency the differential
    fuzzer compares. *)
type mqtt_event =
  | M_connect of mqtt_connect
  | M_connack of int  (** return code *)
  | M_publish of mqtt_publish
  | M_subscribe of mqtt_subscribe
  | M_suback of int  (** msgid *)
  | M_disconnect
  | M_other of int  (** any other packet type, skipped by length *)

type ftp_request = { cmd : string; arg : string }

type ftp_reply = { code : int; msg : string }

type ftp_event = F_request of ftp_request | F_reply of ftp_reply

type dns_request = { q_id : int; query : string; qtype : int }

type dns_reply = {
  r_id : int;
  rcode : int;
  answers : string list;
  ttls : int list;
}

(** A sink for analyzer events; the driver wires it to a Bro engine. *)
type sink = {
  raise_event : string -> Bro_val.t list -> unit;
  set_time : Time_ns.t -> unit;
}

let engine_sink (engine : Bro_engine.t) : sink =
  {
    raise_event = (fun name args -> Bro_engine.dispatch engine name args);
    set_time = (fun ts -> Bro_engine.set_network_time engine ts);
  }

let null_sink : sink = { raise_event = (fun _ _ -> ()); set_time = (fun _ -> ()) }

(* ---- Raising the concrete events -------------------------------------------- *)

let vstr s = Bro_val.Vstring s

(* Interned [Vcount] values for the 16-bit range: DNS ids, qtypes, rcodes,
   HTTP status codes, ports — almost every count an analyzer raises.
   [Vcount] carries an immutable boxed int64, so sharing is safe, and the
   two allocations per count (box + variant) on the per-event path become
   an array read.  ~2 MB, built on first event. *)
let small_counts =
  lazy (Array.init 65536 (fun i -> Bro_val.Vcount (Int64.of_int i)))

let vcount i =
  if i >= 0 && i < 65536 then (Lazy.force small_counts).(i)
  else Bro_val.Vcount (Int64.of_int i)

(* Build a Bro vector straight off the list — one traversal, no
   intermediate [List.map] list; this sits on the per-reply fast path. *)
let vec_map f l =
  let d = Hilti_vm.Deque.create () in
  List.iter (fun x -> Hilti_vm.Deque.push_back d (f x)) l;
  Bro_val.Vvector d

let raise_connection_established sink conn =
  sink.raise_event "connection_established" [ conn ]

let raise_connection_state_remove sink conn =
  sink.raise_event "connection_state_remove" [ conn ]

let raise_http_request sink conn (r : http_request) =
  sink.raise_event "http_request"
    [ conn; vstr r.method_; vstr r.uri; vstr r.version; vstr r.host ]

let raise_http_reply sink conn (r : http_reply) =
  sink.raise_event "http_reply"
    [ conn; vstr r.r_version; vcount r.code; vstr r.reason; vstr r.mime;
      vcount r.body_len; vstr r.body_sha1 ]

let raise_mqtt_connect sink conn (r : mqtt_connect) =
  sink.raise_event "mqtt_connect"
    [ conn; vstr r.client_id; vstr r.proto; vcount r.version;
      vcount r.keepalive ]

let raise_mqtt_connack sink conn ~retcode =
  sink.raise_event "mqtt_connack" [ conn; vcount retcode ]

let raise_mqtt_publish sink conn (r : mqtt_publish) =
  sink.raise_event "mqtt_publish"
    [ conn; vstr r.topic; vcount r.qos; vcount r.payload_len ]

let raise_mqtt_subscribe sink conn (r : mqtt_subscribe) =
  sink.raise_event "mqtt_subscribe"
    [ conn; vcount r.s_msgid; vec_map (fun (t, _) -> vstr t) r.topics ]

let raise_mqtt_suback sink conn ~msgid =
  sink.raise_event "mqtt_suback" [ conn; vcount msgid ]

let raise_mqtt_disconnect sink conn =
  sink.raise_event "mqtt_disconnect" [ conn ]

(** Dispatch a decoded MQTT packet to its concrete event.  [M_other]
    raises nothing: unknown control packets are skipped by length. *)
let raise_mqtt sink conn = function
  | M_connect r -> raise_mqtt_connect sink conn r
  | M_connack retcode -> raise_mqtt_connack sink conn ~retcode
  | M_publish r -> raise_mqtt_publish sink conn r
  | M_subscribe r -> raise_mqtt_subscribe sink conn r
  | M_suback msgid -> raise_mqtt_suback sink conn ~msgid
  | M_disconnect -> raise_mqtt_disconnect sink conn
  | M_other _ -> ()

let raise_ftp_request sink conn (r : ftp_request) =
  sink.raise_event "ftp_request" [ conn; vstr r.cmd; vstr r.arg ]

let raise_ftp_reply sink conn (r : ftp_reply) =
  sink.raise_event "ftp_reply" [ conn; vcount r.code; vstr r.msg ]

let raise_ftp sink conn = function
  | F_request r -> raise_ftp_request sink conn r
  | F_reply r -> raise_ftp_reply sink conn r

(** A PORT command or 227 passive reply announced a coming data connection
    to [host]:[port]; raised on the control connection (§6.4 cross-flow). *)
let raise_ftp_data sink conn ~host ~port =
  sink.raise_event "ftp_data" [ conn; Bro_val.Vaddr host; Bro_val.Vport port ]

let raise_dns_request sink conn (r : dns_request) =
  sink.raise_event "dns_request" [ conn; vcount r.q_id; vstr r.query; vcount r.qtype ]

let raise_dns_reply sink conn (r : dns_reply) =
  sink.raise_event "dns_reply"
    [ conn; vcount r.r_id; vcount r.rcode;
      vec_map vstr r.answers; vec_map vcount r.ttls ]
