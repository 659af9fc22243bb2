(** The BinPAC++-based MQTT analyzer: drives the HILTI-compiled MQTT
    grammar over reassembled streams.  A single hook on the Packet unit
    fires once per completed control packet; the host glue converts the
    unit struct into the shared {!Events.mqtt_event} view — the same
    currency {!Mqtt_std} produces, which is what makes the two directly
    comparable under the differential fuzzer. *)

open Binpacxx
module V = Hilti_vm.Value

let sbytes = Runtime.bytes_or_empty
let sint = Runtime.int_or_zero
let slist = Runtime.list_or_empty

(* A Str sub-unit's payload. *)
let sstr st name =
  match V.field st name with Some s -> sbytes s "data" | None -> ""

let event_of_unit st : Events.mqtt_event =
  match sint st "ptype" with
  | 1 ->
      Events.M_connect
        {
          Events.client_id = sstr st "client_id";
          proto = sstr st "proto";
          version = sint st "connver";
          keepalive = sint st "keepalive";
        }
  | 2 -> Events.M_connack (sint st "retcode")
  | 3 ->
      Events.M_publish
        {
          Events.topic = sstr st "topic";
          qos = sint st "qos";
          payload_len = String.length (sbytes st "payload");
        }
  | 8 ->
      Events.M_subscribe
        {
          Events.s_msgid = sint st "msgid";
          topics =
            List.map (fun s -> (sstr s "topic", sint s "sqos")) (slist st "topics");
        }
  | 9 -> Events.M_suback (sint st "msgid")
  | 14 -> Events.M_disconnect
  | p -> Events.M_other p

(* ---- The loaded parser, shared across connections ---------------------------- *)

type t = Runtime.t

(** Load the MQTT grammar with the packet hook exposed.  [specialize]
    picks the specialized or the generic opcodes — the fuzzer runs the
    same grammar both ways as a differential pair. *)
let load ?(specialize = true) () : t =
  Runtime.load ~specialize ~hooks:[ "MQTT::Packet" ] (Grammars.parse_mqtt ())

(** One direction of a connection: each completed control packet goes to
    [on_packet] from inside the parse. *)
let session t ~on_packet : Runtime.session =
  Runtime.session t ~unit_name:"Packets" ~on_hook:(fun _ st ->
      on_packet (Events.glue (fun () -> event_of_unit st)))
