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

type t = {
  parser : Runtime.t;
  (* The driver points this at the session being fed before resuming its
     fiber, so the hook callback knows where to deliver the packet. *)
  mutable on_packet : Events.mqtt_event -> unit;
}

(** Load the MQTT grammar with the packet hook attached.  [specialize]
    picks the specialized or the generic opcodes — the fuzzer runs the
    same grammar both ways as a differential pair. *)
let load ?(optimize = true) ?(specialize = true) () : t =
  let t_ref = ref None in
  let prepare (m : Module_ir.t) =
    Module_ir.add_func m
      {
        Module_ir.fname = "Analyzer::mqtt_packet";
        params = [ ("self", Htype.Any) ];
        result = Htype.Void;
        locals = [];
        blocks = [];
        cc = Module_ir.Cc_c;
        hook_priority = 0;
        exported = true;
      };
    let b =
      Builder.func m ~cc:Module_ir.Cc_hook "MQTT::Packet"
        ~params:[ ("self", Htype.Any) ]
        ~result:Htype.Void
    in
    Builder.call b "Analyzer::mqtt_packet" [ Instr.Local "self" ];
    Builder.return_ b
  in
  let parser =
    Runtime.load ~optimize ~specialize ~prepare (Grammars.parse_mqtt ())
  in
  let t = { parser; on_packet = ignore } in
  t_ref := Some t;
  Hilti_vm.Host_api.register parser.Runtime.api "Analyzer::mqtt_packet"
    (fun args ->
      (match (args, !t_ref) with
      | [ st ], Some t ->
          let ev =
            Hilti_rt.Profiler.time_exclusive Mini_bro.Bro_val.glue_profiler
              (fun () -> event_of_unit st)
          in
          t.on_packet ev
      | _ -> ());
      V.Null);
  t

(* ---- Per-connection-direction sessions ------------------------------------------ *)

type session = { t : t; cb : Events.mqtt_event -> unit; s : Runtime.session }

let session t ~on_packet = { t; cb = on_packet; s = Runtime.session t.parser ~unit_name:"Packets" }

let with_cb (ss : session) f =
  let saved = ss.t.on_packet in
  ss.t.on_packet <- ss.cb;
  Fun.protect ~finally:(fun () -> ss.t.on_packet <- saved) f

(** Feed reassembled stream data; packet events fire from inside the
    parse.  Returns the parse status so callers can track failures. *)
let feed (ss : session) data : Runtime.status =
  with_cb ss (fun () -> Runtime.feed ss.s data)

let eof (ss : session) : Runtime.status =
  with_cb ss (fun () -> Runtime.finish ss.s)
