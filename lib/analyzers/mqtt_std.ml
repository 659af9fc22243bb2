(** The "standard" MQTT protocol parser: a hand-written incremental decoder
    for the MQTT 3.1.1 control-packet subset, playing the manually coded
    baseline role against the BinPAC++ grammar (§6.4).

    It deliberately transcribes the grammar's semantics byte for byte —
    including its quirks: the fixed-header width is derived from the
    remaining-length {e value} (assuming minimal varint encoding), packet
    fields are read from the stream rather than clamped to the declared
    remaining length (a lying length surfaces as a negative trailer, not a
    short read), and SUBSCRIBE topic lists check their stop condition only
    {e after} each element.  The differential fuzzer holds the two
    implementations to exactly this common behavior.

    The unconsumed stream lives in an {!Hilti_types.Hbytes.t}: feeding
    appends in place, consuming a packet is an O(1) trim, and the decoder
    reads through a view — no per-chunk concatenation or per-packet
    leftover copy. *)

open Hilti_types

exception Bad of string
exception Need_more

type t = {
  on_packet : Events.mqtt_event -> unit;
  data : Hbytes.t;  (** unconsumed stream bytes *)
  mutable failed : string option;
  mutable at_eof : bool;
  mutable messages : int;
}

let create ~on_packet =
  { on_packet; data = Hbytes.create (); failed = None; at_eof = false;
    messages = 0 }

let failed t = t.failed

(* Cursor primitives: past end-of-buffer means "wait for more input" while
   the stream is live and "truncated" once it is over — the same split the
   fiber-based parser gets from a frozen bytes object. *)

let u8 t v pos =
  if !pos >= Hbytes.view_length v then
    if t.at_eof then raise (Bad "truncated") else raise Need_more
  else begin
    let b = Hbytes.get_u8 v !pos in
    incr pos;
    b
  end

let u16 t v pos =
  let hi = u8 t v pos in
  let lo = u8 t v pos in
  (hi lsl 8) lor lo

(* Bounds-check and advance without materializing the bytes — payload and
   trailer consumption only needs the length. *)
let skip t v pos n =
  if n < 0 then raise (Bad "negative length");
  if !pos + n > Hbytes.view_length v then
    if t.at_eof then raise (Bad "truncated") else raise Need_more
  else pos := !pos + n

let take t v pos n =
  if n < 0 then raise (Bad "negative length");
  if !pos + n > Hbytes.view_length v then
    if t.at_eof then raise (Bad "truncated") else raise Need_more
  else begin
    let s = Hbytes.view_sub_string v !pos n in
    pos := !pos + n;
    s
  end

(* Length-prefixed string (MQTT 1.5.3). *)
let str t v pos =
  let len = u16 t v pos in
  take t v pos len

(* Base-128 remaining length: 7 data bits per byte, little groups first,
   bit 7 = continuation, at most 4 bytes — as the grammar's [varint]. *)
let varint t v pos =
  let n = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    if !shift >= 28 then raise (Bad "varint longer than 4 bytes");
    let b = u8 t v pos in
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !n

(* Decode one control packet starting at [!pos]; advances [pos] past it and
   returns the event view.  Mirrors the MQTT grammar field for field. *)
let decode_packet t v pos : Events.mqtt_event =
  let pstart = !pos in
  let offset () = !pos - pstart in
  let tf = u8 t v pos in
  let ptype = tf lsr 4 in
  let qos = (tf lsr 1) land 3 in
  let remlen = varint t v pos in
  (* Header width from the value, as the grammar computes it. *)
  let hdr =
    if remlen >= 2097152 then 5
    else if remlen >= 16384 then 4
    else if remlen >= 128 then 3
    else 2
  in
  let trailer () = skip t v pos (remlen + hdr - offset ()) in
  match ptype with
  | 1 ->
      let proto = str t v pos in
      let version = u8 t v pos in
      let _flags = u8 t v pos in
      let keepalive = u16 t v pos in
      let client_id = str t v pos in
      trailer ();
      Events.M_connect { Events.client_id; proto; version; keepalive }
  | 2 ->
      let _ackflags = u8 t v pos in
      let retcode = u8 t v pos in
      trailer ();
      Events.M_connack retcode
  | 3 ->
      let topic = str t v pos in
      let _msgid = if qos > 0 then u16 t v pos else 0 in
      let payload_len = remlen + hdr - offset () in
      skip t v pos payload_len;
      Events.M_publish { Events.topic; qos; payload_len }
  | 8 ->
      let msgid = u16 t v pos in
      (* Stop condition checked after each element, as &until_elem does. *)
      let topics = ref [] in
      let stop = ref false in
      while not !stop do
        let topic = str t v pos in
        let sqos = u8 t v pos in
        topics := (topic, sqos) :: !topics;
        if offset () - hdr >= remlen then stop := true
      done;
      Events.M_subscribe { Events.s_msgid = msgid; topics = List.rev !topics }
  | 9 ->
      let _msgid = u16 t v pos in
      skip t v pos (remlen + hdr - offset ());
      Events.M_suback _msgid
  | 4 | 10 ->
      let _msgid = u16 t v pos in
      trailer ();
      Events.M_other ptype
  | 14 ->
      trailer ();
      Events.M_disconnect
  | _ ->
      trailer ();
      Events.M_other ptype

let drain t =
  try
    let continue_ = ref true in
    while !continue_ && Hbytes.length t.data > 0 do
      let v = Hbytes.view t.data in
      let pos = ref 0 in
      match decode_packet t v pos with
      | ev ->
          Hbytes.trim_front t.data !pos;
          t.messages <- t.messages + 1;
          t.on_packet ev
      | exception Need_more -> continue_ := false
    done
  with Bad msg -> t.failed <- Some msg

(** Feed the reassembled stream slice [s.[off, off + len)]. *)
let feed_sub t s off len =
  if t.failed = None then begin
    Hbytes.append_sub t.data s off len;
    drain t
  end

(** Feed reassembled stream data. *)
let feed t chunk = feed_sub t chunk 0 (String.length chunk)

(** The stream is over; a packet still in flight is a truncation error. *)
let eof t =
  if t.failed = None then begin
    t.at_eof <- true;
    drain t
  end

let messages t = t.messages
