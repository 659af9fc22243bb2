(** Decoded packets and zero-copy header peeks, every one a projection of
    the same header walk. *)

open Hilti_types

type transport =
  | TCP of Tcp.t * string   (** header, payload *)
  | UDP of Udp.t * string
  | Other of int * string
      (** protocol number, raw payload; also every non-first IPv4
          fragment, whose payload opens with no transport header *)

type ip = V4 of Ipv4.t | V6 of Ipv6.t

type t = {
  ts : Time_ns.t;
  ip : ip;
  transport : transport;
}

exception Unsupported of string

let src t = match t.ip with V4 h -> h.Ipv4.src | V6 h -> h.Ipv6.src
let dst t = match t.ip with V4 h -> h.Ipv4.dst | V6 h -> h.Ipv6.dst

let ports t =
  match t.transport with
  | TCP (h, _) -> Some (Port.tcp h.Tcp.src_port, Port.tcp h.Tcp.dst_port)
  | UDP (h, _) -> Some (Port.udp h.Udp.src_port, Port.udp h.Udp.dst_port)
  | Other _ -> None

let flow t =
  match ports t with
  | Some (sp, dp) ->
      Some (Flow.make ~src:(src t) ~dst:(dst t) ~src_port:sp ~dst_port:dp)
  | None -> None

let payload t =
  match t.transport with TCP (_, p) | UDP (_, p) | Other (_, p) -> p

(* The header walk --------------------------------------------------------- *)

(* Every entry point below projects one walk over the captured frame.  Each
   layer's [check_at] validates its header at an offset, bounded by the
   end of the enclosing layer's payload, and the walk reads the fields it
   needs by offset, so it builds no header record.  Its result is one
   immediate int, so the peeks allocate only what they return:

     bits  0-7   the IP payload's protocol number
     bit   8     IPv6 (else IPv4)
     bit   9     a non-first IPv4 fragment: no transport header
     bits 10-16  [off], the transport header's offset (at most 14 + 60)
     bits 17-22  [hlen], the transport header's length (0 for [Other])
     bits 23-    [stop], the end of the transport payload

   The transport payload is [frame.[off + hlen, stop)]. *)

let ip_off = Ethernet.header_len
let v6_bit = 0x100 and fragment_bit = 0x200

let proto w = w land 0xff
let is_v6 w = w land v6_bit <> 0
let off w = (w lsr 10) land 0x7f
let payload_off w = off w + ((w lsr 17) land 0x3f)
let stop w = w lsr 23

(* The protocol whose header opens the IP payload, or -1 for none. *)
let transport_proto w = if w land fragment_bit <> 0 then -1 else proto w

(* The walk through the IP header: raises unless the Ethernet and IP
   headers check out, and leaves [hlen] and [stop] zero. *)
let ip_header frame =
  let flen = String.length frame in
  let ethertype = Ethernet.ethertype frame in
  if ethertype = Ethernet.ethertype_ipv4 then
    let off = ip_off + Ipv4.check_at frame ip_off flen in
    (off lsl 10) lor Ipv4.protocol_at frame ip_off
    lor if Ipv4.later_fragment_at frame ip_off then fragment_bit else 0
  else if ethertype = Ethernet.ethertype_ipv6 then
    let off = ip_off + Ipv6.check_at frame ip_off flen in
    (off lsl 10) lor v6_bit lor Ipv6.next_header_at frame ip_off
  else raise (Unsupported (Printf.sprintf "ethertype 0x%04x" ethertype))

let with_payload w hlen stop = w lor (hlen lsl 17) lor (stop lsl 23)

(* The whole walk: the IP header, then the transport header at [off]. *)
let walk frame =
  let w = ip_header frame and flen = String.length frame in
  let off = off w in
  let limit =
    if is_v6 w then Ipv6.payload_end frame ip_off flen
    else Ipv4.payload_end frame ip_off flen
  in
  let p = transport_proto w in
  if p = Ipv4.proto_tcp then with_payload w (Tcp.check_at frame off limit) limit
  else if p = Ipv4.proto_udp then
    let hlen = Udp.check_at frame off limit in
    with_payload w hlen (Udp.payload_end frame off limit)
  else with_payload w 0 limit

let src_at frame w = if is_v6 w then Ipv6.src_at frame ip_off else Ipv4.src_at frame ip_off
let dst_at frame w = if is_v6 w then Ipv6.dst_at frame ip_off else Ipv4.dst_at frame ip_off

(* The 5-tuple of a walk whose transport is TCP or UDP: both headers open
   with the source and destination ports. *)
let flow_at frame w =
  let off = off w and src = src_at frame w and dst = dst_at frame w in
  let sp = String.get_uint16_be frame off and dp = String.get_uint16_be frame (off + 2) in
  if transport_proto w = Ipv4.proto_tcp then
    Flow.make ~src ~dst ~src_port:(Port.tcp sp) ~dst_port:(Port.tcp dp)
  else Flow.make ~src ~dst ~src_port:(Port.udp sp) ~dst_port:(Port.udp dp)

(* What the walk raises on a malformed or non-IP frame. *)
let malformed = function
  | Wire.Truncated _ | Ipv4.Bad_header _ | Ipv6.Bad_header _ | Tcp.Bad_header _
  | Udp.Bad_header _ | Unsupported _ -> true
  | _ -> false

(* [walk frame] (or [ip_header frame]), or -1 where it rejects [frame]. *)
let try_walk walk frame = match walk frame with w -> w | exception e when malformed e -> -1

(** Decode an Ethernet frame into a packet, copying the transport payload
    once.  Raises {!Wire.Truncated}, {!Ipv4.Bad_header} etc. on malformed
    input, and {!Unsupported} for non-IP ethertypes — analyzers treat
    those as "crud" to skip. *)
let decode ~ts frame =
  let w = walk frame and flen = String.length frame in
  let off = off w and p = payload_off w and stop = stop w and t = transport_proto w in
  let payload = String.sub frame p (stop - p) in
  { ts;
    ip = (if is_v6 w then V6 (Ipv6.decode_at frame ip_off flen)
          else V4 (Ipv4.decode_at frame ip_off flen));
    transport =
      (if t = Ipv4.proto_tcp then TCP (Tcp.decode_at frame off stop, payload)
       else if t = Ipv4.proto_udp then UDP (Udp.decode_at frame off stop, payload)
       else Other (proto w, payload)) }

let decode_opt ~ts frame =
  match decode ~ts frame with p -> Some p | exception e when malformed e -> None

(* Header peeks (the runners' zero-copy fast path) ------------------------- *)

(* The dispatcher of the flow-sharded data plane must pick a shard for
   every frame, and the runners parse payloads in place; neither needs the
   copying [decode].  Each peek below is [Some] exactly where the packet
   [decode_opt] yields has what the peek returns, and then equal to it;
   [peek_addrs] stops after the IP header, so it is [Some] on more frames
   (a malformed transport header, a truncated IPv4 payload). *)

(** [peek_addrs frame] is the IP source/destination pair of [frame];
    [None] for non-IP frames. *)
let peek_addrs frame =
  let w = try_walk ip_header frame in
  if w < 0 then None else Some (src_at frame w, dst_at frame w)

(** [peek_ipv4 frame] is [peek_addrs frame] for IPv4 frames, [None] for
    any other. *)
let peek_ipv4 frame =
  match peek_addrs frame with
  | Some _ as a when Ethernet.ethertype frame = Ethernet.ethertype_ipv4 -> a
  | _ -> None

(** [peek_flow frame] is the frame's 5-tuple, or [None] for non-IP frames
    and transports without ports. *)
let peek_flow frame =
  let w = try_walk walk frame in
  let t = transport_proto w in
  if w >= 0 && (t = Ipv4.proto_tcp || t = Ipv4.proto_udp) then Some (flow_at frame w)
  else None

(** [peek_udp frame] is the flow plus the UDP payload's (offset, length)
    within [frame]: the DNS driver's zero-copy path. *)
let peek_udp frame =
  let w = try_walk walk frame in
  if w < 0 || transport_proto w <> Ipv4.proto_udp then None
  else
    let p = payload_off w in
    Some (flow_at frame w, p, stop w - p)

(** [peek_tcp frame] is the flow, the TCP header and the payload's
    (offset, length) within [frame]: the TCP runner's zero-copy path. *)
let peek_tcp frame =
  let w = try_walk walk frame in
  if w < 0 || transport_proto w <> Ipv4.proto_tcp then None
  else
    let p = payload_off w in
    Some (flow_at frame w, Tcp.decode_at frame (off w) (stop w), p, stop w - p)

(* Encoding helpers used by the trace generator ---------------------------- *)

let encode_tcp ~src ~dst ~src_port ~dst_port ~seq ~ack ~flags payload =
  let tcp = Tcp.encode ~src_port ~dst_port ~seq ~ack ~flags ~src ~dst payload in
  let ip = Ipv4.encode ~protocol:Ipv4.proto_tcp ~src ~dst tcp in
  Ethernet.encode ~ethertype:Ethernet.ethertype_ipv4 ip

let encode_udp ~src ~dst ~src_port ~dst_port payload =
  let udp = Udp.encode ~src_port ~dst_port ~src ~dst payload in
  let ip = Ipv4.encode ~protocol:Ipv4.proto_udp ~src ~dst udp in
  Ethernet.encode ~ethertype:Ethernet.ethertype_ipv4 ip
