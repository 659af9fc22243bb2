(** Fully decoded packets: the layered view analyzers consume. *)

open Hilti_types

type transport =
  | TCP of Tcp.t * string   (** header, payload *)
  | UDP of Udp.t * string
  | Other of int * string   (** protocol number, raw payload *)

type ip = V4 of Ipv4.t | V6 of Ipv6.t

type t = {
  ts : Time_ns.t;
  eth : Ethernet.t;
  ip : ip;
  transport : transport;
}

exception Unsupported of string

let ip_src = function V4 h -> h.Ipv4.src | V6 h -> h.Ipv6.src
let ip_dst = function V4 h -> h.Ipv4.dst | V6 h -> h.Ipv6.dst
let src t = ip_src t.ip
let dst t = ip_dst t.ip

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

(* Every decoder below reads its header at an offset into the captured
   frame and bounds it by [limit], the end of the enclosing layer's
   payload; the transport payload is the only bytes [decode] copies. *)

(* The IP header of [frame], whose Ethernet header carries [ethertype]. *)
let ip_layer frame ethertype =
  let off = Ethernet.header_len and flen = String.length frame in
  if ethertype = Ethernet.ethertype_ipv4 then V4 (Ipv4.decode_at frame off flen)
  else if ethertype = Ethernet.ethertype_ipv6 then V6 (Ipv6.decode_at frame off flen)
  else raise (Unsupported (Printf.sprintf "ethertype 0x%04x" ethertype))

let ip_protocol = function V4 h -> h.Ipv4.protocol | V6 h -> h.Ipv6.next_header

(* The bounds [transport_off ip, transport_limit ip frame) of the IP
   payload in [frame]. *)
let transport_off = function
  | V4 h -> Ethernet.header_len + Ipv4.header_len h
  | V6 _ -> Ethernet.header_len + Ipv6.header_len

let transport_limit ip frame =
  match ip with
  | V4 h -> Ipv4.payload_end h Ethernet.header_len (String.length frame)
  | V6 h -> Ipv6.payload_end h Ethernet.header_len (String.length frame)

let decode_transport frame protocol off limit =
  if protocol = Ipv4.proto_tcp then
    let h = Tcp.decode_at frame off limit in
    let p = off + Tcp.header_len h in
    TCP (h, String.sub frame p (limit - p))
  else if protocol = Ipv4.proto_udp then
    let h = Udp.decode_at frame off limit in
    let p = off + Udp.header_len in
    UDP (h, String.sub frame p (Udp.payload_end h off limit - p))
  else Other (protocol, String.sub frame off (limit - off))

(** Decode an Ethernet frame into a packet.  Raises {!Wire.Truncated},
    {!Ipv4.Bad_header} etc. on malformed input, and {!Unsupported} for
    non-IP ethertypes — analyzers treat those as "crud" to skip. *)
let decode ~ts frame =
  let eth = Ethernet.decode frame in
  let ip = ip_layer frame eth.Ethernet.ethertype in
  let limit = transport_limit ip frame in
  { ts; eth; ip; transport = decode_transport frame (ip_protocol ip) (transport_off ip) limit }

let decode_opt ~ts frame =
  match decode ~ts frame with
  | p -> Some p
  | exception (Wire.Truncated _ | Ipv4.Bad_header _ | Ipv6.Bad_header _
              | Tcp.Bad_header _ | Udp.Bad_header _ | Unsupported _) ->
      None

(* Header peeks (the sharded dispatcher's fast path) ------------------------ *)

(* The dispatcher of the flow-sharded data plane must pick a shard for
   every frame, but full decoding belongs on the shard (it materializes
   payload strings).  These peeks read only the handful of header bytes
   that determine the shard key, allocation-free except for the Addr
   values, with a full-decode fallback for anything but plain IPv4. *)

let ipv4_addr_at frame off =
  Hilti_types.Addr.of_ipv4_octets
    (Char.code frame.[off]) (Char.code frame.[off + 1])
    (Char.code frame.[off + 2]) (Char.code frame.[off + 3])

let peek_ipv4 frame =
  (* 14-byte Ethernet header, then version/IHL, protocol at +9, addresses
     at +12/+16 of the IP header. *)
  if String.length frame < 34 then None
  else if Wire.get_u16 frame 12 <> Ethernet.ethertype_ipv4 then None
  else
    let vihl = Char.code frame.[14] in
    if vihl lsr 4 <> 4 then None
    else
      let ihl = (vihl land 0xf) * 4 in
      if ihl < 20 || String.length frame < 14 + ihl then None
      else
        Some (Char.code frame.[23], ihl, ipv4_addr_at frame 26, ipv4_addr_at frame 30)

(** [peek_addrs frame] is the IP source/destination pair of [frame]
    without materializing any payload; [None] for non-IP frames. *)
let peek_addrs frame =
  match peek_ipv4 frame with
  | Some (_, _, src, dst) -> Some (src, dst)
  | None -> (
      (* Non-IPv4 (e.g. IPv6): rare enough to take the full decoder. *)
      match decode_opt ~ts:Hilti_types.Time_ns.epoch frame with
      | Some pkt -> Some (src pkt, dst pkt)
      | None -> None)

(** [peek_flow frame] is the frame's 5-tuple read straight out of the
    headers, or [None] for non-IP frames and transports without ports.
    Agrees with [flow (decode frame)] whenever both succeed. *)
let peek_flow frame =
  match peek_ipv4 frame with
  | Some (proto, ihl, src, dst)
    when proto = Ipv4.proto_tcp || proto = Ipv4.proto_udp ->
      let toff = 14 + ihl in
      if String.length frame < toff + 4 then None
      else
        let sp = Wire.get_u16 frame toff and dp = Wire.get_u16 frame (toff + 2) in
        let mk = if proto = Ipv4.proto_tcp then Port.tcp else Port.udp in
        Some (Flow.make ~src ~dst ~src_port:(mk sp) ~dst_port:(mk dp))
  | Some _ -> None
  | None -> (
      match decode_opt ~ts:Hilti_types.Time_ns.epoch frame with
      | Some pkt -> flow pkt
      | None -> None)

(** [peek_udp frame] is the flow plus the UDP payload's (offset, length)
    within [frame], read straight out of the headers for plain IPv4/UDP
    frames — the zero-copy fast path of the DNS driver.  Agrees with
    [decode]'s payload bounds ([total_length]- and frame-truncated).
    [None] means "not a well-formed IPv4/UDP frame this peek handles";
    callers fall back to {!decode_opt}. *)
let peek_udp frame =
  match peek_ipv4 frame with
  | Some (proto, ihl, src, dst) when proto = Ipv4.proto_udp ->
      let flen = String.length frame in
      let tl = Wire.get_u16 frame 16 in
      let ip_len = min (tl - ihl) (flen - 14 - ihl) in
      if ip_len < Udp.header_len then None
      else
        let toff = 14 + ihl in
        let ulen = Wire.get_u16 frame (toff + 4) in
        if ulen < Udp.header_len then None
        else
          let plen = min (ulen - Udp.header_len) (ip_len - Udp.header_len) in
          let sp = Wire.get_u16 frame toff and dp = Wire.get_u16 frame (toff + 2) in
          let fl =
            Flow.make ~src ~dst ~src_port:(Port.udp sp) ~dst_port:(Port.udp dp)
          in
          Some (fl, toff + Udp.header_len, plen)
  | _ -> None

(** [peek_tcp frame] is the flow, the TCP header and the payload's
    (offset, length) within [frame]: the TCP runner's zero-copy fast
    path.  It walks the same layers as {!decode}, so it is [Some] exactly
    when [decode_opt] yields a TCP packet, with the same flow, header and
    payload bytes, and it copies nothing. *)
let peek_tcp frame =
  match
    if String.length frame < Ethernet.header_len then None
    else
      let ip = ip_layer frame (Wire.get_u16 frame 12) in
      if ip_protocol ip <> Ipv4.proto_tcp then None
      else
        let off = transport_off ip and limit = transport_limit ip frame in
        let h = Tcp.decode_at frame off limit in
        let p = off + Tcp.header_len h in
        let flow =
          Flow.make ~src:(ip_src ip) ~dst:(ip_dst ip)
            ~src_port:(Port.tcp h.Tcp.src_port) ~dst_port:(Port.tcp h.Tcp.dst_port)
        in
        Some (flow, h, p, limit - p)
  with
  | seg -> seg
  | exception (Wire.Truncated _ | Ipv4.Bad_header _ | Ipv6.Bad_header _
              | Tcp.Bad_header _ | Unsupported _) ->
      None

(* Encoding helpers used by the trace generator ---------------------------- *)

let encode_tcp ~src ~dst ~src_port ~dst_port ~seq ~ack ~flags payload =
  let tcp = Tcp.encode ~src_port ~dst_port ~seq ~ack ~flags ~src ~dst payload in
  let ip = Ipv4.encode ~protocol:Ipv4.proto_tcp ~src ~dst tcp in
  Ethernet.encode ~ethertype:Ethernet.ethertype_ipv4 ip

let encode_udp ~src ~dst ~src_port ~dst_port payload =
  let udp = Udp.encode ~src_port ~dst_port ~src ~dst payload in
  let ip = Ipv4.encode ~protocol:Ipv4.proto_udp ~src ~dst udp in
  Ethernet.encode ~ethertype:Ethernet.ethertype_ipv4 ip
