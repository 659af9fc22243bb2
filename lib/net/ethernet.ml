(** Ethernet II framing. *)

let header_len = 14
let ethertype_ipv4 = 0x0800
let ethertype_ipv6 = 0x86dd

let default_src = "\x02\x00\x00\x00\x00\x01"
let default_dst = "\x02\x00\x00\x00\x00\x02"

(** The ethertype of [frame]; raises {!Wire.Truncated} unless it holds a
    whole Ethernet header. *)
let ethertype frame =
  if String.length frame < header_len then raise (Wire.Truncated "ethernet");
  String.get_uint16_be frame 12

let encode ?(dst = default_dst) ?(src = default_src) ~ethertype payload =
  if String.length dst <> 6 || String.length src <> 6 then
    invalid_arg "Ethernet.encode";
  let b = Bytes.create (header_len + String.length payload) in
  Bytes.blit_string dst 0 b 0 6;
  Bytes.blit_string src 0 b 6 6;
  Wire.set_u16 b 12 ethertype;
  Bytes.blit_string payload 0 b header_len (String.length payload);
  Bytes.to_string b
