(** UDP datagram encoding and decoding. *)

type t = { src_port : int; dst_port : int; length : int; checksum_field : int }

let header_len = 8

exception Bad_header of string

(** Check the header at [off] of the datagram in [s.[off, limit)]; returns
    its length in bytes. *)
let check_at s off limit =
  if off + header_len > limit then raise (Wire.Truncated "udp");
  if String.get_uint16_be s (off + 4) < header_len then raise (Bad_header "length");
  header_len

(** Decode the header at [off] of the datagram in [s.[off, limit)]. *)
let decode_at s off limit =
  ignore (check_at s off limit);
  {
    src_port = String.get_uint16_be s off;
    dst_port = String.get_uint16_be s (off + 2);
    length = String.get_uint16_be s (off + 4);
    checksum_field = String.get_uint16_be s (off + 6);
  }

(** End of the payload of the datagram at [off] in [s.[off, limit)], whose
    header [check_at] accepted: bounded by [length] and by [limit]. *)
let payload_end s off limit =
  off + header_len + min (String.get_uint16_be s (off + 4) - header_len) (limit - off - header_len)

let encode ~src_port ~dst_port ~src ~dst payload =
  let total = header_len + String.length payload in
  let b = Bytes.create total in
  Wire.set_u16 b 0 src_port;
  Wire.set_u16 b 2 dst_port;
  Wire.set_u16 b 4 total;
  Wire.set_u16 b 6 0;
  Bytes.blit_string payload 0 b header_len (String.length payload);
  let pseudo = Ipv4.pseudo_sum ~src ~dst ~protocol:Ipv4.proto_udp ~len:total in
  let cs = Checksum.checksum ~acc:pseudo (Bytes.to_string b) 0 total in
  Wire.set_u16 b 6 (if cs = 0 then 0xffff else cs);
  Bytes.to_string b
