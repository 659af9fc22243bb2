(** UDP datagram encoding and decoding. *)

type t = { src_port : int; dst_port : int; length : int; checksum_field : int }

let header_len = 8

exception Bad_header of string

(** Decode the header at [off] of the datagram in [s.[off, limit)]. *)
let decode_at s off limit =
  Wire.need limit off header_len "udp";
  let length = Wire.get_u16 s (off + 4) in
  if length < header_len then raise (Bad_header "length");
  {
    src_port = Wire.get_u16 s off;
    dst_port = Wire.get_u16 s (off + 2);
    length;
    checksum_field = Wire.get_u16 s (off + 6);
  }

let decode s = decode_at s 0 (String.length s)

(** End of the payload of the datagram at [off] in [s.[off, limit)]:
    bounded by [length] and by [limit]. *)
let payload_end t off limit = off + header_len + min (t.length - header_len) (limit - off - header_len)

let payload t s = String.sub s header_len (payload_end t 0 (String.length s) - header_len)

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
