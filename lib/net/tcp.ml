(** TCP segment encoding and decoding. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  data_offset : int;  (** header length in 32-bit words *)
  flags : int;
  window : int;
  checksum_field : int;
  urgent : int;
}

let min_header_len = 20

let flag_fin = 0x01
let flag_syn = 0x02
let flag_rst = 0x04
let flag_psh = 0x08
let flag_ack = 0x10

let has_flag t f = t.flags land f <> 0

exception Bad_header of string

(** Check the header at [off] of the segment in [s.[off, limit)]; returns
    its length in bytes. *)
let check_at s off limit =
  if off + min_header_len > limit then raise (Wire.Truncated "tcp");
  let hl = (String.get_uint8 s (off + 12) lsr 4) * 4 in
  if hl < min_header_len then raise (Bad_header "data offset");
  if off + hl > limit then raise (Wire.Truncated "tcp options");
  hl

(** Decode the header at [off] of the segment in [s.[off, limit)]; its
    payload is [s.[off + header_len t, limit)]. *)
let decode_at s off limit =
  let data_offset = check_at s off limit / 4 in
  {
    src_port = String.get_uint16_be s off;
    dst_port = String.get_uint16_be s (off + 2);
    seq = String.get_int32_be s (off + 4);
    ack = String.get_int32_be s (off + 8);
    data_offset;
    flags = String.get_uint16_be s (off + 12) land 0x1ff;
    window = String.get_uint16_be s (off + 14);
    checksum_field = String.get_uint16_be s (off + 16);
    urgent = String.get_uint16_be s (off + 18);
  }

let header_len t = t.data_offset * 4

let encode ?(window = 65535) ~src_port ~dst_port ~seq ~ack ~flags ~src ~dst payload =
  let total = min_header_len + String.length payload in
  let b = Bytes.create total in
  Wire.set_u16 b 0 src_port;
  Wire.set_u16 b 2 dst_port;
  Wire.set_u32 b 4 (Int32.to_int seq land 0xffffffff);
  Wire.set_u32 b 8 (Int32.to_int ack land 0xffffffff);
  Wire.set_u16 b 12 ((5 lsl 12) lor (flags land 0x1ff));
  Wire.set_u16 b 14 window;
  Wire.set_u16 b 16 0;
  Wire.set_u16 b 18 0;
  Bytes.blit_string payload 0 b min_header_len (String.length payload);
  let pseudo = Ipv4.pseudo_sum ~src ~dst ~protocol:Ipv4.proto_tcp ~len:total in
  let cs = Checksum.checksum ~acc:pseudo (Bytes.to_string b) 0 total in
  Wire.set_u16 b 16 cs;
  Bytes.to_string b

let flags_to_string t =
  let parts =
    List.filter_map
      (fun (f, s) -> if has_flag t f then Some s else None)
      [ (flag_syn, "S"); (flag_fin, "F"); (flag_rst, "R"); (flag_psh, "P"); (flag_ack, "A") ]
  in
  String.concat "" parts
