(** IPv6 fixed header encoding and decoding (no extension-header chain
    walking beyond recognizing their presence). *)

open Hilti_types

type t = {
  traffic_class : int;
  flow_label : int;
  payload_length : int;
  next_header : int;
  hop_limit : int;
  src : Addr.t;
  dst : Addr.t;
}

let header_len = 40

exception Bad_header of string

let read_addr s off =
  Addr.of_ipv6_int64s (String.get_int64_be s off) (String.get_int64_be s (off + 8))

(** Check the fixed header at [off] of the packet in [s.[off, limit)];
    returns its length in bytes. *)
let check_at s off limit =
  if off + header_len > limit then raise (Wire.Truncated "ipv6");
  if String.get_uint8 s off lsr 4 <> 6 then raise (Bad_header "version");
  header_len

(* Fields of a header [check_at] accepted, read by offset. *)
let next_header_at s off = String.get_uint8 s (off + 6)
let src_at s off = read_addr s (off + 8)
let dst_at s off = read_addr s (off + 24)

(** Decode the fixed header at [off] of the packet in [s.[off, limit)]. *)
let decode_at s off limit =
  ignore (check_at s off limit);
  let w0 = Int32.to_int (String.get_int32_be s off) in
  {
    traffic_class = (w0 lsr 20) land 0xff;
    flow_label = w0 land 0xfffff;
    payload_length = String.get_uint16_be s (off + 4);
    next_header = next_header_at s off;
    hop_limit = String.get_uint8 s (off + 7);
    src = src_at s off;
    dst = dst_at s off;
  }

(** End of the payload of the packet at [off] in [s.[off, limit)], whose
    header [check_at] accepted: bounded by [payload_length] and [limit]. *)
let payload_end s off limit =
  off + header_len + min (String.get_uint16_be s (off + 4)) (limit - off - header_len)

let encode ?(hop_limit = 64) ~next_header ~src ~dst payload =
  let b = Bytes.create (header_len + String.length payload) in
  Wire.set_u32 b 0 (6 lsl 28);
  Wire.set_u16 b 4 (String.length payload);
  Wire.set_u8 b 6 next_header;
  Wire.set_u8 b 7 hop_limit;
  Addr.write_be b 8 src;
  Addr.write_be b 24 dst;
  Bytes.blit_string payload 0 b header_len (String.length payload);
  Bytes.to_string b
