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
  let hi = ref 0L and lo = ref 0L in
  for i = 0 to 7 do
    hi := Int64.logor (Int64.shift_left !hi 8) (Int64.of_int (Wire.get_u8 s (off + i)))
  done;
  for i = 8 to 15 do
    lo := Int64.logor (Int64.shift_left !lo 8) (Int64.of_int (Wire.get_u8 s (off + i)))
  done;
  Addr.of_ipv6_int64s !hi !lo

(** Decode the fixed header at [off] of the packet in [s.[off, limit)]. *)
let decode_at s off limit =
  Wire.need limit off header_len "ipv6";
  let w0 = Wire.get_u32 s off in
  if w0 lsr 28 <> 6 then raise (Bad_header "version");
  {
    traffic_class = (w0 lsr 20) land 0xff;
    flow_label = w0 land 0xfffff;
    payload_length = Wire.get_u16 s (off + 4);
    next_header = Wire.get_u8 s (off + 6);
    hop_limit = Wire.get_u8 s (off + 7);
    src = read_addr s (off + 8);
    dst = read_addr s (off + 24);
  }

let decode s = decode_at s 0 (String.length s)

(** End of the payload of the packet at [off] in [s.[off, limit)]: bounded
    by [payload_length] and by [limit]. *)
let payload_end t off limit = off + header_len + min t.payload_length (limit - off - header_len)

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
