(** IPv4 header encoding and decoding. *)

open Hilti_types

type t = {
  version : int;
  ihl : int;         (** header length in 32-bit words *)
  dscp : int;
  total_length : int;
  ident : int;
  flags : int;
  frag_offset : int;
  ttl : int;
  protocol : int;
  checksum_field : int;
  src : Addr.t;
  dst : Addr.t;
}

let min_header_len = 20
let proto_tcp = 6
let proto_udp = 17

exception Bad_header of string

(** Check the header at [off] of the packet in [s.[off, limit)]; returns
    its length in bytes. *)
let check_at s off limit =
  if off + min_header_len > limit then raise (Wire.Truncated "ipv4");
  let b0 = String.get_uint8 s off in
  if b0 lsr 4 <> 4 then raise (Bad_header "version");
  let hl = (b0 land 0xf) * 4 in
  if hl < min_header_len then raise (Bad_header "ihl");
  if off + hl > limit then raise (Wire.Truncated "ipv4 options");
  hl

(* Fields of a header [check_at] accepted, read by offset. *)
let protocol_at s off = String.get_uint8 s (off + 9)
let addr_at s off = Addr.of_ipv4_int (Int32.to_int (String.get_int32_be s off))
let src_at s off = addr_at s (off + 12)
let dst_at s off = addr_at s (off + 16)

(* A fragment but the first: no transport header opens its payload. *)
let later_fragment_at s off = String.get_uint16_be s (off + 6) land 0x1fff <> 0

(** Decode the header at [off] of the packet in [s.[off, limit)]. *)
let decode_at s off limit =
  let ihl = check_at s off limit / 4 in
  let flags_frag = String.get_uint16_be s (off + 6) in
  {
    version = 4;
    ihl;
    dscp = String.get_uint8 s (off + 1);
    total_length = String.get_uint16_be s (off + 2);
    ident = String.get_uint16_be s (off + 4);
    flags = flags_frag lsr 13;
    frag_offset = flags_frag land 0x1fff;
    ttl = String.get_uint8 s (off + 8);
    protocol = protocol_at s off;
    checksum_field = String.get_uint16_be s (off + 10);
    src = src_at s off;
    dst = dst_at s off;
  }

(** End of the payload of the packet at [off] in [s.[off, limit)], whose
    header [check_at] accepted: bounded by [total_length] and by [limit]. *)
let payload_end s off limit =
  let hl = (String.get_uint8 s off land 0xf) * 4 in
  let plen = min (String.get_uint16_be s (off + 2) - hl) (limit - off - hl) in
  if plen < 0 then raise (Bad_header "length");
  off + hl + plen

let checksum_valid s ihl = Checksum.valid s 0 (ihl * 4)

let encode ?(ttl = 64) ?(ident = 0) ~protocol ~src ~dst payload =
  let total = min_header_len + String.length payload in
  let b = Bytes.create total in
  Wire.set_u8 b 0 ((4 lsl 4) lor 5);
  Wire.set_u8 b 1 0;
  Wire.set_u16 b 2 total;
  Wire.set_u16 b 4 ident;
  Wire.set_u16 b 6 0x4000;  (* DF, no fragmentation *)
  Wire.set_u8 b 8 ttl;
  Wire.set_u8 b 9 protocol;
  Wire.set_u16 b 10 0;
  Wire.set_u32 b 12 (Addr.to_ipv4_int src);
  Wire.set_u32 b 16 (Addr.to_ipv4_int dst);
  let cs = Checksum.checksum (Bytes.to_string b) 0 min_header_len in
  Wire.set_u16 b 10 cs;
  Bytes.blit_string payload 0 b min_header_len (String.length payload);
  Bytes.to_string b

(** Pseudo-header one's-complement partial sum for TCP/UDP checksums. *)
let pseudo_sum ~src ~dst ~protocol ~len =
  let b = Bytes.create 12 in
  Wire.set_u32 b 0 (Addr.to_ipv4_int src);
  Wire.set_u32 b 4 (Addr.to_ipv4_int dst);
  Wire.set_u8 b 8 0;
  Wire.set_u8 b 9 protocol;
  Wire.set_u16 b 10 len;
  Checksum.sum16 (Bytes.to_string b) 0 12
