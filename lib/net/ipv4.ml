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

(** Decode the header at [off] of the packet in [s.[off, limit)]. *)
let decode_at s off limit =
  Wire.need limit off min_header_len "ipv4";
  let b0 = Wire.get_u8 s off in
  let version = b0 lsr 4 and ihl = b0 land 0xf in
  if version <> 4 then raise (Bad_header "version");
  if ihl < 5 then raise (Bad_header "ihl");
  Wire.need limit off (ihl * 4) "ipv4 options";
  let flags_frag = Wire.get_u16 s (off + 6) in
  {
    version;
    ihl;
    dscp = Wire.get_u8 s (off + 1);
    total_length = Wire.get_u16 s (off + 2);
    ident = Wire.get_u16 s (off + 4);
    flags = flags_frag lsr 13;
    frag_offset = flags_frag land 0x1fff;
    ttl = Wire.get_u8 s (off + 8);
    protocol = Wire.get_u8 s (off + 9);
    checksum_field = Wire.get_u16 s (off + 10);
    src = Addr.of_ipv4_int32 (Int32.of_int (Wire.get_u32 s (off + 12)));
    dst = Addr.of_ipv4_int32 (Int32.of_int (Wire.get_u32 s (off + 16)));
  }

let decode s = decode_at s 0 (String.length s)

let header_len t = t.ihl * 4

(** End of the payload of the packet at [off] in [s.[off, limit)]: bounded
    by [total_length] and by [limit]. *)
let payload_end t off limit =
  let hl = header_len t in
  let plen = min (t.total_length - hl) (limit - off - hl) in
  if plen < 0 then raise (Bad_header "length");
  off + hl + plen

(** Payload of an IPv4 packet [s], bounded by [total_length]. *)
let payload t s =
  let hl = header_len t in
  String.sub s hl (payload_end t 0 (String.length s) - hl)

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
