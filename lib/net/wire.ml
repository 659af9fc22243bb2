(** Low-level big-endian encode helpers shared by the protocol layers.  All
    offsets are byte offsets into plain strings/bytes.  The decoders read
    with the stdlib's [String.get_uint8], [String.get_uint16_be] and
    [String.get_int32_be] and check their bounds in place: those compile
    inline, where a call into another module of this library would not in
    dune's default (dev) profile. *)

let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let set_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let set_u32 b off v =
  set_u16 b off ((v lsr 16) land 0xffff);
  set_u16 b (off + 2) (v land 0xffff)

let set_u32l b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xff))

exception Truncated of string
(** Raised when a frame is too short for the header being decoded. *)
