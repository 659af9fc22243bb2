(** Low-level big-endian encode/decode helpers shared by the protocol
    layers.  All offsets are byte offsets into plain strings/bytes. *)

let get_u8 s off = Char.code s.[off]
let get_u16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let get_u32 s off =
  (get_u16 s off lsl 16) lor get_u16 s (off + 2)

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

(** [need limit off len what] raises {!Truncated} unless [len] bytes from
    [off] fit below [limit], the end of the region being decoded. *)
let need limit off len what =
  if off + len > limit then raise (Truncated what)
