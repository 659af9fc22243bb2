(** SHA-1 (FIPS 180-4, RFC 3174), used by the file-analysis script for
    files.log body hashes, matching Bro's files.log [sha1] column.

    One streaming context over one native compression kernel: a context is
    fed byte ranges as they arrive ({!feed_bytes}, {!feed_string}) and
    {!finish}ed once.  Whole 64-byte blocks go straight from the caller's
    bytes to the C kernel ([sha1_stubs.c]) in one call per feed; only a
    partial block is buffered, so hashing allocates nothing per byte or
    per block and a whole body is never held in memory to be hashed.

    The chaining state is 20 bytes (five big-endian words), not record
    fields, so the kernel depends on no OCaml record layout; those bytes
    are also the digest. *)

type ctx = {
  state : Bytes.t;      (* chaining state h0..h4, big-endian *)
  block : Bytes.t;      (* pending bytes of the current 64-byte block *)
  mutable fill : int;   (* bytes used in [block] *)
  mutable total : int;  (* message bytes fed so far *)
}

(* [compress state src off k] compresses the [k] whole 64-byte blocks of
   [src] at [off] into [state].  The caller guarantees the range. *)
external compress :
  Bytes.t -> Bytes.t -> int -> int -> unit
  = "mini_bro_sha1_compress"
[@@noalloc]

(* h0..h4 of FIPS 180-4 §5.3.1, big-endian. *)
let initial_state =
  "\x67\x45\x23\x01\xEF\xCD\xAB\x89\x98\xBA\xDC\xFE\x10\x32\x54\x76\xC3\xD2\xE1\xF0"

(** Start a new message in [c], reusing its buffers. *)
let reset c =
  Bytes.blit_string initial_state 0 c.state 0 20;
  c.fill <- 0;
  c.total <- 0

(** A fresh context. *)
let init () =
  let c = { state = Bytes.create 20; block = Bytes.create 64; fill = 0; total = 0 } in
  reset c;
  c

(** Message bytes fed since {!init} or {!reset}. *)
let length c = c.total

(** Hash [len] bytes of [src] at [off].  Whole blocks are compressed in
    place; only a trailing partial block is copied. *)
let feed_bytes c src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha1.feed_bytes";
  c.total <- c.total + len;
  let off = ref off and len = ref len in
  if c.fill > 0 then begin
    let n = min !len (64 - c.fill) in
    Bytes.blit src !off c.block c.fill n;
    c.fill <- c.fill + n;
    off := !off + n;
    len := !len - n;
    if c.fill = 64 then begin
      compress c.state c.block 0 1;
      c.fill <- 0
    end
  end;
  let blocks = !len / 64 in
  if blocks > 0 then begin
    compress c.state src !off blocks;
    off := !off + (64 * blocks);
    len := !len - (64 * blocks)
  end;
  if !len > 0 then begin
    Bytes.blit src !off c.block 0 !len;
    c.fill <- !len
  end

let feed_string c s = feed_bytes c (Bytes.unsafe_of_string s) 0 (String.length s)

(* Hex digest of the chaining state. *)
let hex c =
  let out = Bytes.create 40 in
  let digits = "0123456789abcdef" in
  for i = 0 to 19 do
    let b = Bytes.get_uint8 c.state i in
    Bytes.unsafe_set out (2 * i) digits.[b lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) digits.[b land 0xf]
  done;
  Bytes.unsafe_to_string out

(** Pad, compress the last block(s) and return the lowercase hex digest.
    The context must be {!reset} before it hashes another message. *)
let finish c =
  let bitlen = c.total * 8 in
  let blk = c.block in
  Bytes.set blk c.fill '\x80';
  if c.fill >= 56 then begin
    Bytes.fill blk (c.fill + 1) (63 - c.fill) '\000';
    compress c.state blk 0 1;
    Bytes.fill blk 0 56 '\000'
  end
  else Bytes.fill blk (c.fill + 1) (55 - c.fill) '\000';
  (* The message length in bits, 64-bit big-endian. *)
  Bytes.set_int64_be blk 56 (Int64.of_int bitlen);
  compress c.state blk 0 1;
  c.fill <- 0;
  hex c

let digest s =
  let c = init () in
  feed_string c s;
  finish c
