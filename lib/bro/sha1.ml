(** SHA-1 (FIPS 180-4, RFC 3174), used by the file-analysis script for
    files.log body hashes, matching Bro's files.log [sha1] column.

    One streaming kernel: a context is fed byte ranges as they arrive
    ({!feed_bytes}, {!feed_string}) and {!finish}ed once.  Words are native
    ints masked to 32 bits, the message schedule lives in a reused [int
    array], and only a partial 64-byte block is ever buffered, so hashing
    allocates nothing per byte or per block — a whole body is never held
    in memory to be hashed. *)

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  block : Bytes.t;      (* pending bytes of the current 64-byte block *)
  mutable fill : int;   (* bytes used in [block] *)
  mutable total : int;  (* message bytes fed so far *)
  w : int array;        (* message schedule, reused for every block *)
}

let mask = 0xFFFFFFFF

(** Start a new message in [c], reusing its buffers. *)
let reset c =
  c.h0 <- 0x67452301;
  c.h1 <- 0xEFCDAB89;
  c.h2 <- 0x98BADCFE;
  c.h3 <- 0x10325476;
  c.h4 <- 0xC3D2E1F0;
  c.fill <- 0;
  c.total <- 0

(** A fresh context. *)
let init () =
  let c =
    { h0 = 0; h1 = 0; h2 = 0; h3 = 0; h4 = 0; block = Bytes.create 64;
      fill = 0; total = 0; w = Array.make 80 0 }
  in
  reset c;
  c

(** Message bytes fed since {!init} or {!reset}. *)
let length c = c.total

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* The stage functions of FIPS 180-4 §4.1.1. *)
let[@inline] ch x y z = (x land y) lor (lnot x land z)
let[@inline] parity x y z = x lxor y lxor z
let[@inline] maj x y z = (x land y) lor (x land z) lor (y land z)

(* One round's new word: [e + rotl a 5 + f + k + w.(t)] mod 2^32.  The
   rotation skips its own mask: only the low 32 bits of the sum survive. *)
let[@inline] round e a f k w t =
  (e + ((a lsl 5) lor (a lsr 27)) + f + k + Array.unsafe_get w t) land mask

(* Add a block's working variables into the chaining state. *)
let add_state c a b cc d e =
  c.h0 <- (c.h0 + a) land mask;
  c.h1 <- (c.h1 + b) land mask;
  c.h2 <- (c.h2 + cc) land mask;
  c.h3 <- (c.h3 + d) land mask;
  c.h4 <- (c.h4 + e) land mask

(* Five rounds per step with the roles of a..e rotated instead of the
   values moved; self tail calls keep the state in registers. *)
let rec stage1 c w t a b cc d e =
  if t = 20 then stage2 c w t a b cc d e
  else
    let e = round e a (ch b cc d) 0x5A827999 w t in
    let b = rotl b 30 in
    let d = round d e (ch a b cc) 0x5A827999 w (t + 1) in
    let a = rotl a 30 in
    let cc = round cc d (ch e a b) 0x5A827999 w (t + 2) in
    let e = rotl e 30 in
    let b = round b cc (ch d e a) 0x5A827999 w (t + 3) in
    let d = rotl d 30 in
    let a = round a b (ch cc d e) 0x5A827999 w (t + 4) in
    let cc = rotl cc 30 in
    stage1 c w (t + 5) a b cc d e

and stage2 c w t a b cc d e =
  if t = 40 then stage3 c w t a b cc d e
  else
    let e = round e a (parity b cc d) 0x6ED9EBA1 w t in
    let b = rotl b 30 in
    let d = round d e (parity a b cc) 0x6ED9EBA1 w (t + 1) in
    let a = rotl a 30 in
    let cc = round cc d (parity e a b) 0x6ED9EBA1 w (t + 2) in
    let e = rotl e 30 in
    let b = round b cc (parity d e a) 0x6ED9EBA1 w (t + 3) in
    let d = rotl d 30 in
    let a = round a b (parity cc d e) 0x6ED9EBA1 w (t + 4) in
    let cc = rotl cc 30 in
    stage2 c w (t + 5) a b cc d e

and stage3 c w t a b cc d e =
  if t = 60 then stage4 c w t a b cc d e
  else
    let e = round e a (maj b cc d) 0x8F1BBCDC w t in
    let b = rotl b 30 in
    let d = round d e (maj a b cc) 0x8F1BBCDC w (t + 1) in
    let a = rotl a 30 in
    let cc = round cc d (maj e a b) 0x8F1BBCDC w (t + 2) in
    let e = rotl e 30 in
    let b = round b cc (maj d e a) 0x8F1BBCDC w (t + 3) in
    let d = rotl d 30 in
    let a = round a b (maj cc d e) 0x8F1BBCDC w (t + 4) in
    let cc = rotl cc 30 in
    stage3 c w (t + 5) a b cc d e

and stage4 c w t a b cc d e =
  if t = 80 then add_state c a b cc d e
  else
    let e = round e a (parity b cc d) 0xCA62C1D6 w t in
    let b = rotl b 30 in
    let d = round d e (parity a b cc) 0xCA62C1D6 w (t + 1) in
    let a = rotl a 30 in
    let cc = round cc d (parity e a b) 0xCA62C1D6 w (t + 2) in
    let e = rotl e 30 in
    let b = round b cc (parity d e a) 0xCA62C1D6 w (t + 3) in
    let d = rotl d 30 in
    let a = round a b (parity cc d e) 0xCA62C1D6 w (t + 4) in
    let cc = rotl cc 30 in
    stage4 c w (t + 5) a b cc d e

(* Compress the 64-byte block of [src] at [off] into the chaining state. *)
let compress c src off =
  let w = c.w in
  for t = 0 to 15 do
    let p = off + (4 * t) in
    Array.unsafe_set w t
      ((Bytes.get_uint16_be src p lsl 16) lor Bytes.get_uint16_be src (p + 2))
  done;
  for t = 16 to 79 do
    Array.unsafe_set w t
      (rotl
         (Array.unsafe_get w (t - 3)
         lxor Array.unsafe_get w (t - 8)
         lxor Array.unsafe_get w (t - 14)
         lxor Array.unsafe_get w (t - 16))
         1)
  done;
  stage1 c w 0 c.h0 c.h1 c.h2 c.h3 c.h4

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
      compress c c.block 0;
      c.fill <- 0
    end
  end;
  while !len >= 64 do
    compress c src !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !off c.block 0 !len;
    c.fill <- !len
  end

let feed_string c s = feed_bytes c (Bytes.unsafe_of_string s) 0 (String.length s)

(* Hex digest of the chaining state. *)
let hex c =
  let out = Bytes.create 40 in
  let digits = "0123456789abcdef" in
  List.iteri
    (fun i h ->
      for j = 0 to 7 do
        Bytes.unsafe_set out ((8 * i) + j)
          digits.[(h lsr (28 - (4 * j))) land 0xf]
      done)
    [ c.h0; c.h1; c.h2; c.h3; c.h4 ];
  Bytes.unsafe_to_string out

(** Pad, compress the last block(s) and return the lowercase hex digest.
    The context must be {!reset} before it hashes another message. *)
let finish c =
  let bitlen = c.total * 8 in
  let blk = c.block in
  Bytes.set blk c.fill '\x80';
  if c.fill >= 56 then begin
    Bytes.fill blk (c.fill + 1) (63 - c.fill) '\000';
    compress c blk 0;
    Bytes.fill blk 0 56 '\000'
  end
  else Bytes.fill blk (c.fill + 1) (55 - c.fill) '\000';
  (* The message length in bits, 64-bit big-endian. *)
  for i = 0 to 7 do
    Bytes.set blk (63 - i) (Char.unsafe_chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  compress c blk 0;
  c.fill <- 0;
  hex c

let digest s =
  let c = init () in
  feed_string c s;
  finish c
