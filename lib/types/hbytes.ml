(** Raw byte sequences (HILTI [bytes]).

    A [bytes] object is an append-only stream of raw data with type-safe
    iterators, designed for incremental protocol parsing: producers append
    chunks as they arrive from the network, parsers walk iterators over the
    stream, and reaching the current end raises [Would_block] — the signal
    for a parsing fiber to suspend until more input arrives.  Freezing the
    object declares the stream complete, turning the end into a definite
    end-of-data.

    Consumed data can be trimmed to bound memory; iterators keep *absolute*
    stream offsets, so trimming never invalidates iterators that still point
    at retained data. *)

exception Would_block
(** Raised when dereferencing or advancing past the current end of a
    non-frozen bytes object: more data may still arrive. *)

exception Out_of_range
(** Raised when accessing trimmed data or past the end of a frozen object. *)

exception Frozen
(** Raised when appending to a frozen object. *)

exception Stale_view
(** Raised when reading through a {!view} after the underlying object
    mutated (append or trim): the view's generation no longer matches. *)

type t = {
  mutable buf : Bytes.t;  (* storage holding the retained window *)
  mutable off : int;      (* index in [buf] of absolute offset [base] *)
  mutable base : int;     (* absolute offset of first retained byte *)
  mutable len : int;      (* number of retained bytes *)
  mutable frozen : bool;
  mutable gen : int;
      (* memo generation: bumped on every mutation of the window (append,
         trim).  Views capture it at creation and refuse to read once it
         moved on — stale data can never leak through a slice. *)
  mutable cached : string;
      (* memoized [to_string] of the current window, or [no_cache];
         invalidated whenever the window changes (append, trim).  Token
         matching and equality call [to_string] on the same frozen payload
         repeatedly, so this turns the per-call copy into a single one. *)
}

(* The [cached] of an object with no memoized string.  A memo is valid
   exactly when its length is the window's: every change to the window
   resets it to this, and for an empty window it is the answer itself. *)
let no_cache = ""

type iter = { bytes : t; pos : int }
(** Iterators are immutable values holding an absolute stream offset. *)

let create () =
  { buf = Bytes.create 64; off = 0; base = 0; len = 0; frozen = false; gen = 0;
    cached = no_cache }

let of_string s =
  {
    buf = Bytes.of_string s;
    off = 0;
    base = 0;
    len = String.length s;
    frozen = false;
    gen = 0;
    cached = s;
  }

(** Wrap [s] as an already-frozen bytes object {e without copying}: the
    string itself becomes the backing buffer.  Safe because a frozen
    object rejects appends, trimming only narrows the window, and
    [ensure_room]'s compaction can never run — the backing bytes are
    immutable for the object's whole lifetime.  This is the per-packet
    fast path: a datagram payload becomes parseable with one small
    allocation and zero byte copies. *)
let frozen_of_string s =
  {
    buf = Bytes.unsafe_of_string s;
    off = 0;
    base = 0;
    len = String.length s;
    frozen = true;
    gen = 0;
    cached = s;
  }

let length t = t.len

(** Copy the retained window into [dst] at [pos]. *)
let blit_to_bytes t dst pos = Bytes.blit t.buf t.off dst pos t.len

(** Append the retained window to [b], without an intermediate string. *)
let add_to_buffer b t = Buffer.add_subbytes b t.buf t.off t.len

let start_offset t = t.base
let end_offset t = t.base + t.len
let is_frozen t = t.frozen

let ensure_room t extra =
  let need = t.off + t.len + extra in
  if need > Bytes.length t.buf then begin
    (* Compact to the front first; grow only if still too small. *)
    Bytes.blit t.buf t.off t.buf 0 t.len;
    t.off <- 0;
    let need = t.len + extra in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap < need do cap := !cap * 2 done;
      let nbuf = Bytes.create !cap in
      Bytes.blit t.buf 0 nbuf 0 t.len;
      t.buf <- nbuf
    end
  end

(** Append the slice [s.[off, off + n)]: the one copy of stream data into
    the buffer. *)
let append_sub t s off n =
  if t.frozen then raise Frozen;
  ensure_room t n;
  Bytes.blit_string s off t.buf (t.off + t.len) n;
  t.len <- t.len + n;
  if n > 0 then begin
    t.cached <- no_cache;
    t.gen <- t.gen + 1
  end

let append t s = append_sub t s 0 (String.length s)

let freeze t = t.frozen <- true

(* Observation hook for trims.  This layer sits below the metrics library,
   so instrumentation is injected from above (the analyzer driver installs
   a counter increment); the default is a no-op. *)
let on_trim : (int -> unit) ref = ref (fun _ -> ())

let set_on_trim f = on_trim := f

(** Drop all data strictly before iterator [it]; accessing it afterwards
    raises [Out_of_range]. *)
let trim t (it : iter) =
  if it.pos > t.base then begin
    let upto = Stdlib.min it.pos (t.base + t.len) in
    let drop = upto - t.base in
    t.off <- t.off + drop;
    t.base <- upto;
    t.len <- t.len - drop;
    if drop > 0 then begin
      t.cached <- no_cache;
      t.gen <- t.gen + 1;
      !on_trim drop
    end
  end

(* Iterators --------------------------------------------------------------- *)

(** Drop the first [n] retained bytes — the window-relative trim the
    incremental stream parsers use after consuming a message. *)
let trim_front t n = if n > 0 then trim t { bytes = t; pos = t.base + n }

let begin_ t : iter = { bytes = t; pos = t.base }
let end_ t : iter = { bytes = t; pos = t.base + t.len }
let iter_at t pos : iter = { bytes = t; pos }

let offset (it : iter) = it.pos

(** True iff the iterator sits at the current end of the stream. *)
let at_end (it : iter) = it.pos >= end_offset it.bytes

(** True iff no byte can ever be read at this iterator (frozen + at end). *)
let is_eod (it : iter) = at_end it && it.bytes.frozen

let check_readable (it : iter) =
  if it.pos < it.bytes.base then raise Out_of_range;
  if it.pos >= end_offset it.bytes then
    if it.bytes.frozen then raise Out_of_range else raise Would_block

(** Byte under the iterator, as an int in 0..255. *)
let get (it : iter) =
  check_readable it;
  Char.code (Bytes.get it.bytes.buf (it.bytes.off + it.pos - it.bytes.base))

let incr (it : iter) : iter = { it with pos = it.pos + 1 }

let advance (it : iter) n : iter =
  if n < 0 then invalid_arg "Hbytes.advance";
  { it with pos = it.pos + n }

(** Signed distance in bytes from [a] to [b] (same underlying object). *)
let distance (a : iter) (b : iter) = b.pos - a.pos

let iter_equal (a : iter) (b : iter) = a.bytes == b.bytes && a.pos = b.pos

(** All currently retained data as a string, memoized until the window
    changes.  When the object is frozen and the window spans the whole
    backing buffer, the buffer itself is exposed without copying: a frozen
    object rejects appends and trimming only narrows the window (which
    invalidates the cache), so the backing bytes can never change under
    the returned string. *)
let to_string t =
  if String.length t.cached = t.len then t.cached
  else
    let s =
      if t.frozen && t.off = 0 && t.len = Bytes.length t.buf then Bytes.unsafe_to_string t.buf
      else Bytes.sub_string t.buf t.off t.len
    in
    t.cached <- s;
    s

(** Extract the bytes of [t] at absolute offsets [\[a, b)] as a string.
    Both must point into retained, available data.  A whole-window
    extraction reuses the [to_string] cache instead of copying again. *)
let sub_at t a b =
  if a < t.base || b > end_offset t || a > b then raise Out_of_range;
  if a = t.base && b = end_offset t then to_string t
  else Bytes.sub_string t.buf (t.off + a - t.base) (b - a)

(** {!sub_at} between two iterators into the same object. *)
let sub (a : iter) (b : iter) = sub_at a.bytes a.pos b.pos

(** [available it] is the number of bytes readable from [it] right now. *)
let available (it : iter) = Stdlib.max 0 (end_offset it.bytes - it.pos)

(** [require_at t pos n] checks that [n] bytes can be read from [t] at
    absolute offset [pos]; raises [Would_block] (or [Out_of_range] when
    frozen) otherwise.  The position-based forms below serve callers that
    keep a position without an {!iter} record around it. *)
let require_at t pos n =
  if pos < t.base then raise Out_of_range;
  if Stdlib.max 0 (end_offset t - pos) < n then
    if t.frozen then raise Out_of_range else raise Would_block

(** [require it n] is [require_at] at [it]. *)
let require (it : iter) n = require_at it.bytes it.pos n

(** Read exactly [n] bytes starting at [it]; returns data and new iterator. *)
let read (it : iter) n =
  require it n;
  (sub it (advance it n), advance it n)

(* Searching --------------------------------------------------------------- *)

(** Find the first occurrence of [needle] at or after [it] within currently
    available data.  [None] means not found *so far*: on a non-frozen object
    the caller may need to wait for more data. *)
(* Closure-free needle comparison: keeping every parameter explicit stops
   the compiler from allocating a closure per scanned position, which used
   to dominate the line-oriented parsers' allocation profile. *)
let rec needle_matches buf phys needle k nlen =
  k >= nlen
  || (Bytes.get buf (phys + k) = needle.[k]
     && needle_matches buf phys needle (k + 1) nlen)

let find (it : iter) needle =
  let t = it.bytes in
  let nlen = String.length needle in
  if nlen = 0 then Some it
  else if it.pos < t.base then raise Out_of_range
  else begin
    let from = Stdlib.max it.pos t.base in
    if nlen = 1 then
      (* memchr: the dominant case (line terminators). *)
      let start = t.off + from - t.base in
      if start >= t.off + t.len then None
      else
        match Bytes.index_from_opt t.buf start needle.[0] with
        | Some p when p < t.off + t.len -> Some { it with pos = t.base + p - t.off }
        | _ -> None
    else begin
      let limit = end_offset t - nlen in
      let c0 = needle.[0] in
      let rec scan pos =
        if pos > limit then None
        else
          let phys = t.off + pos - t.base in
          if Bytes.unsafe_get t.buf phys = c0
             && needle_matches t.buf phys needle 1 nlen
          then Some { it with pos }
          else scan (pos + 1)
      in
      scan from
    end
  end

(** [match_prefix it s] checks whether the data at [it] starts with [s];
    raises [Would_block] if not enough data is available to decide. *)
let match_prefix (it : iter) s =
  let n = String.length s in
  let t = it.bytes in
  let rec check k =
    k >= n
    || Bytes.get t.buf (t.off + it.pos - t.base + k) = s.[k] && check (k + 1)
  in
  if available it >= n then check 0
  else begin
    (* Even with partial data we can answer "no" early on a mismatch. *)
    let avail = available it in
    let rec partial k =
      if k >= avail then
        if t.frozen then false else raise Would_block
      else if Bytes.get t.buf (t.off + it.pos - t.base + k) <> s.[k] then false
      else partial (k + 1)
    in
    if it.pos < t.base then raise Out_of_range else partial 0
  end

(* Unpacking binary data, the substrate of overlays ------------------------ *)

(** Byte order for multi-byte integer decoding. *)
type order = Big | Little

let read_uint (it : iter) ~width ~order =
  require it width;
  let t = it.bytes in
  let byte k = Char.code (Bytes.get t.buf (t.off + it.pos - t.base + k)) in
  let v = ref 0L in
  (match order with
  | Big -> for k = 0 to width - 1 do v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte k)) done
  | Little -> for k = width - 1 downto 0 do v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte k)) done);
  (!v, advance it width)

(** The unsigned [len]-byte integer ([len] <= 7) starting [k] bytes past
    absolute offset [pos] of [t], big-endian if [big]; allocation-free.
    The caller must first {!require_at} the bytes. *)
let uint_at_pos t pos ~k ~len ~big =
  let base = t.off + pos - t.base + k in
  let v = ref 0 in
  if big then
    for j = 0 to len - 1 do
      v := (!v lsl 8) lor Char.code (Bytes.get t.buf (base + j))
    done
  else
    for j = len - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get t.buf (base + j))
    done;
  !v

let read_sint (it : iter) ~width ~order =
  let v, it' = read_uint it ~width ~order in
  let bits = width * 8 in
  let v =
    if bits >= 64 then v
    else
      let sign = Int64.shift_left 1L (bits - 1) in
      if Int64.logand v sign <> 0L then Int64.sub v (Int64.shift_left 1L bits) else v
  in
  (v, it')

(* Zero-copy sub-views ----------------------------------------------------- *)

(** A [view] is an offset/length window over the backing buffer with no
    string materialization: reads go straight to the retained bytes.  The
    physical buffer index is resolved once at creation, which is sound
    because every operation that could move the retained bytes (append —
    possibly compacting or reallocating the buffer — and trim) bumps the
    object's memo generation, and every read checks the captured
    generation first: a stale view raises {!Stale_view} instead of ever
    returning bytes from the wrong place. *)
type view = {
  vt : t;        (* underlying object, for the generation check *)
  vphys : int;   (* physical index of the view's first byte in [vt.buf] *)
  vabs : int;    (* absolute stream offset of the view's first byte *)
  vlen : int;
  vgen : int;    (* [vt.gen] at creation *)
}

let check_view v = if v.vgen <> v.vt.gen then raise Stale_view

(** View over the whole currently retained window. *)
let view t : view =
  { vt = t; vphys = t.off; vabs = t.base; vlen = t.len; vgen = t.gen }

(** View over [\[a, b)]; both iterators must point into retained,
    currently available data. *)
let sub_view (a : iter) (b : iter) : view =
  let t = a.bytes in
  if a.pos < t.base || b.pos > end_offset t || a.pos > b.pos then
    raise Out_of_range;
  { vt = t;
    vphys = t.off + a.pos - t.base;
    vabs = a.pos;
    vlen = b.pos - a.pos;
    vgen = t.gen }

(** Sub-slice of a view (relative offset/length). *)
let view_sub (v : view) off len : view =
  check_view v;
  if off < 0 || len < 0 || off + len > v.vlen then raise Out_of_range;
  { v with vphys = v.vphys + off; vabs = v.vabs + off; vlen = len }

let view_length v = v.vlen
let view_offset v = v.vabs

let get_u8 (v : view) i =
  check_view v;
  if i < 0 || i >= v.vlen then raise Out_of_range;
  Char.code (Bytes.unsafe_get v.vt.buf (v.vphys + i))

let get_u16 (v : view) i =
  check_view v;
  if i < 0 || i + 2 > v.vlen then raise Out_of_range;
  let b = v.vt.buf and p = v.vphys + i in
  (Char.code (Bytes.unsafe_get b p) lsl 8) lor Char.code (Bytes.unsafe_get b (p + 1))

let get_u32 (v : view) i =
  check_view v;
  if i < 0 || i + 4 > v.vlen then raise Out_of_range;
  let b = v.vt.buf and p = v.vphys + i in
  (Char.code (Bytes.unsafe_get b p) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (p + 3))

(** First occurrence of byte [c] at or after relative offset [from];
    the returned index is relative to the view. *)
let find_byte (v : view) ?(from = 0) (c : char) : int option =
  check_view v;
  if from < 0 then raise Out_of_range;
  if from >= v.vlen then None
  else
    match Bytes.index_from_opt v.vt.buf (v.vphys + from) c with
    | Some p when p < v.vphys + v.vlen -> Some (p - v.vphys)
    | _ -> None

(** Materialize [len] bytes at relative offset [off] as a string — the
    one place a view turns into a copy, for callers that need a real
    string (semantic field values, log columns). *)
let view_sub_string (v : view) off len : string =
  check_view v;
  if off < 0 || len < 0 || off + len > v.vlen then raise Out_of_range;
  Bytes.sub_string v.vt.buf (v.vphys + off) len

(** The whole view as a string; reuses the [to_string] memo when the view
    spans the full retained window (no copy on the frozen fast path). *)
let view_to_string (v : view) : string =
  check_view v;
  if v.vabs = v.vt.base && v.vlen = v.vt.len then to_string v.vt
  else Bytes.sub_string v.vt.buf v.vphys v.vlen

(** Append [len] bytes at relative offset [off] into [buf] without an
    intermediate string (label/token accumulation on the parse path). *)
let view_add_to_buffer (v : view) off len (buf : Buffer.t) =
  check_view v;
  if off < 0 || len < 0 || off + len > v.vlen then raise Out_of_range;
  Buffer.add_subbytes buf v.vt.buf (v.vphys + off) len

(** Hand the view's bytes to [f x buf off len] without copying them, for
    streaming consumers such as a running hash.  [f] may only read
    [buf.[off .. off+len-1]] and must not keep [buf]: it is the object's
    storage, which the next append may overwrite or move. *)
let view_read (v : view) (f : 'a -> Bytes.t -> int -> int -> unit) (x : 'a) =
  check_view v;
  f x v.vt.buf v.vphys v.vlen

(** A frozen bytes object sharing the view's window — zero-copy when the
    underlying object is frozen (the backing buffer can never move), a
    copy otherwise.  This is how a packet-payload slice enters the
    BinPAC++ runtime without materializing a string. *)
let of_view (v : view) : t =
  check_view v;
  if v.vt.frozen then
    { buf = v.vt.buf; off = v.vphys; base = 0; len = v.vlen; frozen = true;
      gen = 0; cached = no_cache }
  else of_string (view_sub_string v 0 v.vlen)

(** Zero-copy view over [len] bytes of [s] starting at [off]: wraps [s]
    in a frozen object (no byte copy) and slices it.  The packet-payload
    entry point of the analyzer fast path. *)
let view_of_string ?(off = 0) ?len s : view =
  let t = frozen_of_string s in
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > t.len then raise Out_of_range;
  { vt = t; vphys = off; vabs = off; vlen = len; vgen = 0 }

let equal a b = to_string a = to_string b && a.base = b.base
let hash t = Hashtbl.hash (to_string t)
let pp fmt t = Format.fprintf fmt "b\"%s\"" (String.escaped (to_string t))
