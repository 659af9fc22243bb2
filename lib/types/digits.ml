(** Decimal rendering without [Printf].  Log rows render every timestamp,
    address, port and count, so these append straight into a [Buffer.t]
    (no intermediate string), build the result string in one allocation,
    or fill a [Bytes.t] the caller has already sized with {!width}.

    Every writer emits two digits per step, copying the pair for
    [n mod 100] out of [pairs] as one 16-bit store (into the [Buffer.t],
    or into the [Bytes.t] right to left), so a 19-digit timestamp takes
    ten steps instead of nineteen.  [pairs] is an immutable string built
    once at module initialisation, so shard domains read it concurrently
    without synchronisation; nothing here keeps scratch state.  Digits
    are produced from the non-positive side, where every value including
    [min_int] is representable. *)

(* "00" "01" ... "99": the pair for [k] is at [2 * k]. *)
let pairs =
  String.init 200 (fun i -> Char.unsafe_chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Native-endian 16-bit reads and writes: a pair is copied as it is
   stored, whatever the byte order. *)
external get_pair : string -> int -> int = "%caml_string_get16u"
external set_pair : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* The pair of [n] (-99..0). *)
let pair n = get_pair pairs (-2 * n)

(* Digits of [n <= 0], most significant first.  Depth <= 10.  [n mod
   100] is [n - 100 * (n / 100)], which saves the second division. *)
let rec add_neg b n =
  if n > -10 then Buffer.add_char b (Char.unsafe_chr (48 - n))
  else if n > -100 then Buffer.add_uint16_ne b (pair n)
  else begin
    let q = n / 100 in
    add_neg b q;
    Buffer.add_uint16_ne b (pair (n - (100 * q)))
  end

(* Number of digits of [n <= 0]: a search over the 19 possible counts,
   small values first (octets, ports and 19-digit nanosecond timestamps
   each take four comparisons), with no table. *)
let digits_neg n =
  if n > -100_000_000 then
    if n > -10_000 then
      if n > -100 then if n > -10 then 1 else 2 else if n > -1_000 then 3 else 4
    else if n > -1_000_000 then if n > -100_000 then 5 else 6
    else if n > -10_000_000 then 7
    else 8
  else if n > -10_000_000_000_000_000 then
    if n > -1_000_000_000_000 then
      if n > -10_000_000_000 then if n > -1_000_000_000 then 9 else 10
      else if n > -100_000_000_000 then 11
      else 12
    else if n > -100_000_000_000_000 then if n > -10_000_000_000_000 then 13 else 14
    else if n > -1_000_000_000_000_000 then 15
    else 16
  else if n > -100_000_000_000_000_000 then 17
  else if n > -1_000_000_000_000_000_000 then 18
  else 19

(** Characters in the decimal form of [n], sign included:
    [String.length (string_of_int n)]. *)
let width n = if n < 0 then 1 + digits_neg n else digits_neg (-n)

(* Digits of [n <= 0] into [s] right to left, the last one at [i]. *)
let rec fill_neg s i n =
  if n > -10 then Bytes.unsafe_set s i (Char.unsafe_chr (48 - n))
  else begin
    let q = n / 100 in
    set_pair s (i - 1) (pair (n - (100 * q)));
    if q < 0 then fill_neg s (i - 2) q
  end

(* The [len = width n] characters of [n] at [pos] of [s], unchecked. *)
let fill s pos len n =
  if n < 0 then begin
    Bytes.unsafe_set s pos '-';
    fill_neg s (pos + len - 1) n
  end
  else fill_neg s (pos + len - 1) (-n)

(** Write the decimal form of [n] (["%d"]) into [s] at [pos]; returns the
    position after it.  Raises [Invalid_argument] if it does not fit. *)
let write_int s pos n =
  let len = width n in
  if pos < 0 || pos > Bytes.length s - len then invalid_arg "Digits.write_int";
  fill s pos len n;
  pos + len

(** Append the decimal form of [n] (["%d"]). *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg b n
  end
  else add_neg b (-n)

(** Append the decimal form of [v] (["%Ld"]). *)
let add_int64 b v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then add_int b n
  else begin
    (* Beyond the native int range: peel the last digit in Int64; the
       quotient always fits and carries the sign. *)
    add_int b (Int64.to_int (Int64.div v 10L));
    Buffer.add_char b (Char.unsafe_chr (48 + abs (Int64.to_int (Int64.rem v 10L))))
  end

(** Append [n] zero-padded to at least [width] characters (["%0*d"]; a
    sign counts toward the width and precedes the zeros). *)
let add_padded b ~width:w n =
  let neg = if n < 0 then (Buffer.add_char b '-'; n) else -n in
  for _ = width n + 1 to w do
    Buffer.add_char b '0'
  done;
  add_neg b neg

(** Render through an [add_*] writer into a fresh string. *)
let to_string ~size add x =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

(** [string_of_int], in one allocation. *)
let int_to_string n =
  let len = width n in
  let s = Bytes.create len in
  fill s 0 len n;
  Bytes.unsafe_to_string s

(** [Int64.to_string]. *)
let int64_to_string v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then int_to_string n else to_string ~size:20 add_int64 v
