(** Decimal rendering without [Printf].  Log rows render every timestamp,
    address, port and count, so these append straight into a [Buffer.t]
    (no intermediate string) or build the result string in one
    allocation.  Digits are produced from the non-positive side, where
    every value including [min_int] is representable. *)

(* Digits of [n <= 0], most significant first.  Depth <= 19. *)
let rec add_neg b n =
  if n <= -10 then add_neg b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

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
       quotient always fits. *)
    let q = Int64.to_int (Int64.div v 10L) and r = Int64.to_int (Int64.rem v 10L) in
    if q < 0 then begin
      Buffer.add_char b '-';
      add_neg b q
    end
    else add_neg b (-q);
    Buffer.add_char b (Char.unsafe_chr (48 + abs r))
  end

(** Append [n >= 0] zero-padded to at least [width] digits (["%0*d"]). *)
let add_padded b ~width n =
  let rec digits n acc = if n < 10 then acc else digits (n / 10) (acc + 1) in
  for _ = digits n 1 + 1 to width do
    Buffer.add_char b '0'
  done;
  add_neg b (-n)

(* Number of digits of [n <= 0]. *)
let rec width_neg n = if n > -10 then 1 else 1 + width_neg (n / 10)

(** [string_of_int], in one allocation. *)
let int_to_string n =
  let neg = if n < 0 then n else -n in
  let sign = if n < 0 then 1 else 0 in
  let len = sign + width_neg neg in
  let s = Bytes.create len in
  if sign = 1 then Bytes.unsafe_set s 0 '-';
  let rec fill i n =
    Bytes.unsafe_set s i (Char.unsafe_chr (48 - (n mod 10)));
    if n <= -10 then fill (i - 1) (n / 10)
  in
  fill (len - 1) neg;
  Bytes.unsafe_to_string s

(** [Int64.to_string]. *)
let int64_to_string v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then int_to_string n
  else begin
    let b = Buffer.create 20 in
    add_int64 b v;
    Buffer.contents b
  end

(** Render through an [add_*] writer into a fresh string. *)
let to_string ~size add x =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b
