(** IP addresses, transparently supporting both IPv4 and IPv6 (HILTI [addr]).

    Addresses are stored uniformly as a 128-bit quantity held in two 64-bit
    halves, with IPv4 addresses occupying the low 32 bits of an
    IPv4-in-IPv6-mapped representation.  This mirrors HILTI's design where a
    single first-class type covers both families and host applications never
    need family-discrimination logic. *)

type family = IPv4 | IPv6

type t = { hi : int64; lo : int64; family : family }

let v4_prefix_lo = 0x0000_ffff_0000_0000L

(** The IPv4 address whose 32 bits are the low bits of [i]; [a.b.c.d]
    maps to ::ffff:a.b.c.d.  It takes a plain int so a caller reading the
    address off the wire boxes no [int32]. *)
let of_ipv4_int (i : int) : t =
  { hi = 0L; lo = Int64.logor v4_prefix_lo (Int64.of_int (i land 0xffff_ffff)); family = IPv4 }

let of_ipv4_int32 (i : int32) : t = of_ipv4_int (Int32.to_int i)

let of_ipv4_octets a b c d =
  of_ipv4_int (((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8) lor (d land 0xff))

let of_ipv6_int64s hi lo = { hi; lo; family = IPv6 }

let family t = t.family

let is_ipv4 t = t.family = IPv4

(** Low 32 bits as an unsigned int; meaningful for IPv4 addresses. *)
let to_ipv4_int t = Int64.to_int (Int64.logand t.lo 0xffff_ffffL)

(** Write the 128 bits as 16 big-endian bytes at [off] of [b]: the binary
    form of container keys and of IPv6 classifier fields. *)
let write_be b off t =
  Bytes.set_int64_be b off t.hi;
  Bytes.set_int64_be b (off + 8) t.lo

let compare a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c
  else
    let c = Int64.unsigned_compare a.lo b.lo in
    if c <> 0 then c else compare a.family b.family

let equal a b = compare a b = 0

let hash t = Hashtbl.hash (t.hi, t.lo)

(* Parsing ---------------------------------------------------------------- *)

exception Invalid of string

let parse_ipv4 s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> raise (Invalid s)
      in
      of_ipv4_octets (octet a) (octet b) (octet c) (octet d)
  | _ -> raise (Invalid s)

(* IPv6 textual form: groups of hex separated by ':', with at most one '::'
   eliding a run of zero groups.  An embedded trailing IPv4 dotted-quad is
   also accepted (e.g. ::ffff:1.2.3.4). *)
let parse_ipv6 s =
  let expand_groups parts =
    List.concat_map
      (fun p ->
        if String.contains p '.' then
          let v4 = parse_ipv4 p in
          let low = Int64.to_int (Int64.logand v4.lo 0xffff_ffffL) in
          [ (low lsr 16) land 0xffff; low land 0xffff ]
        else if p = "" then raise (Invalid s)
        else
          match int_of_string_opt ("0x" ^ p) with
          | Some v when v >= 0 && v <= 0xffff -> [ v ]
          | _ -> raise (Invalid s))
      parts
  in
  let split_double_colon str =
    let rec find i =
      if i + 1 >= String.length str then None
      else if str.[i] = ':' && str.[i + 1] = ':' then Some i
      else find (i + 1)
    in
    find 0
  in
  let groups =
    match split_double_colon s with
    | None -> expand_groups (String.split_on_char ':' s)
    | Some i ->
        let left = String.sub s 0 i in
        let right = String.sub s (i + 2) (String.length s - i - 2) in
        let parse_side side =
          if side = "" then []
          else expand_groups (String.split_on_char ':' side)
        in
        let l = parse_side left and r = parse_side right in
        let missing = 8 - List.length l - List.length r in
        if missing < 0 then raise (Invalid s)
        else l @ List.init missing (fun _ -> 0) @ r
  in
  if List.length groups <> 8 then raise (Invalid s);
  let word64 g0 g1 g2 g3 =
    Int64.logor
      (Int64.shift_left (Int64.of_int g0) 48)
      (Int64.logor
         (Int64.shift_left (Int64.of_int g1) 32)
         (Int64.logor (Int64.shift_left (Int64.of_int g2) 16) (Int64.of_int g3)))
  in
  match groups with
  | [ g0; g1; g2; g3; g4; g5; g6; g7 ] ->
      of_ipv6_int64s (word64 g0 g1 g2 g3) (word64 g4 g5 g6 g7)
  | _ -> raise (Invalid s)

let of_string s =
  if String.contains s ':' then parse_ipv6 s else parse_ipv4 s

let of_string_opt s = try Some (of_string s) with Invalid _ -> None

(* Printing --------------------------------------------------------------- *)

let add_ipv4 b t =
  let i = to_ipv4_int t in
  Digits.add_int b ((i lsr 24) land 0xff);
  Buffer.add_char b '.';
  Digits.add_int b ((i lsr 16) land 0xff);
  Buffer.add_char b '.';
  Digits.add_int b ((i lsr 8) land 0xff);
  Buffer.add_char b '.';
  Digits.add_int b (i land 0xff)

let groups_of t =
  let g64 w =
    [ Int64.to_int (Int64.logand (Int64.shift_right_logical w 48) 0xffffL);
      Int64.to_int (Int64.logand (Int64.shift_right_logical w 32) 0xffffL);
      Int64.to_int (Int64.logand (Int64.shift_right_logical w 16) 0xffffL);
      Int64.to_int (Int64.logand w 0xffffL) ]
  in
  g64 t.hi @ g64 t.lo

let ipv6_to_string t =
  (* Find the longest run of zero groups (length >= 2) to compress as ::. *)
  let groups = Array.of_list (groups_of t) in
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if groups.(!i) = 0 then begin
      let j = ref !i in
      while !j < 8 && groups.(!j) = 0 do incr j done;
      if !j - !i > !best_len then begin
        best_len := !j - !i;
        best_start := !i
      end;
      i := !j
    end
    else incr i
  done;
  let buf = Buffer.create 40 in
  if !best_len >= 2 then begin
    for k = 0 to !best_start - 1 do
      if k > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(k))
    done;
    Buffer.add_string buf "::";
    for k = !best_start + !best_len to 7 do
      if k > !best_start + !best_len then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(k))
    done
  end
  else
    for k = 0 to 7 do
      if k > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(k))
    done;
  Buffer.contents buf

let to_string t =
  match t.family with
  | IPv4 -> Digits.to_string ~size:16 add_ipv4 t
  | IPv6 -> ipv6_to_string t

let add_to_buffer b t =
  match t.family with IPv4 -> add_ipv4 b t | IPv6 -> Buffer.add_string b (ipv6_to_string t)

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Arithmetic helpers used by the classifier and trace generator ----------- *)

(** Mask an address down to its first [len] bits (0..128 semantics; for IPv4
    addresses [len] counts from bit 96, i.e. a /24 passes len=24). *)
let mask t len =
  let len = if t.family = IPv4 then len + 96 else len in
  let len = if len < 0 then 0 else if len > 128 then 128 else len in
  let mask64 bits =
    if bits <= 0 then 0L
    else if bits >= 64 then -1L
    else Int64.shift_left (-1L) (64 - bits)
  in
  { t with
    hi = Int64.logand t.hi (mask64 len);
    lo = Int64.logand t.lo (mask64 (len - 64)) }
