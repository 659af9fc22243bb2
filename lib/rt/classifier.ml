(** ACL-style packet classification (HILTI [classifier], §3.2, §5).

    Rules are tuples of bit-prefix fields (the internal encoding HILTI uses
    for addresses-with-masks, ports, and integers); a lookup key supplies a
    full-length bit string per field and the classifier returns the value of
    the highest-priority matching rule.

    Lookup is the prototype's first-match scan over the rules sorted by
    priority.  The paper notes that this "does not scale with larger
    numbers of rules" (§5) and leaves faster structures as future work;
    no workload here puts classification on its critical path. *)

type field = {
  data : string;  (** big-endian bit string; only [plen] leading bits matter *)
  plen : int;     (** significant prefix length in bits; 0 = wildcard *)
}

let wildcard = { data = ""; plen = 0 }

let field_of_string ?plen data =
  let plen = match plen with Some p -> p | None -> 8 * String.length data in
  if plen < 0 || plen > 8 * String.length data then
    invalid_arg "Classifier.field_of_string"
  else { data; plen }

(* [a] and [b] agree on bytes [i .. n - 1]. *)
let rec bytes_equal a b i n = i >= n || (a.[i] = b.[i] && bytes_equal a b (i + 1) n)

(** [field_matches f key] tests the first [f.plen] bits of [key] against
    [f.data]: [f.plen / 8] whole bytes, then the [f.plen mod 8] leading
    bits of one more byte.  A key shorter than the prefix cannot match. *)
let field_matches f key =
  let whole = f.plen lsr 3 and rest = f.plen land 7 in
  8 * String.length key >= f.plen
  && bytes_equal f.data key 0 whole
  && (rest = 0
     || (Char.code f.data.[whole] lxor Char.code key.[whole]) lsr (8 - rest) = 0)

type 'a rule = { fields : field array; priority : int; value : 'a }

type 'a t = {
  nfields : int;
  mutable rules : 'a rule list;  (* insertion order, newest first *)
  mutable compiled : 'a rule list option;  (* highest priority first *)
}

let create nfields =
  if nfields <= 0 then invalid_arg "Classifier.create";
  { nfields; rules = []; compiled = None }

exception Not_compiled
exception Already_compiled

(** Add a rule.  Priority defaults to 0; among equal priorities the rule
    added first wins, matching the firewall's first-match semantics. *)
let add t ?(priority = 0) fields value =
  if Option.is_some t.compiled then raise Already_compiled;
  if Array.length fields <> t.nfields then invalid_arg "Classifier.add";
  t.rules <- { fields; priority; value } :: t.rules

(** Freeze the rule set.  The sort is stable over insertion order, so
    equal priorities keep the earliest-added rule first. *)
let compile t =
  t.compiled <-
    Some
      (List.stable_sort
         (fun a b -> Int.compare b.priority a.priority)
         (List.rev t.rules))

let rec first_match keys = function
  | [] -> None
  | r :: rest ->
      if Array.for_all2 field_matches r.fields keys then Some r.value
      else first_match keys rest

(** Look up the value of the highest-priority rule matching the key
    fields; the classifier must be compiled first. *)
let get t keys =
  if Array.length keys <> t.nfields then invalid_arg "Classifier.get";
  match t.compiled with
  | Some rules -> first_match keys rules
  | None -> raise Not_compiled

(* Field encodings for common key types ------------------------------------ *)

open Hilti_types

(** Encode an address as a family tag byte, then its bits: 4 bytes for
    IPv4, 16 for IPv6.  The tag is part of every prefix, so a rule of one
    family never matches a key of the other, as in [Network.contains]: an
    IPv4 [10.0.0.0/8] does not cover [::ffff:10.1.2.3], and [::/0] covers
    no IPv4 address.  [plen] counts address bits; it defaults to the whole
    address. *)
let field_of_addr ?plen a =
  let b =
    if Addr.is_ipv4 a then begin
      let b = Bytes.create 5 in
      Bytes.set b 0 '\004';
      Bytes.set_int32_be b 1 (Int32.of_int (Addr.to_ipv4_int a));
      b
    end
    else begin
      let b = Bytes.create 17 in
      Bytes.set b 0 '\006';
      Addr.write_be b 1 a;
      b
    end
  in
  let plen = match plen with Some p -> 8 + p | None -> 8 * Bytes.length b in
  field_of_string ~plen (Bytes.unsafe_to_string b)

let field_of_network n =
  field_of_addr ~plen:(Network.length n) (Network.prefix n)

let field_of_port p =
  let b = Bytes.create 2 in
  Bytes.set_uint16_be b 0 (Port.number p);
  field_of_string (Bytes.unsafe_to_string b)

let key_of_addr a = (field_of_addr a).data
