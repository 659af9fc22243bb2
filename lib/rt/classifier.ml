(** ACL-style packet classification (HILTI [classifier], §3.2, §5).

    Rules are tuples of bit-prefix fields (the internal encoding HILTI uses
    for addresses-with-masks, ports, and integers); a lookup key supplies a
    full-length bit string per field and the classifier returns the value of
    the highest-priority matching rule.

    Two interchangeable engines implement lookup:
    - [List]: the prototype's linked-list scan ("does not scale with larger
      numbers of rules", §5), and
    - [Trie]: hierarchical binary tries with backtracking, the classic
      packet-classification structure the paper says one could
      "transparently switch to".
    The ablation bench compares the two. *)

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

let bit s i = (Char.code s.[i / 8] lsr (7 - (i mod 8))) land 1

(** [field_matches f key] tests the first [f.plen] bits of [key] against
    [f.data].  A key shorter than the prefix cannot match. *)
let field_matches f key =
  8 * String.length key >= f.plen
  &&
  let rec go i = i >= f.plen || (bit f.data i = bit key i && go (i + 1)) in
  go 0

type 'a rule = { fields : field array; priority : int; value : 'a; seq : int }

type engine = List_scan | Trie

(* Hierarchical trie: one binary trie per field level; a trie node carries
   the rules whose prefix for this field ends exactly here, each pointing to
   the next level (or terminal rules at the last field). *)
type 'a trie_node = {
  mutable zero : 'a trie_node option;
  mutable one : 'a trie_node option;
  mutable here : 'a level option;  (* next-level structure for rules ending here *)
  mutable terminal : 'a rule list;  (* rules complete at the last field *)
}

and 'a level = { trie : 'a trie_node; depth : int (* field index *) }

type 'a t = {
  nfields : int;
  mutable rules : 'a rule list;  (* insertion order, newest first *)
  mutable compiled : 'a rule list option;  (* sorted by priority, List engine *)
  mutable root : 'a level option;  (* Trie engine *)
  engine : engine;
  mutable next_seq : int;
  mutable lookups : int;
  mutable field_tests : int;  (* work metric for the ablation bench *)
}

let create ?(engine = List_scan) nfields =
  if nfields <= 0 then invalid_arg "Classifier.create";
  {
    nfields;
    rules = [];
    compiled = None;
    root = None;
    engine;
    next_seq = 0;
    lookups = 0;
    field_tests = 0;
  }

exception Not_compiled
exception Already_compiled

(** Add a rule.  Priority defaults to 0; among equal priorities the rule
    added first wins, matching the firewall's first-match semantics. *)
let add t ?(priority = 0) fields value =
  if t.compiled <> None || t.root <> None then raise Already_compiled;
  if Array.length fields <> t.nfields then invalid_arg "Classifier.add";
  t.rules <- { fields; priority; value; seq = t.next_seq } :: t.rules;
  t.next_seq <- t.next_seq + 1

let rule_count t = List.length t.rules

(* Rule ordering: higher priority first, then earlier insertion. *)
let rule_order a b =
  let c = Int.compare b.priority a.priority in
  if c <> 0 then c else Int.compare a.seq b.seq

let new_node () = { zero = None; one = None; here = None; terminal = [] }

let rec trie_insert (level : 'a level) nfields (rule : 'a rule) =
  let f = rule.fields.(level.depth) in
  (* Walk/extend the binary trie along the field's prefix bits. *)
  let rec walk node i =
    if i >= f.plen then node
    else
      let next =
        if bit f.data i = 0 then (
          (match node.zero with
          | None -> node.zero <- Some (new_node ())
          | Some _ -> ());
          Option.get node.zero)
        else (
          (match node.one with
          | None -> node.one <- Some (new_node ())
          | Some _ -> ());
          Option.get node.one)
      in
      walk next (i + 1)
  in
  let node = walk level.trie 0 in
  if level.depth = nfields - 1 then node.terminal <- rule :: node.terminal
  else begin
    let next_level =
      match node.here with
      | Some l -> l
      | None ->
          let l = { trie = new_node (); depth = level.depth + 1 } in
          node.here <- Some l;
          l
    in
    trie_insert next_level nfields rule
  end

(** Freeze the rule set and build the lookup structure. *)
let compile t =
  match t.engine with
  | List_scan -> t.compiled <- Some (List.sort rule_order t.rules)
  | Trie ->
      let root = { trie = new_node (); depth = 0 } in
      List.iter (trie_insert root t.nfields) t.rules;
      t.root <- Some root

let matches t rule keys =
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < t.nfields do
    t.field_tests <- t.field_tests + 1;
    if not (field_matches rule.fields.(!i) keys.(!i)) then ok := false;
    incr i
  done;
  !ok

let lookup_list t rules keys =
  let rec go = function
    | [] -> None
    | r :: rest -> if matches t r keys then Some r else go rest
  in
  go rules

let lookup_trie t root keys =
  (* Collect the best rule over all backtracking paths. *)
  let best : 'a rule option ref = ref None in
  let consider r =
    match !best with
    | Some b when rule_order b r <= 0 -> ()
    | _ -> best := Some r
  in
  let rec walk_level (level : 'a level) =
    let key = keys.(level.depth) in
    let nbits = 8 * String.length key in
    let rec descend node i =
      t.field_tests <- t.field_tests + 1;
      List.iter consider node.terminal;
      (match node.here with Some l -> walk_level l | None -> ());
      if i < nbits then
        let next = if bit key i = 0 then node.zero else node.one in
        match next with Some n -> descend n (i + 1) | None -> ()
    in
    descend level.trie 0
  in
  walk_level root;
  !best

(** Look up the highest-priority rule matching the key fields; the
    classifier must be compiled first. *)
let get_rule t keys =
  if Array.length keys <> t.nfields then invalid_arg "Classifier.get";
  t.lookups <- t.lookups + 1;
  match (t.engine, t.compiled, t.root) with
  | List_scan, Some rules, _ -> lookup_list t rules keys
  | Trie, _, Some root -> lookup_trie t root keys
  | _ -> raise Not_compiled

let get t keys = Option.map (fun r -> r.value) (get_rule t keys)

type stats = { lookups : int; field_tests : int }

let stats t = { lookups = t.lookups; field_tests = t.field_tests }

(* Field encodings for common key types ------------------------------------ *)

open Hilti_types

(** Encode an address as a 16-byte big-endian field (IPv4 mapped). *)
let field_of_addr ?plen a =
  let b = Bytes.create 16 in
  Addr.write_be b 0 a;
  let plen =
    match plen with
    | Some p -> if Addr.is_ipv4 a then 96 + p else p
    | None -> 128
  in
  field_of_string ~plen (Bytes.unsafe_to_string b)

let field_of_network n =
  field_of_addr ~plen:(Network.length n) (Network.prefix n)

let field_of_port p =
  let b = Bytes.create 2 in
  Bytes.set_uint16_be b 0 (Port.number p);
  field_of_string (Bytes.unsafe_to_string b)

let key_of_addr a = (field_of_addr a).data
let key_of_port p = (field_of_port p).data
