(** The BinPAC++-based DNS analyzer: parses each datagram with the
    HILTI-compiled DNS parser and renders the same event arguments as the
    standard analyzer — except for the documented §6.4 differences (all
    TXT strings instead of just the first; less eager rejection of port-53
    crud). *)

open Binpacxx
module V = Hilti_vm.Value

(* A unit field resolved at load: its unit's layout in the parser's
   program and its slot there (-1 when the grammar lacks it). *)
type field = { layout : V.layout; slot : int }

type fields = {
  id : field;
  flags : field;
  questions : field;
  answers : field;
  qname : field;
  qtype : field;
  rtype : field;
  ttl : field;
  rdlength : field;
  rdata_a : field;
  rdata_name : field;
  rdata_mx_pref : field;
  rdata_mx_name : field;
  rdata_txt : field;
}

type parsed =
  | Request of Events.dns_request
  | Reply of Events.dns_reply
  | Not_dns

(* One per loaded parser, so a [t] belongs to one domain, as its parser
   does: sharded runs load one per shard. *)
type t = {
  parser : Runtime.t;
  fields : fields;
  buf : Buffer.t;  (** scratch for A-record text *)
  glue : V.t -> parsed;  (** [convert t], built once for the glue window *)
}

(* Field [f] of unit value [v], read from its slot; {!V.unset} when the
   field is missing or unset, or [v] is not a struct of [f]'s unit. *)
let get f v =
  match v with
  | V.Struct s when s.V.layout == f.layout && f.slot >= 0 -> Array.unsafe_get s.V.slots f.slot
  | _ -> V.unset

(* Lenient reads for event glue, as {!Runtime.int_or_zero} and friends: a
   missing, unset or mistyped field reads as empty or zero. *)
let sint f v = match get f v with V.Int i -> Int64.to_int i | _ -> 0

let sbytes f v =
  match get f v with V.Bytes b -> Hilti_types.Hbytes.to_string b | _ -> ""

let slist f v = match get f v with V.List d -> Hilti_vm.Deque.to_list d | _ -> []

(* Decode all character-strings of a raw TXT rdata. *)
let txt_strings raw =
  let rec go off acc =
    if off >= String.length raw then List.rev acc
    else
      let len = Char.code raw.[off] in
      let len = min len (String.length raw - off - 1) in
      go (off + 1 + len) (String.sub raw (off + 1) len :: acc)
  in
  go 0 []

(* An A record's address as "a.b.c.d", rendered in [b]. *)
let dotted_quad b a =
  Buffer.clear b;
  Hilti_types.Digits.add_int b ((a lsr 24) land 0xff);
  Buffer.add_char b '.';
  Hilti_types.Digits.add_int b ((a lsr 16) land 0xff);
  Buffer.add_char b '.';
  Hilti_types.Digits.add_int b ((a lsr 8) land 0xff);
  Buffer.add_char b '.';
  Hilti_types.Digits.add_int b (a land 0xff);
  Buffer.contents b

let render_rr t rr =
  let f = t.fields in
  match sint f.rtype rr with
  | 1 -> (
      match get f.rdata_a rr with
      | V.Int a -> dotted_quad t.buf (Int64.to_int a)
      | _ -> Printf.sprintf "<rd:%d bytes>" (sint f.rdlength rr))
  | 2 | 5 | 12 -> sbytes f.rdata_name rr
  | 15 -> Printf.sprintf "%d %s" (sint f.rdata_mx_pref rr) (sbytes f.rdata_mx_name rr)
  | 16 ->
      (* All strings, space-joined — more than the standard parser. *)
      String.concat " " (txt_strings (sbytes f.rdata_txt rr))
  | _ -> Printf.sprintf "<rd:%d bytes>" (sint f.rdlength rr)

let convert t st =
  let f = t.fields in
  let id = sint f.id st in
  let flags = sint f.flags st in
  if flags land 0x8000 <> 0 then
    let answers = slist f.answers st in
    Reply
      {
        Events.r_id = id;
        rcode = flags land 0xf;
        answers = List.map (render_rr t) answers;
        ttls = List.map (sint f.ttl) answers;
      }
  else
    let q =
      match get f.questions st with V.List d -> Hilti_vm.Deque.peek_front d | _ -> None
    in
    Request
      {
        Events.q_id = id;
        query = (match q with Some q -> sbytes f.qname q | None -> "");
        qtype = (match q with Some q -> sint f.qtype q | None -> 0);
      }

let load ?(specialize = true) () : t =
  let parser = Runtime.load ~specialize (Grammars.parse_dns ()) in
  let field unit =
    match Hilti_vm.Host_api.struct_layout parser.Runtime.api ("DNS::" ^ unit) with
    | Some layout -> fun name -> { layout; slot = V.field_index layout name }
    | None -> invalid_arg ("Dns_pac.load: the DNS grammar has no unit " ^ unit)
  in
  let m = field "Message" and q = field "Question" and rr = field "RR" in
  let fields =
    {
      id = m "id";
      flags = m "flags";
      questions = m "questions";
      answers = m "answers";
      qname = q "qname";
      qtype = q "qtype";
      rtype = rr "rtype";
      ttl = rr "ttl";
      rdlength = rr "rdlength";
      rdata_a = rr "rdata_a";
      rdata_name = rr "rdata_name";
      rdata_mx_pref = rr "rdata_mx_pref";
      rdata_mx_name = rr "rdata_mx_name";
      rdata_txt = rr "rdata_txt";
    }
  in
  let rec t = { parser; fields; buf = Buffer.create 16; glue = (fun st -> convert t st) } in
  t

(** Parse one UDP payload slice in place (zero-copy for frozen views). *)
let parse_view (t : t) (v : Hilti_types.Hbytes.view) : parsed =
  match Runtime.parse_view t.parser ~unit_name:"Message" v with
  | st ->
      (* Struct-to-event-argument conversion is HILTI-to-Bro glue. *)
      Hilti_rt.Profiler.apply_exclusive Mini_bro.Bro_val.glue_profiler t.glue st
  | exception Runtime.Parse_failed _ -> Not_dns

(** Parse one UDP payload given as a string (fuzzer oracle, tests). *)
let parse (t : t) (payload : string) : parsed =
  parse_view t (Hilti_types.Hbytes.view_of_string payload)
