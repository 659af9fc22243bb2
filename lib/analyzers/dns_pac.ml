(** The BinPAC++-based DNS analyzer: parses each datagram with the
    HILTI-compiled DNS parser and renders the same event arguments as the
    standard analyzer — except for the documented §6.4 differences (all
    TXT strings instead of just the first; less eager rejection of port-53
    crud). *)

open Binpacxx
module V = Hilti_vm.Value

type t = { parser : Runtime.t }

let load ?(specialize = true) () : t =
  { parser = Runtime.load ~specialize (Grammars.parse_dns ()) }

let sint = Runtime.int_or_zero
let sbytes = Runtime.bytes_or_empty
let slist = Runtime.list_or_empty

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

let render_rr st =
  let rtype = sint st "rtype" in
  match rtype with
  | 1 -> (
      match V.field st "rdata_a" with
      | Some (V.Int a) ->
          let a = Int64.to_int a in
          Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
            ((a lsr 8) land 0xff) (a land 0xff)
      | _ -> Printf.sprintf "<rd:%d bytes>" (sint st "rdlength"))
  | 2 | 5 | 12 -> sbytes st "rdata_name"
  | 15 -> Printf.sprintf "%d %s" (sint st "rdata_mx_pref") (sbytes st "rdata_mx_name")
  | 16 ->
      (* All strings, space-joined — more than the standard parser. *)
      String.concat " " (txt_strings (sbytes st "rdata_txt"))
  | _ -> Printf.sprintf "<rd:%d bytes>" (sint st "rdlength")

type parsed =
  | Request of Events.dns_request
  | Reply of Events.dns_reply
  | Not_dns

(** Parse one UDP payload slice in place (zero-copy for frozen views). *)
let rec parse_view (t : t) (v : Hilti_types.Hbytes.view) : parsed =
  match Runtime.parse_view t.parser ~unit_name:"Message" v with
  | st ->
      (* Struct-to-event-argument conversion is HILTI-to-Bro glue. *)
      Hilti_rt.Profiler.time_exclusive Mini_bro.Bro_val.glue_profiler (fun () ->
          convert st)
  | exception Runtime.Parse_failed _ -> Not_dns

and convert st =
      let id = sint st "id" in
      let flags = sint st "flags" in
      let is_response = flags land 0x8000 <> 0 in
      if is_response then
        let answers = slist st "answers" in
        Reply
          {
            Events.r_id = id;
            rcode = flags land 0xf;
            answers = List.map render_rr answers;
            ttls = List.map (fun rr -> sint rr "ttl") answers;
          }
      else
        let q =
          match slist st "questions" with q :: _ -> Some q | [] -> None
        in
        Request
          {
            Events.q_id = id;
            query = (match q with Some q -> sbytes q "qname" | None -> "");
            qtype = (match q with Some q -> sint q "qtype" | None -> 0);
          }

(** Parse one UDP payload given as a string (fuzzer oracle, tests). *)
let parse (t : t) (payload : string) : parsed =
  parse_view t (Hilti_types.Hbytes.view_of_string payload)
