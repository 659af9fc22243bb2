(** Transport-layer ports (HILTI [port]): a 16-bit number tagged with its
    protocol, printed as e.g. ["80/tcp"] or ["53/udp"]. *)

type proto = TCP | UDP | ICMP

type t = { number : int; proto : proto }

exception Invalid of string

let make number proto =
  if number < 0 || number > 0xffff then
    raise (Invalid (string_of_int number))
  else { number; proto }

let tcp n = make n TCP
let udp n = make n UDP
let icmp n = make n ICMP

let number t = t.number
let proto t = t.proto

let proto_to_string = function TCP -> "tcp" | UDP -> "udp" | ICMP -> "icmp"

let proto_of_string = function
  | "tcp" -> TCP
  | "udp" -> UDP
  | "icmp" -> ICMP
  | s -> raise (Invalid s)

let add_to_buffer b t =
  Digits.add_int b t.number;
  Buffer.add_char b '/';
  Buffer.add_string b (proto_to_string t.proto)

let to_string t = Digits.to_string ~size:10 add_to_buffer t

let of_string s =
  match String.index_opt s '/' with
  | None -> raise (Invalid s)
  | Some i ->
      let num = String.sub s 0 i in
      let proto = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt num with
      | Some n -> make n (proto_of_string proto)
      | None -> raise (Invalid s))

let compare a b =
  let c = Int.compare a.number b.number in
  if c <> 0 then c else Stdlib.compare a.proto b.proto

let equal a b = compare a b = 0
let hash t = Hashtbl.hash (t.number, t.proto)
let pp fmt t = Format.pp_print_string fmt (to_string t)
