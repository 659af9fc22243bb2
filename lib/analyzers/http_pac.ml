(** The BinPAC++-based HTTP analyzer: drives the HILTI-compiled HTTP
    parser over reassembled streams and turns parsed units into the same
    events the standard analyzer raises (§6.4).

    Events fire from {e inside} the parse, through the Request/Reply unit
    hooks the parser exposes ({!Runtime.load}[ ~hooks], the mechanism
    behind Fig. 7(b)): the session's handler converts the unit struct into
    event arguments — HILTI-to-Bro glue, profiled as such. *)

open Binpacxx
module V = Hilti_vm.Value

(* Struct-value access helpers. *)
let sbytes = Runtime.bytes_or_empty
let slist = Runtime.list_or_empty

(* Walk a Header-unit list for a (lowercase) name. *)
let find_header headers name =
  List.find_map
    (fun h ->
      if String.lowercase_ascii (sbytes h "name") = name then
        Some (sbytes h "value")
      else None)
    headers

(* Hash the reply body — body | chunks | body_close, whichever the grammar
   filled in — straight from the unit's bytes objects into [ctx]. *)
let hash_body ctx st =
  let feed = function
    | Some (V.Bytes b) ->
        Hilti_types.Hbytes.(view_read (view b)) Mini_bro.Sha1.feed_bytes ctx
    | _ -> ()
  in
  match V.field st "body" with
  | Some (V.Bytes _) as b -> feed b
  | _ -> (
      match V.field st "chunks" with
      | Some (V.List d) ->
          Hilti_vm.Deque.iter (fun c -> feed (V.field c "data")) d
      | _ -> feed (V.field st "body_close"))

let request_of_unit st : Events.http_request =
  let rl = Option.get (V.field st "request") in
  let version =
    match V.field rl "version" with Some v -> sbytes v "number" | None -> ""
  in
  {
    Events.method_ = sbytes rl "method";
    uri = sbytes rl "uri";
    version;
    host = Option.value ~default:"" (find_header (slist st "headers") "host");
  }

(* Field extraction is conversion glue; body hashing is analysis work (the
   standard parser does it in its parse path), so the caller runs it
   outside the glue window. *)
let reply_of_unit ~body_len ~sha st : Events.http_reply =
  let rl = Option.get (V.field st "reply") in
  let version =
    match V.field rl "version" with Some v -> sbytes v "number" | None -> ""
  in
  let code = int_of_string_opt (sbytes rl "status") |> Option.value ~default:0 in
  {
    Events.r_version = version;
    code;
    reason = sbytes rl "reason";
    mime =
      Option.value ~default:"-" (find_header (slist st "headers") "content-type");
    body_len;
    body_sha1 = sha;
  }

(* ---- The loaded parser, shared across connections ---------------------------- *)

type t = Runtime.t

(** Load the HTTP grammar with the Request/Reply hooks exposed (the
    ssh.evt equivalent for HTTP). *)
let load () : t =
  Runtime.load ~hooks:[ "HTTP::Request"; "HTTP::Reply" ] (Grammars.parse_http ())

let raise_reply sink conn st =
  let ctx = Mini_bro.Sha1.init () in
  hash_body ctx st;
  let body_len = Mini_bro.Sha1.length ctx in
  let sha = if body_len = 0 then "" else Mini_bro.Sha1.finish ctx in
  Events.raise_http_reply sink conn
    (Events.glue (fun () -> reply_of_unit ~body_len ~sha st))

(** One direction of connection [conn]: events fire into [sink] from
    inside the parse. *)
let session t ~(sink : Events.sink) ~conn ~is_request : Runtime.session =
  let unit_name = if is_request then "Requests" else "Replies" in
  Runtime.session t ~unit_name ~on_hook:(fun hook st ->
      (* Hook 0 is HTTP::Request, hook 1 HTTP::Reply. *)
      if hook = 0 then
        Events.raise_http_request sink conn (Events.glue (fun () -> request_of_unit st))
      else raise_reply sink conn st)
