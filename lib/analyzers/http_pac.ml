(** The BinPAC++-based HTTP analyzer: drives the HILTI-compiled HTTP
    parser over reassembled streams and turns parsed units into the same
    events the standard analyzer raises (§6.4).

    Events fire from {e inside} the parse, through hooks attached to the
    grammar's Request/Reply units (the event-configuration mechanism of
    Fig. 7(b)): each hook body calls back into the host, which converts
    the unit struct into event arguments — HILTI-to-Bro glue, profiled as
    such. *)

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

type t = {
  parser : Runtime.t;
  (* The driver points this at the connection being fed before resuming
     its fiber, so hook callbacks know whose event to raise. *)
  mutable current_conn : Mini_bro.Bro_val.t;
  mutable sink : Events.sink;
}

(** Load the HTTP grammar with event hooks attached (the ssh.evt
    equivalent for HTTP). *)
let load ?(optimize = true) () : t =
  let t_ref = ref None in
  let prepare (m : Module_ir.t) =
    (* Declare the host callbacks... *)
    List.iter
      (fun name ->
        Module_ir.add_func m
          {
            Module_ir.fname = name;
            params = [ ("self", Htype.Any) ];
            result = Htype.Void;
            locals = [];
            blocks = [];
            cc = Module_ir.Cc_c;
            hook_priority = 0;
            exported = true;
          })
      [ "Analyzer::http_request"; "Analyzer::http_reply" ];
    (* ...and attach hook bodies: on HTTP::Request -> host callback. *)
    let hook_body hook_name callback =
      let b =
        Builder.func m ~cc:Module_ir.Cc_hook hook_name
          ~params:[ ("self", Htype.Any) ]
          ~result:Htype.Void
      in
      Builder.call b callback [ Instr.Local "self" ];
      Builder.return_ b
    in
    hook_body "HTTP::Request" "Analyzer::http_request";
    hook_body "HTTP::Reply" "Analyzer::http_reply"
  in
  let parser = Runtime.load ~optimize ~prepare (Grammars.parse_http ()) in
  let t =
    { parser; current_conn = Mini_bro.Bro_val.Vvoid; sink = Events.null_sink }
  in
  t_ref := Some t;
  (* Converting a parsed unit struct into event arguments is the
     HILTI-to-Bro glue of §6.4 — profiled as such. *)
  let glue f =
    Hilti_rt.Profiler.time_exclusive Mini_bro.Bro_val.glue_profiler f
  in
  Hilti_vm.Host_api.register parser.Runtime.api "Analyzer::http_request"
    (fun args ->
      (match (args, !t_ref) with
      | [ st ], Some t ->
          let r = glue (fun () -> request_of_unit st) in
          Events.raise_http_request t.sink t.current_conn r
      | _ -> ());
      V.Null);
  Hilti_vm.Host_api.register parser.Runtime.api "Analyzer::http_reply"
    (fun args ->
      (match (args, !t_ref) with
      | [ st ], Some t ->
          let ctx = Mini_bro.Sha1.init () in
          hash_body ctx st;
          let body_len = Mini_bro.Sha1.length ctx in
          let sha = if body_len = 0 then "" else Mini_bro.Sha1.finish ctx in
          let r = glue (fun () -> reply_of_unit ~body_len ~sha st) in
          Events.raise_http_reply t.sink t.current_conn r
      | _ -> ());
      V.Null);
  t

(* ---- Per-connection-direction sessions ------------------------------------------ *)

type session = { t : t; conn : Mini_bro.Bro_val.t; s : Runtime.session }

let session t ~conn ~is_request =
  let unit_name = if is_request then "Requests" else "Replies" in
  { t; conn; s = Runtime.session t.parser ~unit_name }

let with_conn (ss : session) f =
  let saved_conn = ss.t.current_conn in
  ss.t.current_conn <- ss.conn;
  Fun.protect ~finally:(fun () -> ss.t.current_conn <- saved_conn) f

(** Feed reassembled stream data; events fire from inside the parse. *)
let feed (ss : session) data = with_conn ss (fun () -> ignore (Runtime.feed ss.s data))

let eof (ss : session) = with_conn ss (fun () -> ignore (Runtime.finish ss.s))
