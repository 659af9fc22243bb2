(** The BinPAC++-based FTP control-channel analyzer.  Hooks on the
    Command and Reply units fire per parsed line; the glue converts each
    into the shared {!Events.ftp_event} view.  Continuation lines of
    multi-line replies (separator "-") raise nothing, matching
    {!Ftp_std}. *)

open Binpacxx

let sbytes = Runtime.bytes_or_empty

type t = Runtime.t

let load ?(specialize = true) () : t =
  Runtime.load ~specialize ~hooks:[ "FTP::Command"; "FTP::Reply" ]
    (Grammars.parse_ftp ())

(* Hook 0 is FTP::Command, hook 1 FTP::Reply. *)
let event_of_hook hook st : Events.ftp_event option =
  if hook = 0 then
    Some
      (Events.F_request
         (Events.glue (fun () -> { Events.cmd = sbytes st "cmd"; arg = sbytes st "arg" })))
  else if sbytes st "sep" = "-" then None
  else
    Some
      (Events.F_reply
         (Events.glue (fun () ->
              {
                Events.code =
                  int_of_string_opt (sbytes st "code") |> Option.value ~default:0;
                msg = sbytes st "text";
              })))

(** One direction of a control connection ([is_command]: the
    client->server direction carries commands); each event goes to
    [on_event] from inside the parse. *)
let session t ~is_command ~on_event : Runtime.session =
  let unit_name = if is_command then "Commands" else "Replies" in
  Runtime.session t ~unit_name ~on_hook:(fun hook st ->
      Option.iter on_event (event_of_hook hook st))
