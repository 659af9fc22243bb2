(** The BinPAC++-based FTP control-channel analyzer.  Hooks on the
    Command and Reply units fire per parsed line; the glue converts each
    into the shared {!Events.ftp_event} view.  Continuation lines of
    multi-line replies (separator "-") raise nothing, matching
    {!Ftp_std}. *)

open Binpacxx
module V = Hilti_vm.Value

let sbytes = Runtime.bytes_or_empty

type t = {
  parser : Runtime.t;
  mutable on_event : Events.ftp_event -> unit;
}

let load ?(optimize = true) ?(specialize = true) () : t =
  let t_ref = ref None in
  let prepare (m : Module_ir.t) =
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
      [ "Analyzer::ftp_request"; "Analyzer::ftp_reply" ];
    let hook_body hook_name callback =
      let b =
        Builder.func m ~cc:Module_ir.Cc_hook hook_name
          ~params:[ ("self", Htype.Any) ]
          ~result:Htype.Void
      in
      Builder.call b callback [ Instr.Local "self" ];
      Builder.return_ b
    in
    hook_body "FTP::Command" "Analyzer::ftp_request";
    hook_body "FTP::Reply" "Analyzer::ftp_reply"
  in
  let parser =
    Runtime.load ~optimize ~specialize ~prepare (Grammars.parse_ftp ())
  in
  let t = { parser; on_event = ignore } in
  t_ref := Some t;
  let glue f =
    Hilti_rt.Profiler.time_exclusive Mini_bro.Bro_val.glue_profiler f
  in
  Hilti_vm.Host_api.register parser.Runtime.api "Analyzer::ftp_request"
    (fun args ->
      (match (args, !t_ref) with
      | [ st ], Some t ->
          let r =
            glue (fun () ->
                { Events.cmd = sbytes st "cmd"; arg = sbytes st "arg" })
          in
          t.on_event (Events.F_request r)
      | _ -> ());
      V.Null);
  Hilti_vm.Host_api.register parser.Runtime.api "Analyzer::ftp_reply"
    (fun args ->
      (match (args, !t_ref) with
      | [ st ], Some t ->
          if sbytes st "sep" <> "-" then begin
            let r =
              glue (fun () ->
                  {
                    Events.code =
                      int_of_string_opt (sbytes st "code")
                      |> Option.value ~default:0;
                    msg = sbytes st "text";
                  })
            in
            t.on_event (Events.F_reply r)
          end
      | _ -> ());
      V.Null);
  t

(* ---- Per-connection-direction sessions ------------------------------------------ *)

type session = { t : t; cb : Events.ftp_event -> unit; s : Runtime.session }

(** [is_command]: the client->server direction carries commands. *)
let session t ~is_command ~on_event =
  let unit_name = if is_command then "Commands" else "Replies" in
  { t; cb = on_event; s = Runtime.session t.parser ~unit_name }

let with_cb (ss : session) f =
  let saved = ss.t.on_event in
  ss.t.on_event <- ss.cb;
  Fun.protect ~finally:(fun () -> ss.t.on_event <- saved) f

let feed (ss : session) data : Runtime.status =
  with_cb ss (fun () -> Runtime.feed ss.s data)

let eof (ss : session) : Runtime.status =
  with_cb ss (fun () -> Runtime.finish ss.s)
