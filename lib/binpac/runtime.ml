(** The BinPAC++ runtime interface for host applications (Fig. 6(b)):
    loading compiled parsers and driving them — either on complete input
    or incrementally, feeding chunks as they arrive from the network and
    resuming the suspended parse fiber (§3.2's fiber workflow).

    It is also the one bridge from unit hooks to the host (Fig. 7): a
    parser loaded with [~hooks] attaches one body to each named hook, and
    every body calls the single host function [BinPAC::hook] with the
    hook's index and [self].  The call lands in the handler of the session
    being resumed, so a host never routes hook calls itself. *)

open Hilti_vm

(** What a session does with a hook call: the hook's index in the list
    given to {!load}, and the unit struct. *)
type hook_handler = int -> Value.t -> unit

let no_hook : hook_handler = fun _ _ -> ()

type t = {
  api : Host_api.t;
  parsers : (string * Host_api.func) list;
      (** each unit's parse function, resolved at load *)
  mutable deliver : hook_handler;
      (** the handler of the session being resumed ({!with_handler}) *)
}

let hook_fn = "BinPAC::hook"

(* Declare [BinPAC::hook] and attach one body per hook, in list order:
   bodies on the same hook run in that order, each passing its own index. *)
let attach_hooks (m : Module_ir.t) hooks =
  Module_ir.add_func m
    {
      Module_ir.fname = hook_fn;
      params = [ ("hook", Htype.Int 64); ("self", Htype.Any) ];
      result = Htype.Void;
      locals = [];
      blocks = [];
      cc = Module_ir.Cc_c;
      hook_priority = 0;
      exported = true;
    };
  List.iteri
    (fun i hook ->
      let b =
        Builder.func m ~cc:Module_ir.Cc_hook hook
          ~params:[ ("self", Htype.Any) ]
          ~result:Htype.Void
      in
      Builder.call b hook_fn [ Builder.const_int i; Instr.Local "self" ];
      Builder.return_ b)
    hooks

(** Compile and load a grammar.  [hooks] names the unit hooks the host
    wants to hear about (e.g. ["HTTP::Request"], a unit's [%done] hook);
    a session's handler receives each one's index in this list.
    [specialize] selects the specialized or the generic opcodes — the
    fuzzer drives the same grammar through both as a differential
    oracle. *)
let load ?(specialize = true) ?(hooks = []) (g : Ast.grammar) : t =
  let m = Codegen.compile g in
  if hooks <> [] then attach_hooks m hooks;
  let api = Host_api.compile ~specialize [ m ] in
  let parsers =
    List.filter_map
      (function
        | Ast.Unit u ->
            Some (u.Ast.uname, Host_api.func api (g.Ast.gname ^ "::parse_" ^ u.Ast.uname))
        | Ast.Const _ -> None)
      g.Ast.decls
  in
  let t = { api; parsers; deliver = no_hook } in
  if hooks <> [] then
    Host_api.register api hook_fn (fun args ->
        (match args with
        | [ Value.Int i; self ] -> t.deliver (Int64.to_int i) self
        | _ -> ());
        Value.Null);
  ignore (Host_api.call api (g.Ast.gname ^ "::init") []);
  t

(* The parse function of [unit_name]; one the grammar lacks raises as
   [Host_api.func] does for an unknown name.  No closure: DNS parses
   through it per packet. *)
let rec find_parser unit_name = function
  | (n, f) :: rest -> if String.equal n unit_name then f else find_parser unit_name rest
  | [] -> raise (Vm.Runtime_error ("unknown unit " ^ unit_name))

let parser t unit_name = find_parser unit_name t.parsers

exception Parse_failed of string

(* The exception contract: parse-time failures surface as [Parse_failed],
   never as raw OCaml exceptions.  Besides HILTI exceptions this maps the
   raw [Failure]/[Invalid_argument]/[Not_found] that byte extraction can
   raise on truncated or hostile input.  Anything else (notably
   [Vm.Step_budget_exceeded]) passes through untouched. *)
let failure what = function
  | Value.Hilti_error e -> Parse_failed (e.Value.ename ^ ": " ^ Value.to_string e.Value.earg)
  | Failure m | Invalid_argument m -> Parse_failed (what ^ ": " ^ m)
  | Not_found -> Parse_failed (what ^ ": not found")
  | e -> e

let protect what f = try f () with e -> raise (failure what e)

let unwrap_result = function
  | Value.Tuple [| st; _ |] -> st
  | v -> raise (Parse_failed ("unexpected parser result " ^ Value.to_string v))

(** Parse a complete, already-frozen bytes object; returns the unit
    struct.  The zero-copy entry: no byte is moved on the way in. *)
let parse_bytes t ~unit_name (b : Hilti_types.Hbytes.t) : Value.t =
  let it = Value.Iter (Value.Ibytes (Hilti_types.Hbytes.begin_ b)) in
  match Host_api.call_func t.api (parser t unit_name) [ it; it ] with
  | r -> unwrap_result r
  | exception e -> raise (failure "parse" e)

(** Parse complete input; returns the unit struct.  Wraps the string in a
    frozen bytes object without copying it. *)
let parse_string t ~unit_name (input : string) : Value.t =
  parse_bytes t ~unit_name (Hilti_types.Hbytes.frozen_of_string input)

(** Parse a payload slice in place — zero-copy when the view's backing
    object is frozen (packet payloads are). *)
let parse_view t ~unit_name (v : Hilti_types.Hbytes.view) : Value.t =
  parse_bytes t ~unit_name (Hilti_types.Hbytes.of_view v)

(* ---- Incremental sessions ------------------------------------------------------ *)

type session = {
  parser : t;
  data : Hilti_types.Hbytes.t;
  run : Host_api.parse_run;
  on_hook : hook_handler;
}

type status =
  | Done of Value.t         (** parse finished with the unit struct *)
  | Blocked                 (** waiting for more input *)
  | Failed of string        (** parse error *)

let status_of_run run : status =
  match Host_api.outcome run with
  | Some (Hilti_rt.Fiber.Done v) -> Done (unwrap_result v)
  | Some Hilti_rt.Fiber.Suspended -> Blocked
  | Some (Hilti_rt.Fiber.Failed (Value.Hilti_error e)) ->
      Failed (e.Value.ename ^ ": " ^ Value.to_string e.Value.earg)
  | Some (Hilti_rt.Fiber.Failed e) ->
      (* A fiber that died with a raw OCaml exception violated the
         exception contract; keep the marker so the fuzzer's oracle can
         tell it apart from a clean grammar-level reject. *)
      Failed ("uncaught: " ^ Printexc.to_string e)
  | None -> Blocked

(* Run [f] with [handler] receiving the parser's hook calls; the previous
   handler is back on exit, also when [f] raises. *)
let with_handler t handler f =
  let saved = t.deliver in
  t.deliver <- handler;
  match f () with
  | r ->
      t.deliver <- saved;
      r
  | exception e ->
      t.deliver <- saved;
      raise e

(** Start an incremental parse; input arrives later via {!feed}.  Hook
    calls the parse makes go to [on_hook] (default: dropped). *)
let session ?(on_hook = no_hook) t ~unit_name : session =
  let data = Hilti_types.Hbytes.create () in
  let it = Value.Iter (Value.Ibytes (Hilti_types.Hbytes.begin_ data)) in
  let run =
    with_handler t on_hook (fun () ->
        Host_api.call_fiber t.api (parser t unit_name) [ it; it ])
  in
  { parser = t; data; run; on_hook }

let status s = status_of_run s.run

let resume s =
  with_handler s.parser s.on_hook (fun () -> ignore (Host_api.resume s.run))

(** Append the network data [data.[off, off + len)] and resume the
    suspended parser.  A session that is already done or failed takes
    nothing more: the chunk is dropped and the status returned unchanged. *)
let feed_sub s data off len : status =
  if Host_api.finished s.run then status s
  else begin
    Hilti_types.Hbytes.append_sub s.data data off len;
    resume s;
    status s
  end

(** {!feed_sub} over a whole chunk. *)
let feed s chunk = feed_sub s chunk 0 (String.length chunk)

(** Declare end-of-input and resume; the parser must now finish or fail.
    A finished session keeps its status. *)
let finish s : status =
  if Host_api.finished s.run then status s
  else begin
    Hilti_types.Hbytes.freeze s.data;
    resume s;
    match status s with
    | Blocked -> Failed "parser suspended past end of input"
    | other -> other
  end

let cancel s = Host_api.cancel s.run

(** Bytes the session still buffers: the unconsumed parse window.  Grammars
    that trim (e.g. HTTP's stream units) keep this bounded by one message
    regardless of how much has been fed. *)
let retained s = Hilti_types.Hbytes.length s.data

(* ---- Struct access helpers (the "C API" of Fig. 6(b)) ---------------------------- *)

let field = Value.field

(* Lenient reads for event glue: a missing, unset or mistyped field reads
   as empty or zero. *)
let bytes_or_empty st name =
  match Value.field st name with
  | Some (Value.Bytes b) -> Hilti_types.Hbytes.to_string b
  | _ -> ""

let int_or_zero st name =
  match Value.field st name with Some (Value.Int i) -> Int64.to_int i | _ -> 0

let list_or_empty st name =
  match Value.field st name with Some (Value.List d) -> Deque.to_list d | _ -> []

let field_exn st name =
  match field st name with
  | Some v -> v
  | None -> raise (Parse_failed ("unset field " ^ name))

let field_bytes st name =
  protect ("field " ^ name)
    (fun () -> Hilti_types.Hbytes.to_string (Value.as_bytes (field_exn st name)))

let field_int st name =
  protect ("field " ^ name) (fun () -> Value.as_int (field_exn st name))

let field_list st name =
  protect ("field " ^ name)
    (fun () -> Deque.to_list (Value.as_list (field_exn st name)))
