(** The Mini-Bro engine facade: one event-dispatch interface backed by
    either the standard script interpreter or the scripts compiled to
    HILTI (the [compile_scripts=T] switch of Fig. 8(c)).

    For the compiled engine, the Bro-to-HILTI glue is resolved at load:
    each handled event gets its HILTI hook name and one
    {!Bro_val.converter} per declared parameter, with record layouts and
    per-slot converters looked up once.  A dispatch is one table lookup,
    the argument conversions under one "bro/glue" profiler window (the
    glue-code cost Figures 9/10 single out), and the hook.  Script
    callouts (print/fmt/logging/event queuing) come back through
    registered host functions, which convert values with
    {!Bro_val.of_hilti_raw} and {!Bro_val.to_hilti_raw} and call the
    interpreter's runtime library ({!Bro_interp.apply_builtin},
    {!Bro_val}'s renderers), so both engines print, format and log
    alike. *)

open Bro_ast

type mode = Interpreted | Compiled

type compiled = {
  api : Hilti_vm.Host_api.t;
  handled : (string, entry) Hashtbl.t;  (** events with at least one handler *)
  any : Bro_val.t -> Hilti_vm.Value.t;  (** the [T_any] converter *)
  clogger : Bro_log.t;
  mutable log_maps : log_map list;  (** per struct layout and stream *)
  mutable cprint : string -> unit;
  cqueue : (string * Bro_val.t list) Queue.t;
  mutable cnetwork_time : Hilti_types.Time_ns.t;
}

(* What a dispatch needs, resolved at load: the HILTI hook name and the
   converters for the declared parameters of the first handler. *)
and entry = { hook : string; convs : (Bro_val.t -> Hilti_vm.Value.t) array }

(* The slots of [layout] in [stream]'s column order (-1: no such field),
   built for the column array [cols]. *)
and log_map = {
  layout : Hilti_vm.Value.layout;
  stream : Bro_log.stream;
  mutable cols : string array;
  mutable slot_of_col : int array;
}

type t = Interp of Bro_interp.t | Comp of compiled

(* ---- Loading ------------------------------------------------------------------- *)

(* Append [v] as a log field, as [Bro_val.add_log_field] of its Bro value;
   the scalars compiled records carry most render in place. *)
let hl_add_field b (v : Hilti_vm.Value.t) =
  let module V = Hilti_vm.Value in
  match v with
  | V.Int i -> Hilti_types.Digits.add_int64 b i
  | V.Bytes x -> Bro_log.add_field b (Hilti_types.Hbytes.to_string x)
  | V.Addr a -> Hilti_types.Addr.add_to_buffer b a
  | V.Port p -> Hilti_types.Port.add_to_buffer b p
  | V.Time t -> Hilti_types.Time_ns.add_to_buffer b t
  | v -> Bro_val.add_log_field b (Bro_val.of_hilti_raw v)

let log_map c stream layout =
  let m =
    match List.find_opt (fun m -> m.layout == layout && m.stream == stream) c.log_maps with
    | Some m -> m
    | None ->
        let m = { layout; stream; cols = [||]; slot_of_col = [||] } in
        c.log_maps <- m :: c.log_maps;
        m
  in
  if m.cols != stream.Bro_log.columns then begin
    m.cols <- stream.Bro_log.columns;
    m.slot_of_col <- Array.map (Hilti_vm.Value.field_index layout) m.cols
  end;
  m

let load ?(logger = Bro_log.create ()) ?(optimize = true) mode (script : script) : t =
  match mode with
  | Interpreted ->
      let interp = Bro_interp.load ~logger script in
      Bro_interp.init interp;
      Interp interp
  | Compiled ->
      let m = Bro_compile.compile script in
      let api = Hilti_vm.Host_api.compile ~optimize [ m ] in
      (* The compiled program's layout for a Bro record type: declared
         types are [bro::<name>]; records converted back from HILTI already
         carry the struct type's own name. *)
      let layout_of rtype =
        match Hilti_vm.Host_api.struct_layout api (Bro_compile.record_type rtype) with
        | Some l -> Some l
        | None -> Hilti_vm.Host_api.struct_layout api rtype
      in
      let conv (_, ty) =
        Bro_val.converter ~layout_of ~record_fields:(find_record script) ty
      in
      let handled = Hashtbl.create 16 in
      List.iter
        (function
          | D_event (n, params, _) when not (Hashtbl.mem handled n) ->
              let convs = Array.of_list (List.map conv params) in
              Hashtbl.replace handled n { hook = Bro_compile.event_hook n; convs }
          | _ -> ())
        script;
      let c =
        {
          api;
          handled;
          any = Bro_val.to_hilti_raw ~layout_of;
          clogger = logger;
          log_maps = [];
          cprint = print_endline;
          cqueue = Queue.create ();
          cnetwork_time = Hilti_types.Time_ns.epoch;
        }
      in
      let module V = Hilti_vm.Value in
      let reg name fn = Hilti_vm.Host_api.register api name fn in
      let render v = Bro_val.to_string (Bro_val.of_hilti_raw v) in
      reg "Bro::print" (fun args ->
          c.cprint (String.concat ", " (List.map render args));
          V.Null);
      (* The builtins compiled scripts call through the host; [Bro_compile]
         inlines the others. *)
      let scratch = Buffer.create 64 in
      List.iter
        (fun name ->
          let b = Option.get (Bro_interp.builtin_of_name name) in
          reg ("Bro::" ^ name) (fun args ->
              Bro_val.to_hilti_raw ~layout_of:(fun _ -> None)
                (Bro_interp.apply_builtin scratch b (List.map Bro_val.of_hilti_raw args))))
        [ "fmt"; "cat"; "to_count"; "sha1"; "join" ];
      reg "Bro::network_time" (fun _ -> V.Time c.cnetwork_time);
      reg "Bro::log_write" (fun args ->
          match args with
          | [ V.Bytes stream; V.Struct s ] ->
              let stream = Bro_log.stream c.clogger (Hilti_types.Hbytes.to_string stream) in
              let m = log_map c stream s.V.layout in
              Bro_log.write_row c.clogger m.stream (fun b i ->
                  match m.slot_of_col.(i) with
                  | -1 -> ()
                  | slot ->
                      let v = s.V.slots.(slot) in
                      if v != V.unset then hl_add_field b v);
              V.Bool true
          | _ -> raise (Bro_val.Bro_error "log_write arity"));
      reg "Bro::queue_event" (fun args ->
          match args with
          | V.String name :: rest ->
              let args =
                Hilti_rt.Profiler.time_exclusive Bro_val.glue_profiler (fun () ->
                    List.map Bro_val.of_hilti_raw rest)
              in
              Queue.add (name, args) c.cqueue;
              V.Null
          | _ -> raise (Bro_val.Bro_error "queue_event arity"));
      ignore (Hilti_vm.Host_api.call api "bro::init_globals" []);
      Comp c

(* ---- Dispatch -------------------------------------------------------------------- *)

(* [args] as HILTI values for [e], in one glue window; arguments beyond
   the declared parameters take the [T_any] converter. *)
let convert_args c e args =
  Hilti_rt.Profiler.time_exclusive Bro_val.glue_profiler (fun () ->
      let n = Array.length e.convs in
      List.mapi (fun i a -> if i < n then (Array.unsafe_get e.convs i) a else c.any a) args)

let rec dispatch (t : t) name (args : Bro_val.t list) =
  match t with
  | Interp i -> Bro_interp.dispatch i name args
  | Comp c ->
      (match Hashtbl.find_opt c.handled name with
      | Some e -> Hilti_vm.Host_api.run_hook c.api e.hook (convert_args c e args)
      | None -> ());
      while not (Queue.is_empty c.cqueue) do
        let n, a = Queue.take c.cqueue in
        dispatch t n a
      done

let logger = function Interp i -> i.Bro_interp.logger | Comp c -> c.clogger

let set_print_sink t sink =
  match t with
  | Interp i -> i.Bro_interp.print_sink <- sink
  | Comp c -> c.cprint <- sink

let set_network_time t ts =
  match t with
  | Interp i -> Bro_interp.set_network_time i ts
  | Comp c ->
      c.cnetwork_time <- ts;
      (* Trace time also drives the VM's timers, so table expiration
         attributes (&create_expire/&read_expire) take effect. *)
      Hilti_vm.Host_api.advance_time c.api ts

(** Call a script function (e.g. the fib benchmark). *)
let call_function t name (args : Bro_val.t list) : Bro_val.t =
  match t with
  | Interp i -> Bro_interp.call_value i name args
  | Comp c ->
      let hargs =
        Hilti_rt.Profiler.time_exclusive Bro_val.glue_profiler (fun () ->
            List.map c.any args)
      in
      let result = Hilti_vm.Host_api.call c.api (Bro_compile.func_name name) hargs in
      Hilti_rt.Profiler.time_exclusive Bro_val.glue_profiler (fun () ->
          Bro_val.of_hilti_raw result)

(** Abstract cycles executed by the compiled engine (0 for interpreted). *)
let cycles = function
  | Interp _ -> 0L
  | Comp c -> Hilti_vm.Host_api.cycles c.api
