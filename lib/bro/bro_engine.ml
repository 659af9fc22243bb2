(** The Mini-Bro engine facade: one event-dispatch interface backed by
    either the standard script interpreter or the scripts compiled to
    HILTI (the [compile_scripts=T] switch of Fig. 8(c)).

    For the compiled engine, every event dispatch converts Bro values into
    HILTI values and runs the corresponding HILTI hook; script callouts
    (print/fmt/logging/event queuing) come back through registered host
    functions, which convert values with {!Bro_val.of_hilti_raw} and
    {!Bro_val.to_hilti_raw} and call the interpreter's runtime library
    ({!Bro_interp.apply_builtin}, {!Bro_val}'s renderers), so both engines
    print, format and log alike.  Event-argument conversions run under the
    "bro/glue" profiler — the glue-code cost Figures 9/10 single out. *)

open Bro_ast

type mode = Interpreted | Compiled

type compiled = {
  api : Hilti_vm.Host_api.t;
  handled : (string, unit) Hashtbl.t;  (** events with at least one handler *)
  clogger : Bro_log.t;
  mutable log_maps : log_map list;  (** per struct layout and stream *)
  mutable cprint : string -> unit;
  cqueue : (string * Bro_val.t list) Queue.t;
  mutable cnetwork_time : Hilti_types.Time_ns.t;
}

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
      let handled = Hashtbl.create 16 in
      List.iter (function D_event (n, _, _) -> Hashtbl.replace handled n () | _ -> ()) script;
      let c =
        {
          api;
          handled;
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
              Queue.add (name, List.map Bro_val.of_hilti rest) c.cqueue;
              V.Null
          | _ -> raise (Bro_val.Bro_error "queue_event arity"));
      ignore (Hilti_vm.Host_api.call api "bro::init_globals" []);
      Comp c

(* ---- Dispatch -------------------------------------------------------------------- *)

(* The compiled program's layout for a Bro record type: declared types are
   [bro::<name>]; records converted back from HILTI already carry the
   struct type's own name. *)
let layout_of c rtype =
  match Hilti_vm.Host_api.struct_layout c.api (Bro_compile.record_type rtype) with
  | Some l -> Some l
  | None -> Hilti_vm.Host_api.struct_layout c.api rtype

let rec dispatch (t : t) name (args : Bro_val.t list) =
  match t with
  | Interp i -> Bro_interp.dispatch i name args
  | Comp c ->
      if Hashtbl.mem c.handled name then begin
        let hargs = List.map (Bro_val.to_hilti ~layout_of:(layout_of c)) args in
        Hilti_vm.Host_api.run_hook c.api (Bro_compile.event_hook name) hargs
      end;
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
      let hargs = List.map (Bro_val.to_hilti ~layout_of:(layout_of c)) args in
      Bro_val.of_hilti
        (Hilti_vm.Host_api.call c.api (Bro_compile.func_name name) hargs)

(** Abstract cycles executed by the compiled engine (0 for interpreted). *)
let cycles = function
  | Interp _ -> 0L
  | Comp c -> Hilti_vm.Host_api.cycles c.api
