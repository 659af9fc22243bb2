(** The Mini-Bro engine facade: one event-dispatch interface backed by
    either the standard script interpreter or the scripts compiled to
    HILTI (the [compile_scripts=T] switch of Fig. 8(c)).

    For the compiled engine, the Bro-to-HILTI glue is resolved at load:
    each handled event gets its HILTI hook and one {!Bro_val.converter}
    per declared parameter, with record layouts and per-slot converters
    looked up once, and each literal [fmt] format its plan.  A dispatch is
    one table lookup, the argument conversions under one "bro/glue"
    profiler window (the glue-code cost Figures 9/10 single out), and the
    hook.  Script callouts (print/fmt/logging/event queuing) come back
    through registered host functions, which share the interpreter's
    runtime library: [fmt] runs {!Bro_interp}'s plans, and every host
    function renders HILTI values with {!Bro_val.add_hilti}, whose output
    is that of the values' Bro forms, so both engines print, format and
    log alike. *)

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

(* What a dispatch needs, resolved at load: the HILTI hook, the
   converters for the declared parameters of the first handler, and the
   conversion of a whole argument list through them. *)
and entry = {
  hook : Hilti_vm.Host_api.hook;
  convs : (Bro_val.t -> Hilti_vm.Value.t) array;
  convert_args : Bro_val.t list -> Hilti_vm.Value.t list;
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

(* [args] from the [i]th on as HILTI values: [convs] for the declared
   parameters, the [T_any] converter [any] beyond them. *)
let rec convert any convs i = function
  | [] -> []
  | a :: rest ->
      let h = if i < Array.length convs then (Array.unsafe_get convs i) a else any a in
      h :: convert any convs (i + 1) rest

let rec find_log_map layout stream = function
  | m :: rest -> if m.layout == layout && m.stream == stream then m else find_log_map layout stream rest
  | [] -> raise Not_found

let log_map c stream layout =
  let m =
    match find_log_map layout stream c.log_maps with
    | m -> m
    | exception Not_found ->
        let m = { layout; stream; cols = [||]; slot_of_col = [||] } in
        c.log_maps <- m :: c.log_maps;
        m
  in
  if m.cols != stream.Bro_log.columns then begin
    m.cols <- stream.Bro_log.columns;
    m.slot_of_col <- Array.map (Hilti_vm.Value.field_index layout) m.cols
  end;
  m

(* Append the values of [nodes], each after [sep]: the tail of a [join]. *)
let rec add_joined b sep = function
  | None -> ()
  | Some node ->
      Hilti_types.Hbytes.add_to_buffer b sep;
      Bro_val.add_hilti b node.Hilti_vm.Deque.value;
      add_joined b sep node.Hilti_vm.Deque.next

let load ?(logger = Bro_log.create ()) ?(optimize = true) mode (script : script) : t =
  match mode with
  | Interpreted ->
      let interp = Bro_interp.load ~logger script in
      Bro_interp.init interp;
      Interp interp
  | Compiled ->
      let m, formats = Bro_compile.compile script in
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
      let any = Bro_val.to_hilti_raw ~layout_of in
      let handled = Hashtbl.create 16 in
      List.iter
        (function
          | D_event (n, params, _) when not (Hashtbl.mem handled n) ->
              let convs = Array.of_list (List.map conv params) in
              Hashtbl.replace handled n
                {
                  hook = Hilti_vm.Host_api.hook api (Bro_compile.event_hook n);
                  convs;
                  convert_args = convert any convs 0;
                }
          | _ -> ())
        script;
      let c =
        {
          api;
          handled;
          any;
          clogger = logger;
          log_maps = [];
          cprint = print_endline;
          cqueue = Queue.create ();
          cnetwork_time = Hilti_types.Time_ns.epoch;
        }
      in
      let module V = Hilti_vm.Value in
      let reg name fn = Hilti_vm.Host_api.register api name fn in
      (* Output of [print], [fmt], [cat] and [join]; never live across a
         host call. *)
      let scratch = Buffer.create 64 in
      let bytes s = V.Bytes (Hilti_types.Hbytes.frozen_of_string s) in
      (* [b] as the interpreter applies it to [args]' Bro forms: the host
         calls' answer for every argument shape they do not render in
         place, errors included. *)
      let generic b args =
        Bro_val.to_hilti_raw ~layout_of:(fun _ -> None)
          (Bro_interp.apply_builtin scratch b (List.map Bro_val.of_hilti_raw args))
      in
      let builtin name = Option.get (Bro_interp.builtin_of_name name) in
      reg "Bro::print" (fun args ->
          Buffer.clear scratch;
          List.iteri
            (fun i v ->
              if i > 0 then Buffer.add_string scratch ", ";
              Bro_val.add_hilti scratch v)
            args;
          c.cprint (Buffer.contents scratch);
          V.Null);
      let plans = Array.map Bro_interp.fmt_compile formats in
      let b_fmt = builtin "fmt" in
      reg "Bro::fmt" (fun args ->
          match args with
          | V.Int i :: rest when i >= 0L ->
              bytes (Bro_interp.fmt_run_hilti scratch plans.(Int64.to_int i) rest)
          | V.Int _ :: V.Bytes f :: rest ->
              bytes
                (Bro_interp.fmt_run_hilti scratch
                   (Bro_interp.fmt_compile (Hilti_types.Hbytes.to_string f))
                   rest)
          | _ :: args -> generic b_fmt args
          | [] -> generic b_fmt []);
      reg "Bro::cat" (fun args ->
          Buffer.clear scratch;
          List.iter (Bro_val.add_hilti scratch) args;
          bytes (Buffer.contents scratch));
      let b_join = builtin "join" in
      reg "Bro::join" (fun args ->
          match args with
          | [ V.List d; V.Bytes sep ] ->
              Buffer.clear scratch;
              (match d.Hilti_vm.Deque.front with
              | Some node ->
                  Bro_val.add_hilti scratch node.Hilti_vm.Deque.value;
                  add_joined scratch sep node.Hilti_vm.Deque.next
              | None -> ());
              bytes (Buffer.contents scratch)
          | args -> generic b_join args);
      List.iter
        (fun name ->
          let b = builtin name in
          reg ("Bro::" ^ name) (generic b))
        [ "to_count"; "sha1" ];
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
                      if v != V.unset then Bro_val.add_hilti_log_field b v);
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

let rec dispatch (t : t) name (args : Bro_val.t list) =
  match t with
  | Interp i -> Bro_interp.dispatch i name args
  | Comp c ->
      (match Hashtbl.find c.handled name with
      | e ->
          (* The argument conversions run in one glue window. *)
          Hilti_vm.Host_api.run_hook c.api e.hook
            (Hilti_rt.Profiler.apply_exclusive Bro_val.glue_profiler e.convert_args args)
      | exception Not_found -> ());
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
