(** The Mini-Bro engine facade: one event-dispatch interface backed by
    either the standard script interpreter or the scripts compiled to
    HILTI (the [compile_scripts=T] switch of Fig. 8(c)).

    For the compiled engine, every event dispatch converts Bro values into
    HILTI values and runs the corresponding HILTI hook; script callouts
    (print/fmt/logging/event queuing) come back through registered host
    functions.  Both conversion directions run under the "bro/glue"
    profiler — the glue-code cost Figures 9/10 single out. *)

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

(* ---- Bro-style rendering of HILTI values (must mirror Bro_val.to_string) --- *)

let rec hl_render (v : Hilti_vm.Value.t) : string =
  let module V = Hilti_vm.Value in
  match v with
  | V.Bool b -> if b then "T" else "F"
  | V.Int i -> Hilti_types.Digits.int64_to_string i
  | V.Double d -> Printf.sprintf "%g" d
  | V.String s -> s
  | V.Bytes b -> Hilti_types.Hbytes.to_string b
  | V.Addr a -> Hilti_types.Addr.to_string a
  | V.Port p -> Hilti_types.Port.to_string p
  | V.Net n -> Hilti_types.Network.to_string n
  | V.Time t -> Hilti_types.Time_ns.to_string t
  | V.Interval i -> Hilti_types.Interval_ns.to_string i
  | V.List d ->
      "[" ^ String.concat "," (List.map hl_render (Hilti_vm.Deque.to_list d)) ^ "]"
  | V.Set s ->
      let elems = Hilti_rt.Exp_map.fold (fun _ e acc -> hl_render e :: acc) s [] in
      "{" ^ String.concat "," (List.sort compare elems) ^ "}"
  | V.Map m ->
      let elems =
        Hilti_rt.Exp_map.fold
          (fun _ (k, value) acc -> (hl_render k ^ "->" ^ hl_render value) :: acc)
          m []
      in
      "{" ^ String.concat "," (List.sort compare elems) ^ "}"
  | V.Struct s ->
      let fields = List.map (fun (n, v) -> n ^ "=" ^ hl_render v) (V.struct_fields s) in
      "[" ^ String.concat "," (List.sort compare fields) ^ "]"
  | V.Null -> "<void>"
  | other -> V.to_string other

(* Append [v] as a log field: as [hl_render], scalars in place. *)
let hl_add_field b (v : Hilti_vm.Value.t) =
  let module V = Hilti_vm.Value in
  match v with
  | V.Int i -> Hilti_types.Digits.add_int64 b i
  | V.Bytes x -> Bro_log.add_field b (Hilti_types.Hbytes.to_string x)
  | V.Addr a -> Hilti_types.Addr.add_to_buffer b a
  | V.Port p -> Hilti_types.Port.add_to_buffer b p
  | V.Time t -> Hilti_types.Time_ns.add_to_buffer b t
  | v -> Bro_log.add_field b (hl_render v)

let hl_num = function
  | Hilti_vm.Value.Int i -> i
  | v -> raise (Bro_val.Bro_error ("expected int, got " ^ Hilti_vm.Value.to_string v))

let fmt_hilti fmtstr args =
  let buf = Buffer.create (String.length fmtstr + 16) in
  let args = ref args in
  let nextv () =
    match !args with
    | [] -> raise (Bro_val.Bro_error "fmt: not enough arguments")
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmtstr in
  let i = ref 0 in
  while !i < n do
    if fmtstr.[!i] = '%' && !i + 1 < n then begin
      (match fmtstr.[!i + 1] with
      | 's' -> Buffer.add_string buf (hl_render (nextv ()))
      | 'd' -> Buffer.add_string buf (Int64.to_string (hl_num (nextv ())))
      | 'f' ->
          Buffer.add_string buf
            (Printf.sprintf "%f" (Hilti_vm.Value.as_double (nextv ())))
      | 'x' -> Buffer.add_string buf (Printf.sprintf "%Lx" (hl_num (nextv ())))
      | '%' -> Buffer.add_char buf '%'
      | c -> raise (Bro_val.Bro_error (Printf.sprintf "fmt: unsupported %%%c" c)));
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmtstr.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ---- Loading ------------------------------------------------------------------- *)

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
      reg "Bro::print" (fun args ->
          c.cprint (String.concat ", " (List.map hl_render args));
          V.Null);
      reg "Bro::fmt" (fun args ->
          match args with
          | fmt :: rest ->
              let f =
                match fmt with
                | V.Bytes b -> Hilti_types.Hbytes.to_string b
                | V.String s -> s
                | v -> hl_render v
              in
              let b = Hilti_types.Hbytes.of_string (fmt_hilti f rest) in
              Hilti_types.Hbytes.freeze b;
              V.Bytes b
          | [] -> raise (Bro_val.Bro_error "fmt: no format"));
      reg "Bro::cat" (fun args ->
          let b =
            Hilti_types.Hbytes.of_string (String.concat "" (List.map hl_render args))
          in
          Hilti_types.Hbytes.freeze b;
          V.Bytes b);
      reg "Bro::to_count" (fun args ->
          match args with
          | [ v ] -> (
              let s = String.trim (hl_render v) in
              match Int64.of_string_opt s with
              | Some x -> V.Int x
              | None -> V.Int 0L)
          | _ -> raise (Bro_val.Bro_error "to_count arity"));
      reg "Bro::sha1" (fun args ->
          match args with
          | [ v ] ->
              let b = Hilti_types.Hbytes.of_string (Sha1.digest (hl_render v)) in
              Hilti_types.Hbytes.freeze b;
              V.Bytes b
          | _ -> raise (Bro_val.Bro_error "sha1 arity"));
      reg "Bro::join" (fun args ->
          match args with
          | [ V.List d; sep ] ->
              let s =
                String.concat (hl_render sep)
                  (List.map hl_render (Hilti_vm.Deque.to_list d))
              in
              let b = Hilti_types.Hbytes.of_string s in
              Hilti_types.Hbytes.freeze b;
              V.Bytes b
          | _ -> raise (Bro_val.Bro_error "join arity"));
      reg "Bro::network_time" (fun _ -> V.Time c.cnetwork_time);
      reg "Bro::log_write" (fun args ->
          match args with
          | [ stream; V.Struct s ] ->
              let m = log_map c (Bro_log.stream c.clogger (hl_render stream)) s.V.layout in
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
          | name :: rest ->
              Queue.add (hl_render name, List.map Bro_val.of_hilti rest) c.cqueue;
              V.Null
          | [] -> raise (Bro_val.Bro_error "queue_event arity"));
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
