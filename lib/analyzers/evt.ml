(** Event configuration files (Fig. 7(b)): the declarative interface that
    connects BinPAC++ grammars to Bro events.

    An .evt file names the grammar, declares the protocol analyzer (top
    unit + trigger port), and maps unit hooks to events:

    {v
    grammar ssh.pac2;

    protocol analyzer SSH over TCP:
        parse with SSH::Banner,
        port 22/tcp;

    on SSH::Banner -> event ssh_banner(self.version, self.software);
    v}

    Loading an .evt attaches HILTI hook bodies to the grammar's units;
    when generated parsing code finishes a unit, the hook calls back into
    the engine, which converts the referenced fields to Bro values (glue)
    and dispatches the event — exactly the Fig. 7(d) workflow. *)

open Hilti_types

type event_binding = {
  unit_name : string;        (** without the module prefix *)
  event : string;
  args : string list;        (** field names of [self] *)
}

type t = {
  grammar_file : string;
  analyzer : string;
  transport : [ `Tcp | `Udp ];
  top_unit : string;
  port : Port.t;
  bindings : event_binding list;
}

exception Parse_error of string

(* ---- Parsing --------------------------------------------------------------------- *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokenize_words text =
  String.split_on_char '\n' text
  |> List.map strip_comment
  |> String.concat " "
  |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (( <> ) "")

(* Split a statement into words on whitespace/commas/colons, while keeping
   :: namespaces intact ("SSH::Banner" is one word, "over TCP:" is two). *)
let words s =
  let protected =
    Str_replace.replace_all s ~pattern:"::" ~with_:"\x00"
  in
  String.split_on_char ' ' protected
  |> List.concat_map (String.split_on_char ',')
  |> List.concat_map (String.split_on_char ':')
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> List.map (fun w -> Str_replace.replace_all w ~pattern:"\x00" ~with_:"::")

let strip_self s =
  let p = "self." in
  if String.length s > 5 && String.sub s 0 5 = p then String.sub s 5 (String.length s - 5)
  else raise (Parse_error ("event argument must be self.<field>: " ^ s))

let local_unit name =
  match String.rindex_opt name ':' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(** Parse an event configuration (the contents of an .evt file). *)
let parse (text : string) : t =
  let stmts = tokenize_words text in
  let grammar_file = ref "" in
  let analyzer = ref "" in
  let transport = ref `Tcp in
  let top_unit = ref "" in
  let port = ref (Port.tcp 0) in
  let bindings = ref [] in
  List.iter
    (fun stmt ->
      match words stmt with
      | "grammar" :: file :: _ -> grammar_file := file
      | "protocol" :: "analyzer" :: name :: "over" :: proto :: rest ->
          analyzer := name;
          transport := (if String.uppercase_ascii proto = "UDP" then `Udp else `Tcp);
          (* "parse with X::Y , port N/tcp" *)
          let rec scan = function
            | "parse" :: "with" :: u :: rest ->
                top_unit := local_unit u;
                scan rest
            | "port" :: p :: rest ->
                port := Port.of_string p;
                scan rest
            | _ :: rest -> scan rest
            | [] -> ()
          in
          scan rest
      | "on" :: unit_name :: "->" :: "event" :: rest ->
          (* rest = name ( self.f1 self.f2 ... ) after tokenization; the
             parentheses are still glued to words. *)
          let flat = String.concat " " rest in
          let name, args =
            match String.index_opt flat '(' with
            | Some i ->
                let name = String.trim (String.sub flat 0 i) in
                let inner =
                  match String.rindex_opt flat ')' with
                  | Some j when j > i -> String.sub flat (i + 1) (j - i - 1)
                  | _ -> raise (Parse_error ("unbalanced parens: " ^ stmt))
                in
                ( name,
                  String.split_on_char ',' inner
                  |> List.concat_map (String.split_on_char ' ')
                  |> List.map String.trim
                  |> List.filter (( <> ) "")
                  |> List.map strip_self )
            | None -> (String.trim flat, [])
          in
          bindings :=
            { unit_name = local_unit unit_name; event = name; args } :: !bindings
      | [] -> ()
      | w :: _ -> raise (Parse_error ("unknown statement: " ^ w)))
    stmts;
  if !top_unit = "" then raise (Parse_error "missing 'parse with' clause");
  {
    grammar_file = !grammar_file;
    analyzer = !analyzer;
    transport = !transport;
    top_unit = !top_unit;
    port = !port;
    bindings = List.rev !bindings;
  }

(* ---- Loading: grammar + evt -> a parser that raises Bro events -------------------- *)

type loaded = {
  config : t;
  parser : Binpacxx.Runtime.t;
  mutable sink : Events.sink;
}

(** Compile [grammar] with the hook bodies the configuration requests;
    every triggered event lands in [sink] (settable later). *)
let load ?(optimize = true) (config : t) (grammar : Binpacxx.Ast.grammar) : loaded =
  let gname = grammar.Binpacxx.Ast.gname in
  let loaded = ref None in
  let prepare (m : Module_ir.t) =
    Module_ir.add_func m
      {
        Module_ir.fname = "Evt::raise";
        params = [ ("event", Htype.String); ("self", Htype.Any) ];
        result = Htype.Void;
        locals = [];
        blocks = [];
        cc = Module_ir.Cc_c;
        hook_priority = 0;
        exported = true;
      };
    List.iter
      (fun binding ->
        (* on <Unit> -> a hook body on <G>::<Unit>'s %done hook. *)
        let hook = gname ^ "::" ^ binding.unit_name in
        let b =
          Builder.func m ~cc:Module_ir.Cc_hook hook
            ~params:[ ("self", Htype.Any) ]
            ~result:Htype.Void
        in
        Builder.call b "Evt::raise"
          [ Builder.const_string binding.event; Instr.Local "self" ];
        Builder.return_ b)
      config.bindings
  in
  let parser = Binpacxx.Runtime.load ~optimize ~prepare grammar in
  let l = { config; parser; sink = Events.null_sink } in
  loaded := Some l;
  Hilti_vm.Host_api.register parser.Binpacxx.Runtime.api "Evt::raise" (fun args ->
      (match (args, !loaded) with
      | [ ev; st ], Some l ->
          let event =
            match ev with
            | Hilti_vm.Value.String s -> s
            | v -> Hilti_vm.Value.to_string v
          in
          (* Which binding fired?  Match by event name. *)
          (match
             List.find_opt (fun b -> b.event = event) l.config.bindings
           with
          | Some binding ->
              let field_vals =
                Hilti_rt.Profiler.time_exclusive Mini_bro.Bro_val.glue_profiler
                  (fun () ->
                    List.map
                      (fun f ->
                        match Hilti_vm.Value.field st f with
                        | Some v -> Mini_bro.Bro_val.of_hilti_raw v
                        | None -> Mini_bro.Bro_val.Vstring "")
                      binding.args)
              in
              (* Fig. 7: the event carries exactly the declared
                 arguments. *)
              l.sink.Events.raise_event event field_vals
          | None -> ())
      | _ -> ());
      Hilti_vm.Value.Null);
  l

(** Parse one complete input (e.g. one direction of a connection),
    triggering the configured events into the sink. *)
let parse_input (l : loaded) (input : string) =
  match
    Binpacxx.Runtime.parse_string l.parser ~unit_name:l.config.top_unit input
  with
  | _ -> true
  | exception Binpacxx.Runtime.Parse_failed _ -> false
