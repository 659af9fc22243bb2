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

    Loading an .evt exposes one hook per binding through
    {!Binpacxx.Runtime.load}; when generated parsing code finishes a unit,
    each binding's hook reaches the session's handler, which converts the
    referenced fields to Bro values (glue) and dispatches the event —
    exactly the Fig. 7(d) workflow.  Only TCP analyzers are accepted: the
    driver streams them through its TCP runner ({!Driver.evt_parsers}). *)

open Hilti_types

type event_binding = {
  unit_name : string;        (** without the module prefix *)
  event : string;
  args : string list;        (** field names of [self] *)
}

type t = {
  grammar_file : string;
  analyzer : string;
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
  let top_unit = ref "" in
  let port = ref (Port.tcp 0) in
  let bindings = ref [] in
  List.iter
    (fun stmt ->
      match words stmt with
      | "grammar" :: file :: _ -> grammar_file := file
      | "protocol" :: "analyzer" :: name :: "over" :: proto :: rest ->
          analyzer := name;
          if String.uppercase_ascii proto <> "TCP" then
            raise
              (Parse_error
                 ("analyzer " ^ name ^ " over " ^ proto ^ ": only TCP analyzers run"));
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
  if Port.proto !port <> Port.TCP then
    raise (Parse_error ("port " ^ Port.to_string !port ^ ": only TCP analyzers run"));
  {
    grammar_file = !grammar_file;
    analyzer = !analyzer;
    top_unit = !top_unit;
    port = !port;
    bindings = List.rev !bindings;
  }

(* ---- Loading: grammar + evt -> a parser that raises Bro events -------------------- *)

type loaded = {
  config : t;
  parser : Binpacxx.Runtime.t;
  hooks : event_binding array;  (** binding [i] owns hook index [i] *)
}

(** Compile [grammar] with one hook per binding: [on <Unit>] is the
    [<G>::<Unit>] ([%done]) hook. *)
let load (config : t) (grammar : Binpacxx.Ast.grammar) : loaded =
  let gname = grammar.Binpacxx.Ast.gname in
  let hooks = List.map (fun b -> gname ^ "::" ^ b.unit_name) config.bindings in
  {
    config;
    parser = Binpacxx.Runtime.load ~hooks grammar;
    hooks = Array.of_list config.bindings;
  }

(* Fig. 7: the event carries exactly the binding's declared arguments. *)
let raise_binding (sink : Events.sink) binding st =
  let args =
    Events.glue (fun () ->
        List.map
          (fun f ->
            match Hilti_vm.Value.field st f with
            | Some v -> Mini_bro.Bro_val.of_hilti_raw v
            | None -> Mini_bro.Bro_val.Vstring "")
          binding.args)
  in
  sink.Events.raise_event binding.event args

(** An incremental parse of [top_unit] (one direction of a connection);
    every binding that fires raises its event into [sink]. *)
let session (l : loaded) ~(sink : Events.sink) : Binpacxx.Runtime.session =
  Binpacxx.Runtime.session l.parser ~unit_name:l.config.top_unit
    ~on_hook:(fun i st -> raise_binding sink l.hooks.(i) st)

(** Parse one complete input (e.g. one direction of a connection),
    triggering the configured events into [sink]; true when it parses. *)
let parse_input (l : loaded) ~(sink : Events.sink) (input : string) : bool =
  let s = session l ~sink in
  ignore (Binpacxx.Runtime.feed s input);
  match Binpacxx.Runtime.finish s with
  | Binpacxx.Runtime.Done _ -> true
  | _ -> false
