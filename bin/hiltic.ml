(** hiltic — the HILTI compiler driver (§3.1, Fig. 3).

    Compiles textual HILTI (.hlt) modules and, like the prototype's
    [hiltic -j], can JIT-execute the result directly by calling the
    module's [run] entry point. *)

let usage =
  {|hiltic — HILTI compiler (JIT mode)

usage: hiltic [options] <file.hlt> [more.hlt ...]

options:
  -p         print the parsed IR and exit
  -d         print the lowered bytecode (disassembly) and exit
  -c         validate and compile only (no execution)
  -e NAME    entry point to call (default: <module>::run)
  -O0        disable the HILTI-level optimization pipeline
  -v         print compilation statistics
  -analyze   lint the modules instead of executing: run validation, the
             dataflow analyses, the bytecode verifier and (with
             -shard-entry) the static shard-race detector; print one
             tab-separated finding per line (severity rule func where
             location message) and exit 1 if any finding has error
             severity
  -analyze-bundled
             like -analyze, but over the compiled IR of the bundled
             BinPAC++ grammars (ssh/http/dns) and Bro scripts
             (track/http/dns/scan/fib); takes no input files.  Grammar
             units designate their exported parse_* functions as sharded
             entry points, so the race detector runs over them
  -shard-entry NAME
             (with -analyze) declare NAME a sharded dispatch entry point
             and run the race rules (race/global-write,
             race/timer-cross-shard, race/hostapi-shared) over its
             call-graph closure; repeatable
  -format FMT
             lint output format: tsv (default) or json (stable key order)
|}

(* ---- Lint mode (-analyze / -analyze-bundled) --------------------------- *)

(* Lint one named unit (a list of modules compiled together) and print its
   findings.  Returns the number of error-severity findings. *)
let lint_unit ~warnings ~format ?(shard_entries = []) name modules =
  let findings = Hilti_analysis.Lint.analyze ~shard_entries modules in
  let findings =
    if warnings then findings else Hilti_analysis.Lint.errors findings
  in
  (match format with
  | `Tsv ->
      List.iter
        (fun f ->
          Printf.printf "%s\t%s\n" name (Hilti_analysis.Lint.to_line f))
        findings
  | `Json ->
      (* One JSON object per unit, unit name first, stable key order. *)
      Printf.printf "{\"unit\":\"%s\",\"report\":%s}\n"
        (Hilti_analysis.Lint.json_escape name)
        (String.trim (Hilti_analysis.Lint.report_to_json findings)));
  List.length (Hilti_analysis.Lint.errors findings)

(* Grammar units run under the sharded data plane with one dispatcher call
   per packet into their exported parse functions — exactly the entry
   points the race detector needs designated. *)
let parse_entries modules =
  List.concat_map
    (fun (m : Module_ir.t) ->
      List.filter_map
        (fun (f : Module_ir.func) ->
          let name = f.Module_ir.fname in
          let is_parse =
            match String.index_opt name ':' with
            | Some i ->
                i + 2 <= String.length name
                && String.length name - (i + 2) >= 6
                && String.sub name (i + 2) 6 = "parse_"
            | None -> false
          in
          if f.Module_ir.exported && is_parse then Some name else None)
        m.Module_ir.funcs)
    modules

(* The units behind -analyze-bundled: every bundled BinPAC++ grammar and
   every bundled Bro script, each compiled to IR exactly as the runtime
   would and linted as its own unit.  [`Parse_entries] marks units whose
   exported parse_* functions are sharded dispatch entry points. *)
let bundled_units () =
  let grammar name parse =
    ( "binpac:" ^ name,
      `Parse_entries,
      fun () -> [ Binpacxx.Codegen.compile (parse ()) ] )
  in
  let bro name src =
    ( "bro:" ^ name,
      `No_entries,
      fun () -> [ fst (Mini_bro.Bro_compile.compile (Mini_bro.Bro_parse.parse src)) ] )
  in
  [
    grammar "ssh" Binpacxx.Grammars.parse_ssh;
    grammar "http" Binpacxx.Grammars.parse_http;
    grammar "dns" Binpacxx.Grammars.parse_dns;
    bro "track" Mini_bro.Bro_scripts.track;
    bro "http" Mini_bro.Bro_scripts.http;
    bro "dns" Mini_bro.Bro_scripts.dns;
    bro "scan" Mini_bro.Bro_scripts.scan;
    bro "fib" Mini_bro.Bro_scripts.fib;
  ]

let () =
  let files = ref [] in
  let print_ir = ref false in
  let disasm = ref false in
  let compile_only = ref false in
  let optimize = ref true in
  let verbose = ref false in
  let entry = ref None in
  let analyze = ref false in
  let analyze_bundled = ref false in
  let no_warnings = ref false in
  let format = ref `Tsv in
  let shard_entries = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "-p" :: rest -> print_ir := true; parse_args rest
    | "-d" :: rest -> disasm := true; parse_args rest
    | "-c" :: rest -> compile_only := true; parse_args rest
    | "-O0" :: rest -> optimize := false; parse_args rest
    | "-v" :: rest -> verbose := true; parse_args rest
    | "-e" :: name :: rest -> entry := Some name; parse_args rest
    | "-analyze" :: rest -> analyze := true; parse_args rest
    | "-analyze-bundled" :: rest -> analyze_bundled := true; parse_args rest
    | "-no-warnings" :: rest -> no_warnings := true; parse_args rest
    | "-format" :: "json" :: rest -> format := `Json; parse_args rest
    | "-format" :: "tsv" :: rest -> format := `Tsv; parse_args rest
    | "-format" :: other :: _ ->
        Printf.eprintf "unknown -format '%s' (expected tsv or json)\n" other;
        exit 1
    | "-shard-entry" :: name :: rest ->
        shard_entries := name :: !shard_entries;
        parse_args rest
    | ("-h" | "--help") :: _ -> print_string usage; exit 0
    | f :: rest -> files := f :: !files; parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if !analyze_bundled then begin
    let nerrors =
      List.fold_left
        (fun acc (name, entries, build) ->
          match build () with
          | modules ->
              let shard_entries =
                match entries with
                | `Parse_entries -> parse_entries modules
                | `No_entries -> []
              in
              acc
              + lint_unit ~warnings:(not !no_warnings) ~format:!format
                  ~shard_entries name modules
          | exception exn ->
              Printf.printf "%s\terror\tbuild\t-\t-\t-\t%s\n" name
                (Printexc.to_string exn);
              acc + 1)
        0 (bundled_units ())
    in
    exit (if nerrors > 0 then 1 else 0)
  end;
  let read_file f =
    let ic = open_in_bin f in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if files = [] then begin
    print_string usage;
    exit 1
  end;
  try
    let modules =
      List.map (fun f -> Hilti_lang.Parser.parse_module (read_file f)) files
    in
    if !print_ir then begin
      List.iter (fun m -> print_string (Pretty.module_to_string m)) modules;
      exit 0
    end;
    if !analyze then begin
      let name = String.concat "," files in
      let nerrors =
        lint_unit ~warnings:(not !no_warnings) ~format:!format
          ~shard_entries:(List.rev !shard_entries) name modules
      in
      exit (if nerrors > 0 then 1 else 0)
    end;
    let api = Hilti_vm.Host_api.compile ~optimize:!optimize modules in
    if !verbose then begin
      Printf.eprintf "compiled %d module(s), %d bytecode instructions\n"
        (List.length modules)
        (Hilti_vm.Host_api.code_size api);
      match api.Hilti_vm.Host_api.opt_stats with
      | Some stats ->
          Printf.eprintf "optimizations: %s\n" (Hilti_passes.Pipeline.stats_to_string stats)
      | None -> ()
    end;
    if !disasm then begin
      print_string (Hilti_vm.Bytecode.disassemble api.Hilti_vm.Host_api.ctx.Hilti_vm.Vm.program);
      exit 0
    end;
    if not !compile_only then begin
      let entry =
        match !entry with
        | Some e -> e
        | None -> (
            match modules with
            | m :: _ -> m.Module_ir.mname ^ "::run"
            | [] -> assert false)
      in
      ignore (Hilti_vm.Host_api.call api entry [])
    end
  with
  | Hilti_lang.Parser.Parse_error (msg, line) ->
      Printf.eprintf "parse error: %s (line %d)\n" msg line;
      exit 1
  | Hilti_lang.Lexer.Lex_error (msg, line) ->
      Printf.eprintf "lex error: %s (line %d)\n" msg line;
      exit 1
  | Hilti_vm.Host_api.Compile_error errors ->
      List.iter (Printf.eprintf "error: %s\n") errors;
      exit 1
  | Hilti_vm.Value.Hilti_error e ->
      Printf.eprintf "uncaught HILTI exception: %s(%s)\n" e.Hilti_vm.Value.ename
        (Hilti_vm.Value.to_string e.Hilti_vm.Value.earg);
      exit 1
