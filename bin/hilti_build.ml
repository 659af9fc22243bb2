(** hilti-build — link HILTI modules into a self-contained program image
    (§3.1).  Where the prototype emits a native executable through LLVM,
    this writes the linked, optimized bytecode image (.hbc) that the VM
    executes; the image can be run directly with [hilti-build -x]. *)

let usage =
  {|hilti-build — link HILTI modules into a program image

usage: hilti-build [options] <file.hlt ...> -o <out.hbc>
       hilti-build -x <image.hbc> [-e ENTRY]

options:
  -o FILE    write the linked program image
  -x FILE    execute a previously built image
  -e NAME    entry point (default <module>::run)
  -O0        disable optimization
|}

let () =
  let files = ref [] in
  let out = ref None in
  let exec = ref None in
  let entry = ref None in
  let optimize = ref true in
  let rec parse_args = function
    | [] -> ()
    | "-o" :: f :: rest -> out := Some f; parse_args rest
    | "-x" :: f :: rest -> exec := Some f; parse_args rest
    | "-e" :: e :: rest -> entry := Some e; parse_args rest
    | "-O0" :: rest -> optimize := false; parse_args rest
    | ("-h" | "--help") :: _ -> print_string usage; exit 0
    | f :: rest -> files := f :: !files; parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match !exec with
  | Some image ->
      (* The image is verified again on load: the flags stored in the file
         are not trusted. *)
      let program =
        try Hilti_vm.Image.load image with
        | Hilti_vm.Image.Not_an_image _ ->
            Printf.eprintf "%s: not a HILTI program image\n" image;
            exit 1
        | Hilti_vm.Verify.Verify_error errors ->
            Printf.eprintf "%s: image fails verification\n" image;
            List.iter (Printf.eprintf "error: %s\n") errors;
            exit 1
      in
      let ctx = Hilti_vm.Vm.create program in
      Hilti_vm.Vm.register_host ctx "Hilti::print" (fun c args ->
          c.Hilti_vm.Vm.debug_sink
            (String.concat ", " (List.map Hilti_vm.Value.to_string args));
          Hilti_vm.Value.Null);
      let entry =
        match !entry with
        | Some e -> e
        | None -> (
            (* First exported function ending in ::run. *)
            let found = ref None in
            Array.iter
              (fun (f : Hilti_vm.Bytecode.func) ->
                if !found = None && Filename.check_suffix f.Hilti_vm.Bytecode.name "::run" then
                  found := Some f.Hilti_vm.Bytecode.name)
              program.Hilti_vm.Bytecode.funcs;
            match !found with
            | Some e -> e
            | None ->
                Printf.eprintf "no ::run entry point in image\n";
                exit 1)
      in
      (try ignore (Hilti_vm.Vm.call ctx entry [])
       with Hilti_vm.Value.Hilti_error e ->
         Printf.eprintf "uncaught HILTI exception: %s\n" e.Hilti_vm.Value.ename;
         exit 1)
  | None -> (
      let files = List.rev !files in
      if files = [] then begin
        print_string usage;
        exit 1
      end;
      let read_file f =
        let ic = open_in_bin f in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      try
        let modules =
          List.map (fun f -> Hilti_lang.Parser.parse_module (read_file f)) files
        in
        let api = Hilti_vm.Host_api.compile ~optimize:!optimize modules in
        match !out with
        | Some path ->
            Hilti_vm.Image.write path api.Hilti_vm.Host_api.ctx.Hilti_vm.Vm.program;
            Printf.printf "wrote %s (%d bytecode instructions, %d functions)\n" path
              (Hilti_vm.Host_api.code_size api)
              (Array.length api.Hilti_vm.Host_api.ctx.Hilti_vm.Vm.program.Hilti_vm.Bytecode.funcs)
        | None ->
            Printf.eprintf "missing -o (or -x to execute)\n";
            exit 1
      with
      | Hilti_lang.Parser.Parse_error (msg, line) ->
          Printf.eprintf "parse error: %s (line %d)\n" msg line;
          exit 1
      | Hilti_vm.Host_api.Compile_error errors ->
          List.iter (Printf.eprintf "error: %s\n") errors;
          exit 1)
