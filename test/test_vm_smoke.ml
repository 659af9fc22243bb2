(* End-to-end smoke tests of the Builder -> validate -> optimize -> lower ->
   execute chain, before anything else builds on it. *)

open Hilti_vm

let build_arith_module () =
  let m = Module_ir.create "Smoke" in
  let b =
    Builder.func m "Smoke::add3" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64)
  in
  let t1 = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local "x"; Builder.const_int 3 ] in
  Builder.return_result b t1;
  m

let test_add () =
  let api = Host_api.compile [ build_arith_module () ] in
  match Host_api.call api "Smoke::add3" [ Value.Int 39L ] with
  | Value.Int 42L -> ()
  | v -> Alcotest.failf "expected 42, got %s" (Value.to_string v)

let test_print_capture () =
  let m = Module_ir.create "Main" in
  let b = Builder.func m "Main::run" ~params:[] ~result:Htype.Void in
  Builder.call b "Hilti::print" [ Builder.const_string "Hello, World!" ];
  Builder.return_ b;
  let api = Host_api.compile [ m ] in
  let out = Buffer.create 16 in
  Host_api.set_output api (fun s -> Buffer.add_string out (s ^ "\n"));
  ignore (Host_api.call api "Main::run" []);
  Alcotest.(check string) "hello output" "Hello, World!\n" (Buffer.contents out)

let test_control_flow () =
  (* abs via if.else *)
  let m = Module_ir.create "Smoke" in
  let b = Builder.func m "Smoke::myabs" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let c = Builder.emit b Htype.Bool "int.lt" [ Instr.Local "x"; Builder.const_int 0 ] in
  Builder.if_else b c ~then_:"neg" ~else_:"pos";
  Builder.set_block b "neg";
  let n = Builder.emit b (Htype.Int 64) "int.neg" [ Instr.Local "x" ] in
  Builder.return_result b n;
  Builder.set_block b "pos";
  Builder.return_result b (Instr.Local "x");
  let api = Host_api.compile [ m ] in
  Alcotest.(check int64) "abs -5" 5L (Value.as_int (Host_api.call api "Smoke::myabs" [ Value.Int (-5L) ]));
  Alcotest.(check int64) "abs 7" 7L (Value.as_int (Host_api.call api "Smoke::myabs" [ Value.Int 7L ]))

let test_exceptions () =
  (* try { throw } catch -> returns 1; without catch the error escapes *)
  let m = Module_ir.create "Smoke" in
  let b = Builder.func m "Smoke::catcher" ~params:[] ~result:(Htype.Int 64) in
  let _ = Builder.local b "e" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "handler"; Instr.Local "e" ];
  let exc =
    Builder.emit b Htype.Exception "exception.new" [ Builder.const_string "Hilti::IndexError" ]
  in
  Builder.instr b "throw" [ exc ];
  Builder.set_block b "handler";
  Builder.return_result b (Builder.const_int 1);
  let api = Host_api.compile [ m ] in
  Alcotest.(check int64) "caught" 1L (Value.as_int (Host_api.call api "Smoke::catcher" []))

let test_fiber_yield () =
  (* A function that yields once between two prints. *)
  let m = Module_ir.create "Smoke" in
  let b = Builder.func m "Smoke::stepper" ~params:[] ~result:(Htype.Int 64) in
  Builder.call b "Hilti::print" [ Builder.const_string "one" ];
  Builder.instr b "yield" [];
  Builder.call b "Hilti::print" [ Builder.const_string "two" ];
  Builder.return_result b (Builder.const_int 99);
  let api = Host_api.compile [ m ] in
  let out = Buffer.create 16 in
  Host_api.set_output api (fun s -> Buffer.add_string out (s ^ ";"));
  let run = Host_api.call_fiber api (Host_api.func api "Smoke::stepper") [] in
  Alcotest.(check bool) "suspended after yield" false (Host_api.finished run);
  Alcotest.(check string) "first half" "one;" (Buffer.contents out);
  ignore (Host_api.resume run);
  Alcotest.(check bool) "finished" true (Host_api.finished run);
  Alcotest.(check string) "both halves" "one;two;" (Buffer.contents out);
  Alcotest.(check int64) "result" 99L (Value.as_int (Host_api.result_exn run))

let test_globals_and_containers () =
  let m = Module_ir.create "Smoke" in
  Module_ir.add_global m "hits" (Htype.Ref (Htype.Set Htype.Addr));
  let b = Builder.func m "Smoke::init" ~params:[] ~result:Htype.Void in
  let s = Builder.emit b (Htype.Ref (Htype.Set Htype.Addr)) "new" [ Instr.Type_op (Htype.Set Htype.Addr) ] in
  Builder.instr b ~target:"hits" "assign" [ s ];
  Builder.return_ b;
  let b2 = Builder.func m "Smoke::track" ~params:[ ("a", Htype.Addr) ] ~result:(Htype.Int 64) in
  Builder.instr b2 "set.insert" [ Instr.Global "hits"; Instr.Local "a" ];
  let size = Builder.emit b2 (Htype.Int 64) "set.size" [ Instr.Global "hits" ] in
  Builder.return_result b2 size;
  let api = Host_api.compile [ m ] in
  ignore (Host_api.call api "Smoke::init" []);
  let a1 = Value.Addr (Hilti_types.Addr.of_string "10.0.0.1") in
  let a2 = Value.Addr (Hilti_types.Addr.of_string "10.0.0.2") in
  Alcotest.(check int64) "first" 1L (Value.as_int (Host_api.call api "Smoke::track" [ a1 ]));
  Alcotest.(check int64) "dup" 1L (Value.as_int (Host_api.call api "Smoke::track" [ a1 ]));
  Alcotest.(check int64) "second" 2L (Value.as_int (Host_api.call api "Smoke::track" [ a2 ]))

let suite =
  [ Alcotest.test_case "add3" `Quick test_add;
    Alcotest.test_case "hello print" `Quick test_print_capture;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "fiber yield" `Quick test_fiber_yield;
    Alcotest.test_case "globals and sets" `Quick test_globals_and_containers ]
