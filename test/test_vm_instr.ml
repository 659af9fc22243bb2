(* Per-instruction semantics of the execution environment: each family of
   Table 1 exercised through compiled programs, including the safety
   behaviours §7 highlights (operand validation, contained failures). *)

open Hilti_vm

(* Convenience: a one-result function evaluating a single instruction. *)
let eval_instr ?(args = []) mnemonic operands =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[] ~result:Htype.Any in
  let v = Builder.emit b Htype.Any mnemonic operands in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  Host_api.call api "T::f" args

let check_int what expected v =
  Alcotest.(check int64) what expected (Value.as_int v)

let check_bool what expected v =
  Alcotest.(check bool) what expected (Value.as_bool v)

(* ---- Integer semantics ------------------------------------------------------------ *)

let test_int_ops () =
  check_int "add" 7L (eval_instr "int.add" [ Builder.const_int 3; Builder.const_int 4 ]);
  check_int "mod" 2L (eval_instr "int.mod" [ Builder.const_int 17; Builder.const_int 5 ]);
  check_int "shl" 40L (eval_instr "int.shl" [ Builder.const_int 5; Builder.const_int 3 ]);
  check_int "xor" 6L (eval_instr "int.xor" [ Builder.const_int 5; Builder.const_int 3 ]);
  check_bool "leq" true (eval_instr "int.leq" [ Builder.const_int 3; Builder.const_int 3 ]);
  check_int "min" 3L (eval_instr "int.min" [ Builder.const_int 3; Builder.const_int 9 ])

let test_int_width_wrapping () =
  (* int<8> arithmetic wraps at 8 bits (signed). *)
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[ ("x", Htype.Int 8) ] ~result:(Htype.Int 8) in
  let v = Builder.emit b (Htype.Int 8) "int.add" [ Instr.Local "x"; Builder.const_int ~width:8 1 ] in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  check_int "127+1 wraps to -128" (-128L) (Host_api.call api "T::f" [ Value.Int 127L ])

let test_division_by_zero () =
  match eval_instr "int.div" [ Builder.const_int 1; Builder.const_int 0 ] with
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "exception name" "Hilti::DivisionByZero" e.Value.ename
  | _ -> Alcotest.fail "no exception"

(* ---- Strings / bytes ---------------------------------------------------------------- *)

let test_string_ops () =
  Alcotest.(check string) "concat" "ab"
    (Value.as_string (eval_instr "string.concat" [ Builder.const_string "a"; Builder.const_string "b" ]));
  check_int "length" 5L (eval_instr "string.length" [ Builder.const_string "hello" ]);
  check_bool "starts_with" true
    (eval_instr "string.starts_with" [ Builder.const_string "foobar"; Builder.const_string "foo" ])

let test_string_format () =
  Alcotest.(check string) "format" "x=7 s=hi"
    (Value.as_string
       (eval_instr "string.format"
          [ Builder.const_string "x=%d s=%s"; Builder.const_int 7; Builder.const_string "hi" ]))

let test_bytes_ops () =
  let v = eval_instr "bytes.to_int" [ Builder.const_bytes "1234" ] in
  check_int "to_int" 1234L v;
  let v = eval_instr "bytes.to_int" [ Builder.const_bytes "ff"; Builder.const_int 16 ] in
  check_int "to_int base 16" 255L v;
  let v = eval_instr "bytes.to_lower" [ Builder.const_bytes "AbC" ] in
  Alcotest.(check string) "lower" "abc" (Hilti_types.Hbytes.to_string (Value.as_bytes v));
  check_bool "contains" true
    (eval_instr "bytes.contains" [ Builder.const_bytes "hello world"; Builder.const_bytes "o w" ]);
  match eval_instr "bytes.to_int" [ Builder.const_bytes "xyz" ] with
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "ValueError" "Hilti::ValueError" e.Value.ename
  | _ -> Alcotest.fail "parsed junk int"

let test_bytes_unpack_via_vm () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[ ("data", Htype.Ref Htype.Bytes) ] ~result:(Htype.Int 64) in
  let it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Instr.Local "data" ] in
  let t = Builder.emit b (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
      "bytes.unpack_uint" [ it; Builder.const_int 2; Builder.const_bool false ] in
  let v = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  let data = Hilti_types.Hbytes.of_string "\x34\x12rest" in
  Hilti_types.Hbytes.freeze data;
  check_int "little endian u16" 0x1234L (Host_api.call api "T::f" [ Value.Bytes data ])

(* ---- Domain types ------------------------------------------------------------------- *)

let test_addr_port_net_ops () =
  let addr s = Instr.Const (Constant.Addr (Hilti_types.Addr.of_string s)) in
  let v = eval_instr "addr.family" [ addr "1.2.3.4" ] in
  (match v with
  | Value.Enum ("Hilti::AddrFamily", 4, false) -> ()
  | v -> Alcotest.failf "family: %s" (Value.to_string v));
  check_bool "net.contains" true
    (eval_instr "net.contains"
       [ Instr.Const (Constant.Net (Hilti_types.Network.of_string "10.0.0.0/8")); addr "10.200.3.4" ]);
  let v = eval_instr "port.protocol" [ Instr.Const (Constant.Port (Hilti_types.Port.udp 53)) ] in
  (match v with
  | Value.Enum ("Hilti::Protocol", 2, false) -> ()
  | v -> Alcotest.failf "protocol: %s" (Value.to_string v));
  check_int "port.number" 53L
    (eval_instr "port.number" [ Instr.Const (Constant.Port (Hilti_types.Port.udp 53)) ])

let test_time_ops () =
  let t = Instr.Const (Constant.Time (Hilti_types.Time_ns.of_secs 100)) in
  let i = Instr.Const (Constant.Interval (Hilti_types.Interval_ns.of_secs 50)) in
  let v = eval_instr "time.add" [ t; i ] in
  Alcotest.(check string) "time.add" "150.000000" (Value.to_string v);
  check_bool "time.lt" true
    (eval_instr "time.lt" [ t; Instr.Const (Constant.Time (Hilti_types.Time_ns.of_secs 200)) ])

(* ---- Structs / tuples --------------------------------------------------------------- *)

let test_struct_lifecycle () =
  let m = Module_ir.create "T" in
  Module_ir.add_type m "Pair" (Module_ir.Struct_decl [ ("a", Htype.Int 64); ("b", Htype.String) ]);
  let b = Builder.func m "T::f" ~params:[] ~result:(Htype.Tuple [ Htype.Bool; Htype.Int 64; Htype.Bool ]) in
  let s = Builder.emit b (Htype.Ref (Htype.Struct "Pair")) "new" [ Instr.Type_op (Htype.Struct "Pair") ] in
  let sl = Builder.local b "s" (Htype.Ref (Htype.Struct "Pair")) in
  Builder.instr b ~target:sl "assign" [ s ];
  let unset_before = Builder.emit b Htype.Bool "struct.is_set" [ Instr.Local sl; Instr.Member "a" ] in
  Builder.instr b "struct.set" [ Instr.Local sl; Instr.Member "a"; Builder.const_int 9 ];
  let v = Builder.emit b (Htype.Int 64) "struct.get" [ Instr.Local sl; Instr.Member "a" ] in
  Builder.instr b "struct.unset" [ Instr.Local sl; Instr.Member "a" ];
  let set_after = Builder.emit b Htype.Bool "struct.is_set" [ Instr.Local sl; Instr.Member "a" ] in
  Builder.return_result b (Instr.Tuple_op [ unset_before; v; set_after ]);
  let api = Host_api.compile [ m ] in
  match Host_api.call api "T::f" [] with
  | Value.Tuple [| Value.Bool false; Value.Int 9L; Value.Bool false |] -> ()
  | v -> Alcotest.failf "got %s" (Value.to_string v)

let test_struct_unset_field_throws () =
  let m = Module_ir.create "T" in
  Module_ir.add_type m "P" (Module_ir.Struct_decl [ ("a", Htype.Int 64) ]);
  let b = Builder.func m "T::f" ~params:[] ~result:(Htype.Int 64) in
  let s = Builder.emit b (Htype.Ref (Htype.Struct "P")) "new" [ Instr.Type_op (Htype.Struct "P") ] in
  let v = Builder.emit b (Htype.Int 64) "struct.get" [ s; Instr.Member "a" ] in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  match Host_api.call api "T::f" [] with
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "UnsetField" "Hilti::UnsetField" e.Value.ename
  | _ -> Alcotest.fail "read of unset field"

(* ---- Containers through the VM ------------------------------------------------------- *)

let test_vector_bounds () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[] ~result:Htype.Any in
  let v = Builder.emit b (Htype.Ref (Htype.Vector (Htype.Int 64))) "new" [ Instr.Type_op (Htype.Vector (Htype.Int 64)) ] in
  let vl = Builder.local b "v" (Htype.Ref (Htype.Vector (Htype.Int 64))) in
  Builder.instr b ~target:vl "assign" [ v ];
  Builder.instr b "vector.push_back" [ Instr.Local vl; Builder.const_int 10 ];
  let x = Builder.emit b (Htype.Int 64) "vector.get" [ Instr.Local vl; Builder.const_int 5 ] in
  Builder.return_result b x;
  let api = Host_api.compile [ m ] in
  match Host_api.call api "T::f" [] with
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "IndexError" "Hilti::IndexError" e.Value.ename
  | _ -> Alcotest.fail "out-of-bounds read"

let test_list_ops_via_vm () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[] ~result:(Htype.Tuple [ Htype.Int 64; Htype.Int 64; Htype.Int 64 ]) in
  let l = Builder.emit b (Htype.Ref (Htype.List (Htype.Int 64))) "new" [ Instr.Type_op (Htype.List (Htype.Int 64)) ] in
  let ll = Builder.local b "l" (Htype.Ref (Htype.List (Htype.Int 64))) in
  Builder.instr b ~target:ll "assign" [ l ];
  Builder.instr b "list.append" [ Instr.Local ll; Builder.const_int 2 ];
  Builder.instr b "list.push_front" [ Instr.Local ll; Builder.const_int 1 ];
  Builder.instr b "list.append" [ Instr.Local ll; Builder.const_int 3 ];
  let front = Builder.emit b (Htype.Int 64) "list.pop_front" [ Instr.Local ll ] in
  let back = Builder.emit b (Htype.Int 64) "list.back" [ Instr.Local ll ] in
  let size = Builder.emit b (Htype.Int 64) "list.size" [ Instr.Local ll ] in
  Builder.return_result b (Instr.Tuple_op [ front; back; size ]);
  let api = Host_api.compile [ m ] in
  match Host_api.call api "T::f" [] with
  | Value.Tuple [| Value.Int 1L; Value.Int 3L; Value.Int 2L |] -> ()
  | v -> Alcotest.failf "got %s" (Value.to_string v)

let test_map_default_via_vm () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[] ~result:(Htype.Int 64) in
  let mp = Builder.emit b (Htype.Ref (Htype.Map (Htype.String, Htype.Int 64))) "new"
      [ Instr.Type_op (Htype.Map (Htype.String, Htype.Int 64)) ] in
  let ml = Builder.local b "m" (Htype.Ref (Htype.Map (Htype.String, Htype.Int 64))) in
  Builder.instr b ~target:ml "assign" [ mp ];
  Builder.instr b "map.default" [ Instr.Local ml; Builder.const_int 7 ];
  let v = Builder.emit b (Htype.Int 64) "map.get" [ Instr.Local ml; Builder.const_string "missing" ] in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  check_int "default materialized" 7L (Host_api.call api "T::f" [])

(* ---- Switch / select / callable ------------------------------------------------------- *)

let test_switch () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[ ("x", Htype.Int 64) ] ~result:Htype.String in
  Builder.instr b "switch"
    [ Instr.Local "x"; Instr.Label "default";
      Instr.Tuple_op [ Builder.const_int 1; Instr.Label "one" ];
      Instr.Tuple_op [ Builder.const_int 2; Instr.Label "two" ] ];
  Builder.set_block b "one";
  Builder.return_result b (Builder.const_string "one");
  Builder.set_block b "two";
  Builder.return_result b (Builder.const_string "two");
  Builder.set_block b "default";
  Builder.return_result b (Builder.const_string "other");
  let api = Host_api.compile [ m ] in
  let call x = Value.as_string (Host_api.call api "T::f" [ Value.Int x ]) in
  Alcotest.(check string) "case 1" "one" (call 1L);
  Alcotest.(check string) "case 2" "two" (call 2L);
  Alcotest.(check string) "default" "other" (call 99L)

let test_callable_bind () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::add" ~params:[ ("a", Htype.Int 64); ("b", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let s = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local "a"; Instr.Local "b" ] in
  Builder.return_result b s;
  let b = Builder.func m "T::f" ~params:[] ~result:(Htype.Int 64) in
  let c = Builder.emit b (Htype.Callable ([], Htype.Int 64)) "callable.bind"
      [ Instr.Fname "T::add"; Instr.Tuple_op [ Builder.const_int 20; Builder.const_int 22 ] ] in
  let v = Builder.emit b (Htype.Int 64) "callable.call" [ c ] in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  check_int "deferred call" 42L (Host_api.call api "T::f" [])

(* ---- Timers through the VM -------------------------------------------------------------- *)

let test_timer_via_vm () =
  let m = Module_ir.create "T" in
  Module_ir.add_global m "fired" (Htype.Int 64);
  let b = Builder.func m "T::cb" ~params:[] ~result:Htype.Void in
  let one = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Global "fired"; Builder.const_int 1 ] in
  Builder.instr b ~target:"fired" "assign" [ one ];
  Builder.return_ b;
  let b = Builder.func m "T::f" ~params:[] ~result:(Htype.Int 64) in
  let mgr = Builder.emit b (Htype.Ref Htype.Timer_mgr) "timer_mgr.new" [] in
  let ml = Builder.local b "mgr" (Htype.Ref Htype.Timer_mgr) in
  Builder.instr b ~target:ml "assign" [ mgr ];
  let cb = Builder.emit b (Htype.Callable ([], Htype.Void)) "callable.bind"
      [ Instr.Fname "T::cb"; Instr.Tuple_op [] ] in
  Builder.instr b "timer_mgr.schedule"
    [ Instr.Local ml; Instr.Const (Constant.Time (Hilti_types.Time_ns.of_secs 10)); cb ];
  Builder.instr b "timer_mgr.advance"
    [ Instr.Local ml; Instr.Const (Constant.Time (Hilti_types.Time_ns.of_secs 5)) ];
  let early = Builder.emit b (Htype.Int 64) "assign" [ Instr.Global "fired" ] in
  Builder.instr b "timer_mgr.advance"
    [ Instr.Local ml; Instr.Const (Constant.Time (Hilti_types.Time_ns.of_secs 20)) ];
  let late = Builder.emit b (Htype.Int 64) "assign" [ Instr.Global "fired" ] in
  let early10 = Builder.emit b (Htype.Int 64) "int.mul" [ early; Builder.const_int 10 ] in
  let sum = Builder.emit b (Htype.Int 64) "int.add" [ early10; late ] in
  Builder.return_result b sum;
  let api = Host_api.compile [ m ] in
  (* early=0, late=1 -> 0*10+1 = 1 *)
  check_int "timer fired exactly once, on time" 1L (Host_api.call api "T::f" [])

(* ---- Threads: deep-copy isolation (§3.2) -------------------------------------------------- *)

let test_thread_isolation () =
  let m = Module_ir.create "T" in
  Module_ir.add_global m "received" (Htype.Int 64);
  let b = Builder.func m "T::receiver" ~params:[ ("l", Htype.Ref (Htype.List (Htype.Int 64))) ] ~result:Htype.Void in
  let n = Builder.emit b (Htype.Int 64) "list.size" [ Instr.Local "l" ] in
  Builder.instr b ~target:"received" "assign" [ n ];
  Builder.return_ b;
  let api = Host_api.compile [ m ] in
  (* Build a list, schedule it to thread 7, then mutate the original. *)
  let d = Deque.create () in
  Deque.push_back d (Value.Int 1L);
  Host_api.schedule api 7L "T::receiver" [ Value.List d ];
  Deque.push_back d (Value.Int 2L);
  Deque.push_back d (Value.Int 3L);
  Host_api.run_scheduler api;
  (* The receiver saw the deep copy taken at schedule time: 1 element. *)
  let g = Hilti_vm.Vm.globals_for api.Host_api.ctx 7L in
  check_int "receiver isolated from sender mutations" 1L g.(0)

(* ---- Exceptions: nested handlers, rethrow --------------------------------------------------- *)

let test_nested_try () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[] ~result:Htype.String in
  let e1 = Builder.local b "e1" Htype.Exception in
  let e2 = Builder.local b "e2" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "outer"; Instr.Local e1 ];
  Builder.instr b "try.push" [ Instr.Label "inner"; Instr.Local e2 ];
  let exc = Builder.emit b Htype.Exception "exception.new" [ Builder.const_string "E1" ] in
  Builder.instr b "throw" [ exc ];
  Builder.set_block b "inner";
  (* inner handler rethrows a different exception to the outer handler *)
  let exc2 = Builder.emit b Htype.Exception "exception.new" [ Builder.const_string "E2" ] in
  Builder.instr b "throw" [ exc2 ];
  Builder.set_block b "outer";
  let name = Builder.emit b Htype.String "exception.name" [ Instr.Local e1 ] in
  Builder.return_result b name;
  let api = Host_api.compile [ m ] in
  Alcotest.(check string) "inner then outer" "E2"
    (Value.as_string (Host_api.call api "T::f" []))

let test_exception_crosses_calls () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::deep" ~params:[] ~result:Htype.Void in
  let exc = Builder.emit b Htype.Exception "exception.new" [ Builder.const_string "Deep" ] in
  Builder.instr b "throw" [ exc ];
  let b = Builder.func m "T::mid" ~params:[] ~result:Htype.Void in
  Builder.call b "T::deep" [];
  Builder.return_ b;
  let b = Builder.func m "T::f" ~params:[] ~result:Htype.String in
  let e = Builder.local b "e" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "handler"; Instr.Local e ];
  Builder.call b "T::mid" [];
  Builder.return_result b (Builder.const_string "no exception");
  Builder.set_block b "handler";
  let name = Builder.emit b Htype.String "exception.name" [ Instr.Local e ] in
  Builder.return_result b name;
  let api = Host_api.compile [ m ] in
  Alcotest.(check string) "propagates across frames" "Deep"
    (Value.as_string (Host_api.call api "T::f" []))

(* ---- regexp.match_token via the VM --------------------------------------------------------- *)

let test_match_token_via_vm () =
  let m = Module_ir.create "T" in
  Module_ir.add_global m "re" Htype.Regexp;
  let b = Builder.func m "T::init" ~params:[] ~result:Htype.Void in
  let re = Builder.emit b Htype.Regexp "regexp.compile" [ Builder.const_string "[a-z]+" ] in
  Builder.instr b ~target:"re" "assign" [ re ];
  Builder.return_ b;
  let b = Builder.func m "T::f" ~params:[ ("data", Htype.Ref Htype.Bytes) ] ~result:(Htype.Tuple [ Htype.Int 64; Htype.Int 64 ]) in
  let it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Instr.Local "data" ] in
  let t = Builder.emit b (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
      "regexp.match_token" [ Instr.Global "re"; it ] in
  let id = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
  let after = Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ] in
  let len = Builder.emit b (Htype.Int 64) "iter.distance" [ it; after ] in
  Builder.return_result b (Instr.Tuple_op [ id; len ]);
  let api = Host_api.compile [ m ] in
  ignore (Host_api.call api "T::init" []);
  let data = Hilti_types.Hbytes.of_string "abc123" in
  Hilti_types.Hbytes.freeze data;
  match Host_api.call api "T::f" [ Value.Bytes data ] with
  | Value.Tuple [| Value.Int 0L; Value.Int 3L |] -> ()
  | v -> Alcotest.failf "got %s" (Value.to_string v)

(* ---- Classifier misuse ------------------------------------------------------------------ *)

(* Looking up before [classifier.compile] and adding after it are
   program errors; both must reach the program's own handler as a HILTI
   ValueError rather than escape the VM as an OCaml exception. *)
let test_classifier_misuse_catchable () =
  let src =
    {|module T

type Rule = struct { net src, net dst }

string get_uncompiled () {
    local ref<classifier<Rule, bool>> c
    local bool b
    local string n
    c = new classifier<Rule, bool>
    classifier.add c (10.0.0.0/8, *) True
    try {
        b = classifier.get c (10.1.2.3, 10.4.5.6)
    }
    catch ( ref<exception> e ) {
        n = exception.name e
        return n
    }
    return "no exception"
}

string add_after_compile () {
    local ref<classifier<Rule, bool>> c
    local string n
    c = new classifier<Rule, bool>
    classifier.add c (10.0.0.0/8, *) True
    classifier.compile c
    try {
        classifier.add c (10.1.0.0/16, *) False
    }
    catch ( ref<exception> e ) {
        n = exception.name e
        return n
    }
    return "no exception"
}
|}
  in
  let api = Host_api.compile [ Hilti_lang.Parser.parse_module src ] in
  List.iter
    (fun f ->
      Alcotest.(check string) f "Hilti::ValueError"
        (Value.as_string (Host_api.call api ("T::" ^ f) [])))
    [ "get_uncompiled"; "add_after_compile" ]

let suite =
  [ Alcotest.test_case "int ops" `Quick test_int_ops;
    Alcotest.test_case "int<8> wrapping" `Quick test_int_width_wrapping;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "string ops" `Quick test_string_ops;
    Alcotest.test_case "string format" `Quick test_string_format;
    Alcotest.test_case "bytes ops" `Quick test_bytes_ops;
    Alcotest.test_case "bytes unpack" `Quick test_bytes_unpack_via_vm;
    Alcotest.test_case "addr/port/net ops" `Quick test_addr_port_net_ops;
    Alcotest.test_case "time ops" `Quick test_time_ops;
    Alcotest.test_case "struct lifecycle" `Quick test_struct_lifecycle;
    Alcotest.test_case "struct unset field" `Quick test_struct_unset_field_throws;
    Alcotest.test_case "vector bounds checked" `Quick test_vector_bounds;
    Alcotest.test_case "list ops" `Quick test_list_ops_via_vm;
    Alcotest.test_case "map default" `Quick test_map_default_via_vm;
    Alcotest.test_case "switch" `Quick test_switch;
    Alcotest.test_case "callable bind/call" `Quick test_callable_bind;
    Alcotest.test_case "timers via VM" `Quick test_timer_via_vm;
    Alcotest.test_case "thread deep-copy isolation" `Quick test_thread_isolation;
    Alcotest.test_case "nested try/rethrow" `Quick test_nested_try;
    Alcotest.test_case "exceptions cross frames" `Quick test_exception_crosses_calls;
    Alcotest.test_case "regexp.match_token via VM" `Quick test_match_token_via_vm;
    Alcotest.test_case "classifier misuse is catchable" `Quick
      test_classifier_misuse_catchable ]
