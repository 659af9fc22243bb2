(* Register-bank specialization and superinstruction fusion: the typing
   export feeding bank assignment, verifier rejection of malformed
   specialized opcodes, the observability of specialized dispatch, and a
   differential property (generic vs specialized opcodes on the one
   dispatch loop) over random programs with int and float loops, branches
   and exceptions. *)

module Bc = Hilti_vm.Bytecode
module Value = Hilti_vm.Value
module Verify = Hilti_vm.Verify
module H = Hilti_vm.Host_api
module Metrics = Hilti_obs.Metrics

(* ---- Typing export ------------------------------------------------------ *)

let test_typing_export () =
  (* sum = 0; i = 3; while (i > 0) { sum += i; i -= 0 }; return sum —
     the same loop the verifier-acceptance test uses, with hand-computed
     per-register tags. *)
  let f =
    Test_analysis.mk_func ~nregs:5
      [ Bc.Const (0, Value.Int 0L);
        Bc.Const (1, Value.Int 3L);
        Bc.Const (2, Value.Int 0L);
        Bc.Prim (Bc.P_int_cmp Bc.C_gt, [| 1; 2 |], 3);
        Bc.Br (3, 5, 8);
        Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 0; 1 |], 0);
        Bc.Prim (Bc.P_int_arith (Bc.A_sub, 64), [| 1; 2 |], 1);
        Bc.Jump 3;
        Bc.Ret 0 ]
  in
  let p = Test_analysis.mk_prog [ f ] in
  ignore (Verify.verify_exn p);
  let tag = Alcotest.testable (Fmt.of_to_string Bc.tag_name) ( = ) in
  Alcotest.(check (array tag)) "loop register tags"
    [| Bc.Tint; Bc.Tint; Bc.Tint; Bc.Tbool; Bc.Any |]
    f.Bc.typing;
  (* Parameters stay Any (callers choose the value); Mov propagates tags
     through the copy fixpoint; double constants tag Tdouble. *)
  let g =
    Test_analysis.mk_func ~nparams:1 ~nregs:4
      [ Bc.Const (1, Value.Double 2.5); Bc.Mov (2, 1); Bc.Ret 1 ]
  in
  let p = Test_analysis.mk_prog [ g ] in
  ignore (Verify.verify_exn p);
  Alcotest.(check (array tag)) "param/mov/double tags"
    [| Bc.Any; Bc.Tdouble; Bc.Tdouble; Bc.Any |]
    g.Bc.typing

(* ---- Verifier rejects malformed specialized opcodes --------------------- *)

let test_verifier_rejects_malformed_spec () =
  (* Specialized opcode in a function that never went through Specialize:
     no bank metadata, nothing to index into. *)
  Test_analysis.expect_reject "spec opcode without metadata"
    (Test_analysis.mk_prog
       [ Test_analysis.mk_func [ Bc.IConst_u (0, 1L); Bc.Ret (-1) ] ])
    "without bank metadata";
  (* Bank-mismatched slots: int slot past n_int, float slot with an empty
     float bank. *)
  let with_spec ~n_int ~n_float code =
    let f = Test_analysis.mk_func code in
    f.Bc.spec <-
      Some
        {
          Bc.n_int;
          n_float;
          ibank_init = Bytes.make (8 * n_int) '\000';
          fbank_init = Array.make n_float 0.0;
          int_slot = Array.make f.Bc.nregs (-1);
          float_slot = Array.make f.Bc.nregs (-1);
          iter_slot = Array.make f.Bc.nregs (-1);
          entry_pc = 0;
          pair_ret = false;
        };
    Test_analysis.mk_prog [ f ]
  in
  Test_analysis.expect_reject "int slot out of bank"
    (with_spec ~n_int:1 ~n_float:0 [ Bc.IConst_u (5, 1L); Bc.Ret (-1) ])
    "int-bank slot 5 out of range";
  Test_analysis.expect_reject "float slot in empty bank"
    (with_spec ~n_int:1 ~n_float:0 [ Bc.FConst_u (0, 1.0); Bc.Ret (-1) ])
    "float-bank slot 0 out of range";
  Test_analysis.expect_reject "fused branch target out of range"
    (with_spec ~n_int:2 ~n_float:0
       [ Bc.IBrCmp_u (Bc.C_lt, 0, 1, 99, 1); Bc.Ret (-1) ])
    "out of range";
  (* A bank template shorter than its declared slot count (as in a
     hand-edited image) would let an in-range slot read past the bank. *)
  let p = with_spec ~n_int:1 ~n_float:0 [ Bc.IConst_u (0, 1L); Bc.Ret (-1) ] in
  (match p.Bc.funcs.(0).Bc.spec with
  | Some sp -> p.Bc.funcs.(0).Bc.spec <- Some { sp with Bc.n_int = 4 }
  | None -> ());
  Test_analysis.expect_reject "bank template shorter than the bank" p
    "bank templates do not match";
  (* Split iterators: a position slot outside the bank, and a parse call
     to a function that returns no position pair. *)
  let p = with_spec ~n_int:1 ~n_float:0 [ Bc.Ret (-1) ] in
  (match p.Bc.funcs.(0).Bc.spec with
  | Some sp -> sp.Bc.iter_slot.(0) <- 3
  | None -> ());
  Test_analysis.expect_reject "iterator position past the bank" p
    "iterator position slots outside the int bank";
  Test_analysis.expect_reject "parse call to a plain function"
    (with_spec ~n_int:1 ~n_float:0
       [ Bc.CallP_u (0, [||], [||], 0, 1, 0); Bc.Ret (-1) ])
    "returns no position pair"

(* ---- Specialization smoke: fusion happened, obs counters move ----------- *)

(* acc = 0; i = 0; while (i < n) { x = i*3 xor acc; acc +/-= x by parity;
   i += 1 } — the integer-hot shape the superinstructions target. *)
let hot_module () =
  let m = Module_ir.create "Hot" in
  let b =
    Builder.func m "Hot::spin" ~params:[ ("n", Htype.Int 64) ]
      ~result:(Htype.Int 64)
  in
  let acc = Builder.local b "acc" (Htype.Int 64) in
  let i = Builder.local b "i" (Htype.Int 64) in
  Builder.assign b ~target:acc (Builder.const_int 0);
  Builder.assign b ~target:i (Builder.const_int 0);
  Builder.jump b "head";
  Builder.set_block b "head";
  let c = Builder.emit b Htype.Bool "int.lt" [ Instr.Local i; Instr.Local "n" ] in
  Builder.if_else b c ~then_:"body" ~else_:"exit";
  Builder.set_block b "body";
  let x = Builder.emit b (Htype.Int 64) "int.mul" [ Instr.Local i; Builder.const_int 3 ] in
  let x = Builder.emit b (Htype.Int 64) "int.xor" [ x; Instr.Local acc ] in
  let par = Builder.emit b (Htype.Int 64) "int.and" [ x; Builder.const_int 1 ] in
  let even = Builder.emit b Htype.Bool "int.eq" [ par; Builder.const_int 0 ] in
  Builder.if_else b even ~then_:"even" ~else_:"odd";
  Builder.set_block b "even";
  let e = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; x ] in
  Builder.assign b ~target:acc e;
  Builder.jump b "latch";
  Builder.set_block b "odd";
  let o = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local acc; x ] in
  Builder.assign b ~target:acc o;
  Builder.jump b "latch";
  Builder.set_block b "latch";
  let i' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local i; Builder.const_int 1 ] in
  Builder.assign b ~target:i i';
  Builder.jump b "head";
  Builder.set_block b "exit";
  Builder.return_result b (Instr.Local acc);
  m

let test_specialization_smoke () =
  let api = H.compile [ hot_module () ] in
  let prog = api.H.ctx.Hilti_vm.Vm.program in
  Alcotest.(check bool) "program marked specialized" true prog.Bc.specialized;
  let f = prog.Bc.funcs.(Option.get (Bc.find_func prog "Hot::spin")) in
  Alcotest.(check bool) "bank metadata attached" true (f.Bc.spec <> None);
  let has pred = Array.exists pred f.Bc.code in
  Alcotest.(check bool) "compare+branch fused" true
    (has (function Bc.IBrCmp_u _ | Bc.IBrCmpK_u _ -> true | _ -> false));
  Alcotest.(check bool) "increment+backedge fused" true
    (has (function Bc.IIncrJ_u _ -> true | _ -> false));
  let specialized = Value.as_int (H.call api "Hot::spin" [ Value.Int 500L ]) in
  let api_g = H.compile ~specialize:false [ hot_module () ] in
  let generic = Value.as_int (H.call api_g "Hot::spin" [ Value.Int 500L ]) in
  Alcotest.(check int64) "same result as generic opcodes" generic specialized;
  (* Bridge instructions (box/unbox at bank boundaries) are visible to the
     obs layer: the hot loop re-unboxes the boxed parameter every
     iteration, so the transfer counter must move. *)
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value Hilti_vm.Vm.m_regbank_transfers in
      ignore (H.call api "Hot::spin" [ Value.Int 100L ]);
      let after = Metrics.counter_value Hilti_vm.Vm.m_regbank_transfers in
      Alcotest.(check bool) "vm_regbank_transfers advanced" true (after > before))

(* ---- Generic vs specialized differential property ------------------------ *)

(* Random programs mixing an integer expression loop (with possibly-raising
   div/mod), a float accumulator (with possibly-raising double.div), an
   integer-parity diamond and a float-threshold branch.  Generic and
   specialized bytecode must agree on the result, the escaping exception,
   and the number of runtime safety checks that fired. *)
let prop_differential_generic_spec =
  let module G = QCheck.Gen in
  let rec expr_gen depth =
    if depth = 0 then
      G.oneof [ G.return `X; G.return `I; G.map (fun i -> `C i) (G.int_range (-10) 10) ]
    else
      G.oneof
        [ G.return `X;
          G.return `I;
          G.map (fun i -> `C i) (G.int_range (-10) 10);
          G.map3 (fun op l r -> `Bin (op, l, r))
            (G.oneofl [ "add"; "sub"; "mul"; "and"; "xor"; "min"; "div"; "mod" ])
            (expr_gen (depth - 1)) (expr_gen (depth - 1)) ]
  in
  let rec build b = function
    | `X -> Instr.Local "x"
    | `I -> Instr.Local "i"
    | `C i -> Builder.const_int i
    | `Bin (op, l, r) ->
        let lo = build b l in
        let ro = build b r in
        Builder.emit b (Htype.Int 64) ("int." ^ op) [ lo; ro ]
  in
  let const_double f = Instr.Const (Constant.Double f) in
  let mk (body, fop, fc, bound, thenc, elsec) =
    let m = Module_ir.create "R" in
    let b = Builder.func m "R::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
    let acc = Builder.local b "acc" (Htype.Int 64) in
    let i = Builder.local b "i" (Htype.Int 64) in
    let facc = Builder.local b "facc" Htype.Double in
    Builder.assign b ~target:acc (Builder.const_int 0);
    Builder.assign b ~target:i (Builder.const_int bound);
    Builder.assign b ~target:facc (const_double 0.5);
    Builder.jump b "head";
    Builder.set_block b "head";
    let c = Builder.emit b Htype.Bool "int.gt" [ Instr.Local i; Builder.const_int 0 ] in
    Builder.if_else b c ~then_:"body" ~else_:"exit";
    Builder.set_block b "body";
    let v = build b body in
    let acc' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; v ] in
    Builder.assign b ~target:acc acc';
    (* float accumulator: fop may be double.div with fc = 0.0 — the raise
       must escape identically from generic and specialized code *)
    let f' = Builder.emit b Htype.Double ("double." ^ fop) [ Instr.Local facc; const_double fc ] in
    Builder.assign b ~target:facc f';
    (* integer-parity diamond *)
    let par = Builder.emit b (Htype.Int 64) "int.and" [ Instr.Local acc; Builder.const_int 1 ] in
    let even = Builder.emit b Htype.Bool "int.eq" [ par; Builder.const_int 0 ] in
    Builder.if_else b even ~then_:"even" ~else_:"odd";
    Builder.set_block b "even";
    let e = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; Builder.const_int thenc ] in
    Builder.assign b ~target:acc e;
    Builder.jump b "fbr";
    Builder.set_block b "odd";
    let o = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local acc; Builder.const_int elsec ] in
    Builder.assign b ~target:acc o;
    Builder.jump b "fbr";
    (* float-threshold branch *)
    Builder.set_block b "fbr";
    let fc2 = Builder.emit b Htype.Bool "double.lt" [ Instr.Local facc; const_double 50.0 ] in
    Builder.if_else b fc2 ~then_:"fbump" ~else_:"latch";
    Builder.set_block b "fbump";
    let fb = Builder.emit b Htype.Double "double.add" [ Instr.Local facc; const_double 1.0 ] in
    Builder.assign b ~target:facc fb;
    Builder.jump b "latch";
    Builder.set_block b "latch";
    let i' = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local i; Builder.const_int 1 ] in
    Builder.assign b ~target:i i';
    Builder.jump b "head";
    Builder.set_block b "exit";
    let fi = Builder.emit b (Htype.Int 64) "double.to_int" [ Instr.Local facc ] in
    let r = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; fi ] in
    Builder.return_result b r;
    m
  in
  let case_gen =
    let module G = QCheck.Gen in
    G.map3
      (fun body (fop, fc) (bound, thenc, elsec) -> (body, fop, fc, bound, thenc, elsec))
      (expr_gen 3)
      (G.pair (G.oneofl [ "add"; "sub"; "mul"; "div" ])
         (G.oneofl [ 0.0; 0.5; 1.5; 2.0; -1.0 ]))
      (G.triple (G.int_range 0 6) (G.int_range (-5) 5) (G.int_range (-5) 5))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"generic = specialized (result, exception, dynamic hits)"
       ~count:60
       (QCheck.make (QCheck.Gen.pair case_gen (QCheck.Gen.int_range (-20) 20)))
       (fun (case, x) ->
         let run compile =
           let api = compile (mk case) in
           Metrics.with_enabled true (fun () ->
               let before = Metrics.counter_value Value.m_dynamic_hit in
               let outcome =
                 match H.call api "R::f" [ Value.Int (Int64.of_int x) ] with
                 | v -> Ok (Value.as_int v)
                 | exception Value.Hilti_error e -> Error e.Value.ename
               in
               let hits = Metrics.counter_value Value.m_dynamic_hit - before in
               (outcome, hits))
         in
         run (fun m -> H.compile ~specialize:false [ m ])
         = run (fun m -> H.compile [ m ])))

(* ---- Specialize only where it pays -------------------------------------- *)

let fw_rules =
  Hilti_firewall.Fw_rules.parse_rules
    {|
10.3.2.1/32 10.1.0.0/16 allow
10.1.6.0/24 * allow
|}

let test_nothing_to_bank_stays_generic () =
  (* The firewall's functions bank nothing: they keep [spec = None] and
     their generic code, so an activation blits no bank templates. *)
  let fw_spec = Hilti_firewall.Fw_hilti.load fw_rules in
  let fw_generic = Hilti_firewall.Fw_hilti.load ~specialize:false fw_rules in
  let api = fw_spec.Hilti_firewall.Fw_hilti.api in
  let p = api.H.ctx.Hilti_vm.Vm.program in
  Array.iter
    (fun (f : Bc.func) ->
      Alcotest.(check bool) (f.Bc.name ^ " left generic") true (f.Bc.spec = None))
    p.Bc.funcs;
  (match api.H.spec_stats with
  | Some st ->
      Alcotest.(check int) "every function counted generic" (Array.length p.Bc.funcs)
        st.Hilti_vm.Specialize.s_generic;
      Alcotest.(check int) "none specialized" 0 st.Hilti_vm.Specialize.s_funcs
  | None -> Alcotest.fail "no specialization stats");
  Alcotest.(check bool) "program marked specialized" true p.Bc.specialized;
  let t0 = Hilti_types.Time_ns.of_secs 1_400_000_000 in
  let decide fw =
    List.map
      (fun (s, d) ->
        Hilti_firewall.Fw_hilti.match_packet fw ~ts:t0 ~src:(Hilti_types.Addr.of_string s)
          ~dst:(Hilti_types.Addr.of_string d))
      [ ("10.3.2.1", "10.1.2.3"); ("10.1.2.3", "10.3.2.1"); ("10.1.6.9", "8.8.8.8");
        ("10.9.9.9", "10.1.0.1") ]
  in
  Alcotest.(check (list bool)) "same decisions" (decide fw_generic) (decide fw_spec)

(* ---- Split parse positions ---------------------------------------------- *)

let test_dns_positions_in_bank () =
  (* The specialized DNS parser keeps every parse position in the int
     bank: no [unpack]/[read] writes a boxed iterator register, every
     parse function returns its position as a pair and is called with the
     position-passing convention, and the rewritten code verifies. *)
  let pac = Binpacxx.Runtime.load (Binpacxx.Grammars.parse_dns ()) in
  let p = pac.Binpacxx.Runtime.api.H.ctx.Hilti_vm.Vm.program in
  let parse_funcs =
    List.filter
      (fun (f : Bc.func) -> String.starts_with ~prefix:"DNS::parse_" f.Bc.name)
      (Array.to_list p.Bc.funcs)
  in
  Alcotest.(check int) "four parse functions" 4 (List.length parse_funcs);
  List.iter
    (fun (f : Bc.func) ->
      Array.iteri
        (fun pc i ->
          match i with
          | Bc.Unpack _ | Bc.UnpackI_u _ | Bc.Read _ ->
              Alcotest.failf "%s@%d writes a boxed iterator: %s" f.Bc.name pc
                (Bc.instr_to_string i)
          | _ -> ())
        f.Bc.code;
      Alcotest.(check bool) (f.Bc.name ^ " returns a position pair") true
        (match f.Bc.spec with Some sp -> sp.Bc.pair_ret | None -> false))
    parse_funcs;
  let text = Bc.disassemble p in
  let has needle = Astring_contains.contains text needle in
  List.iter
    (fun needle -> Alcotest.(check bool) ("disassembly shows " ^ needle) true (has needle))
    [ "struct.set .qname"; "<- new DNS::RR"; "<- unpack.ube2 r2@"; "<- call #";
      "<- iter.advance r1@"; "<- bytes.length r3" ];
  Alcotest.(check bool) "no unnamed primitive" false (has "prim (");
  Alcotest.(check (list string)) "specialized code verifies" []
    (Verify.verify p).Verify.errors

let suite =
  [ Alcotest.test_case "typing export" `Quick test_typing_export;
    Alcotest.test_case "nothing to bank: functions stay generic" `Quick
      test_nothing_to_bank_stays_generic;
    Alcotest.test_case "DNS parse positions live in the int bank" `Quick
      test_dns_positions_in_bank;
    Alcotest.test_case "verifier rejects malformed specialized opcodes" `Quick
      test_verifier_rejects_malformed_spec;
    Alcotest.test_case "specialization smoke: fusion + obs" `Quick
      test_specialization_smoke;
    prop_differential_generic_spec ]
