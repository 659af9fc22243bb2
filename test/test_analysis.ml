(* The static-analysis layer: the dataflow solver and its stock analyses,
   the lint engine, dead-store elimination, the purity split feeding
   DCE/DSE, and the bytecode verifier (acceptance, rejection, and
   verification as the VM's precondition). *)

module Analyses = Hilti_passes.Analyses
module Dataflow = Hilti_passes.Dataflow
module Lint = Hilti_analysis.Lint
module Bc = Hilti_vm.Bytecode
module Value = Hilti_vm.Value
module Verify = Hilti_vm.Verify

let compile_and_call ?(optimize = true) ?(specialize = true) m name args =
  let api = Hilti_vm.Host_api.compile ~optimize ~specialize [ m ] in
  Hilti_vm.Host_api.call api name args

(* f(x): a is assigned on both arms of a diamond and returned at the
   join; x is dead after the condition.  The workhorse CFG for the
   dataflow tests. *)
let diamond_module ?(init_else = true) () =
  let m = Module_ir.create "D" in
  let b = Builder.func m "D::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let a = Builder.local b "a" (Htype.Int 64) in
  let cond = Builder.emit b Htype.Bool "int.lt" [ Instr.Local "x"; Builder.const_int 10 ] in
  Builder.if_else b cond ~then_:"then" ~else_:"else";
  Builder.set_block b "then";
  Builder.instr b ~target:a "int.add" [ Instr.Local "x"; Builder.const_int 1 ];
  Builder.jump b "join";
  Builder.set_block b "else";
  if init_else then
    Builder.instr b ~target:a "int.add" [ Instr.Local "x"; Builder.const_int 2 ];
  Builder.jump b "join";
  Builder.set_block b "join";
  Builder.return_result b (Instr.Local a);
  (m, Option.get (Module_ir.find_func m "D::f"))

let test_liveness_diamond () =
  let _, f = diamond_module () in
  let live = Analyses.liveness f in
  let in_join = live.Dataflow.in_of "join" in
  Alcotest.(check bool) "a live into join" true (Dataflow.StrSet.mem "a" in_join);
  Alcotest.(check bool) "x dead at join" false (Dataflow.StrSet.mem "x" in_join);
  let in_then = live.Dataflow.in_of "then" in
  Alcotest.(check bool) "x live into then" true (Dataflow.StrSet.mem "x" in_then)

let test_definite_init_diamond () =
  let _, f = diamond_module () in
  let init = Analyses.definite_init f in
  Alcotest.(check bool) "a definitely assigned at join" true
    (Dataflow.Str_inter.mem "a" (init.Dataflow.in_of "join"));
  Alcotest.(check int) "no use-before-init" 0
    (List.length (Analyses.use_before_init f));
  (* Drop the else-arm assignment: a only may be assigned at the join. *)
  let _, g = diamond_module ~init_else:false () in
  let init = Analyses.definite_init g in
  Alcotest.(check bool) "a no longer definite at join" false
    (Dataflow.Str_inter.mem "a" (init.Dataflow.in_of "join"));
  match Analyses.use_before_init g with
  | [ u ] ->
      Alcotest.(check string) "flagged variable" "a" u.Analyses.ubi_var;
      Alcotest.(check string) "flagged block" "join" u.Analyses.ubi_block
  | l -> Alcotest.failf "expected 1 use-before-init, got %d" (List.length l)

let test_reaching_definitions () =
  let _, f = diamond_module () in
  let sites, reach = Analyses.reaching_definitions f in
  let module S = Dataflow.Site_union.S in
  let defs_of_a_at_join =
    S.filter (fun (v, _) -> v = "a") (reach.Dataflow.in_of "join")
  in
  (* Both arms' definitions of a reach the join. *)
  Alcotest.(check int) "two defs of a reach join" 2 (S.cardinal defs_of_a_at_join);
  let blocks_of id =
    (List.find (fun s -> s.Analyses.site_id = id) sites).Analyses.site_block
  in
  let blocks =
    S.elements defs_of_a_at_join
    |> List.map (fun (_, id) -> blocks_of id)
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "sites are the two arms" [ "else"; "then" ] blocks;
  (* The parameter reaches the entry as a pseudo-site. *)
  let at_entry = reach.Dataflow.in_of "entry" in
  Alcotest.(check bool) "param pseudo-site reaches entry" true
    (S.exists (fun (v, id) -> v = "x" && id < 0) at_entry)

(* ---- Lint -------------------------------------------------------------- *)

let lint_fixture () =
  let m = Module_ir.create "L" in
  let b = Builder.func m "L::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let _unused = Builder.local b "never" (Htype.Int 64) in
  let dead = Builder.local b "dead" (Htype.Int 64) in
  Builder.instr b ~target:dead "int.add" [ Instr.Local "x"; Builder.const_int 1 ];
  Builder.return_result b (Instr.Local "x");
  Builder.set_block b "island";
  Builder.return_result b (Builder.const_int 0);
  m

let rules findings = List.map (fun f -> f.Lint.rule) findings

let test_lint_warnings () =
  let findings = Lint.analyze [ lint_fixture () ] in
  Alcotest.(check int) "no errors" 0 (List.length (Lint.errors findings));
  let rs = rules findings in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " reported") true (List.mem r rs))
    [ "unused-local"; "dead-store"; "unreachable-block" ];
  (* Output is stable and machine-readable: 6 tab-separated fields
     (severity rule func where location message), already sorted. *)
  List.iter
    (fun f ->
      let line = Lint.to_line f in
      Alcotest.(check int) "six fields"
        6 (List.length (String.split_on_char '\t' line)))
    findings;
  Alcotest.(check bool) "sorted output" true
    (List.sort Lint.compare_finding findings = findings)

let test_lint_validate_error () =
  let m = Module_ir.create "Bad" in
  let b = Builder.func m "Bad::f" ~params:[] ~result:Htype.Void in
  Builder.jump b "nowhere";
  let findings = Lint.analyze [ m ] in
  match Lint.errors findings with
  | [] -> Alcotest.fail "expected a validate error"
  | e :: _ ->
      Alcotest.(check string) "rule" "validate" e.Lint.rule;
      (* Errors sort before warnings. *)
      Alcotest.(check bool) "errors first" true
        ((List.hd findings).Lint.severity = Lint.Error)

let test_lint_clean_module () =
  let m = Module_ir.create "Clean" in
  let b = Builder.func m "Clean::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let v = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local "x"; Builder.const_int 1 ] in
  Builder.return_result b v;
  Alcotest.(check int) "no findings" 0 (List.length (Lint.analyze [ m ]))

(* ---- Validate extensions ------------------------------------------------ *)

let test_validate_switch_case_shape () =
  let m = Module_ir.create "Sw" in
  let b = Builder.func m "Sw::f" ~params:[ ("x", Htype.Int 64) ] ~result:Htype.Void in
  Builder.instr b "switch"
    [ Instr.Local "x";
      Instr.Label "out";
      (* malformed: second element must be a label *)
      Instr.Tuple_op [ Builder.const_int 1; Builder.const_int 2 ] ];
  Builder.set_block b "out";
  Builder.return_ b;
  let errors = Validate.check_module m in
  Alcotest.(check bool) "malformed case rejected" true
    (List.exists (fun e ->
         Astring_contains.contains e "switch: malformed case") errors)

let test_validate_nested_tuple_refs () =
  let m = Module_ir.create "Nest" in
  let b = Builder.func m "Nest::f" ~params:[] ~result:Htype.Void in
  (* An undeclared local buried inside a nested tuple operand. *)
  Builder.instr b "call"
    [ Instr.Fname "Hilti::print";
      Instr.Tuple_op [ Instr.Tuple_op [ Instr.Local "ghost" ] ] ];
  Builder.return_ b;
  let errors = Validate.check_module m in
  Alcotest.(check bool) "nested undeclared local rejected" true
    (List.exists (fun e -> Astring_contains.contains e "ghost") errors)

(* ---- Dead-store elimination and the purity split ------------------------ *)

let test_deadstore_eliminates () =
  let m = Module_ir.create "Ds" in
  let b = Builder.func m "Ds::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let dead = Builder.local b "dead" (Htype.Int 64) in
  (* Overwritten before any read: the first store is dead. *)
  Builder.instr b ~target:dead "int.add" [ Instr.Local "x"; Builder.const_int 1 ];
  Builder.instr b ~target:dead "int.add" [ Instr.Local "x"; Builder.const_int 2 ];
  let r = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local dead; Instr.Local "x" ] in
  Builder.return_result b r;
  let removed = Hilti_passes.Deadstore.run m in
  Alcotest.(check int) "one dead store removed" 1 removed;
  let v = compile_and_call ~optimize:false m "Ds::f" [ Value.Int 5L ] in
  Alcotest.(check int64) "semantics preserved" 12L (Value.as_int v)

let test_purity_split_raising_stores () =
  (* An unused x/0 must survive optimization (it raises); an unused x/2
     must not (constant non-zero divisor proves it cannot). *)
  let mk divisor =
    let m = Module_ir.create "P" in
    let b = Builder.func m "P::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
    let u = Builder.local b "u" (Htype.Int 64) in
    Builder.instr b ~target:u "int.div" [ Instr.Local "x"; Builder.const_int divisor ];
    Builder.return_result b (Instr.Local "x");
    m
  in
  (* x/2: deletable, the optimized function just returns x. *)
  let m2 = mk 2 in
  ignore (Hilti_passes.Pipeline.optimize m2);
  let f2 = Option.get (Module_ir.find_func m2 "P::f") in
  let ninstrs =
    List.fold_left (fun acc (b : Module_ir.block) -> acc + List.length b.instrs) 0 f2.Module_ir.blocks
  in
  Alcotest.(check int) "x/2 deleted" 1 ninstrs;
  (* x/0: not deletable; the exception still fires under full optimization. *)
  let m0 = mk 0 in
  match compile_and_call ~optimize:true m0 "P::f" [ Value.Int 7L ] with
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "raise survives optimization"
        "Hilti::DivisionByZero" e.Value.ename
  | v -> Alcotest.failf "dead raising store folded away: %s" (Value.to_string v)

(* ---- Bytecode verifier -------------------------------------------------- *)

let mk_func ?(name = "t") ?(nparams = 0) ?(nregs = 4) ?(entry_init = []) code =
  let n = max nregs 1 in
  let init = Array.make n false in
  for i = 0 to nparams - 1 do init.(i) <- true done;
  List.iter (fun r -> init.(r) <- true) entry_init;
  {
    Bc.name;
    nparams;
    nregs;
    code = Array.of_list code;
    returns_value = true;
    exported = false;
    reg_defaults = Array.make n Value.Null;
    entry_init = init;
    typing = [||];
    spec = None;
  }

let mk_prog ?(globals = [||]) funcs =
  let funcs = Array.of_list funcs in
  let func_index = Hashtbl.create 8 in
  Array.iteri (fun i (f : Bc.func) -> Hashtbl.replace func_index f.Bc.name i) funcs;
  {
    Bc.funcs;
    func_index;
    globals = Array.map fst globals;
    global_defaults = Array.map snd globals;
    global_index = Hashtbl.create 8;
    hooks = Hashtbl.create 8;
    layouts = Hashtbl.create 8;
    host_names = [||];
    verified = false;
    specialized = false;
  }

let expect_reject what p needle =
  let r = Verify.verify p in
  Alcotest.(check bool) (what ^ ": flagged") true (r.Verify.errors <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%s: message mentions %S" what needle)
    true
    (List.exists (fun e -> Astring_contains.contains e needle) r.Verify.errors);
  Alcotest.(check bool) (what ^ ": program not marked verified") false p.Bc.verified

let test_verifier_rejects_bad_jump () =
  expect_reject "jump past end"
    (mk_prog [ mk_func [ Bc.Jump 99 ] ])
    "out of range";
  expect_reject "negative branch target"
    (mk_prog
       [ mk_func ~entry_init:[ 0 ]
           [ Bc.Const (0, Value.Bool true); Bc.Br (0, -3, 0); Bc.Ret (-1) ] ])
    "out of range"

let test_verifier_rejects_use_before_init () =
  (* r1 is a lowering temporary (entry_init false) read before any write. *)
  expect_reject "use before init"
    (mk_prog
       [ mk_func [ Bc.Prim (Bc.P_int_abs 64, [| 1 |], 0); Bc.Ret 0 ] ])
    "used before definition"

let test_verifier_rejects_wrong_tag () =
  (* A bool constant fed to integer arithmetic. *)
  expect_reject "bool into int.add"
    (mk_prog
       [ mk_func
           [ Bc.Const (0, Value.Bool true);
             Bc.Const (1, Value.Int 1L);
             Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 0; 1 |], 2);
             Bc.Ret 2 ] ])
    "type tag mismatch";
  expect_reject "int as branch condition"
    (mk_prog
       [ mk_func
           [ Bc.Const (0, Value.Int 1L); Bc.Br (0, 2, 2); Bc.Ret (-1) ] ])
    "type tag mismatch"

let test_verifier_rejects_bad_frame_refs () =
  expect_reject "global slot out of range"
    (mk_prog [ mk_func [ Bc.LoadGlobal (0, 3); Bc.Ret 0 ] ])
    "global slot";
  expect_reject "destination outside frame"
    (mk_prog [ mk_func ~nregs:2 [ Bc.Const (7, Value.Int 0L); Bc.Ret (-1) ] ])
    "out of frame";
  expect_reject "fall off the end"
    (mk_prog [ mk_func [ Bc.Const (0, Value.Int 0L) ] ])
    "falls off the end";
  expect_reject "call arity mismatch"
    (mk_prog
       [ mk_func ~name:"callee" ~nparams:2 [ Bc.Ret 0 ];
         mk_func ~name:"caller" ~entry_init:[ 0 ]
           [ Bc.Const (0, Value.Int 1L); Bc.Call (0, [| 0 |], 1); Bc.Ret 1 ] ])
    "expects 2"

(* Link-time resolution: struct slots, hook bodies and host slots are
   indices the verifier bounds like any other. *)
let test_verifier_rejects_bad_link_refs () =
  let layout = Value.make_layout "S" [ "a"; "b" ] in
  expect_reject "struct slot outside its layout"
    (mk_prog
       [ mk_func ~entry_init:[ 0 ]
           [ Bc.Prim (Bc.P_struct (Bc.ST_get, layout, 2), [| 0 |], 1); Bc.Ret 1 ] ])
    "struct slot 2 out of range";
  expect_reject "negative struct slot"
    (mk_prog
       [ mk_func ~entry_init:[ 0 ]
           [ Bc.Prim (Bc.P_struct (Bc.ST_set, layout, -1), [| 0; 0 |], -1); Bc.Ret (-1) ] ])
    "struct slot -1 out of range";
  expect_reject "hook body index out of range"
    (mk_prog [ mk_func ~entry_init:[ 0 ] [ Bc.HookRun ([| 0; 5 |], [| 0 |]); Bc.Ret (-1) ] ])
    "hook body index 5 out of range";
  expect_reject "host slot out of range"
    (mk_prog [ mk_func [ Bc.CallC (0, [||], 0); Bc.Ret 0 ] ])
    "host slot 0 out of range"

(* A struct operation whose operand has no declared struct type cannot be
   resolved to a slot: lowering fails and names the instruction. *)
let test_lower_rejects_untyped_struct_op () =
  let m = Module_ir.create "U" in
  Module_ir.add_type m "U::S" (Module_ir.Struct_decl [ ("x", Htype.Int 64) ]);
  let b = Builder.func m "U::f" ~params:[ ("s", Htype.Any) ] ~result:(Htype.Int 64) in
  let v = Builder.emit b (Htype.Int 64) "struct.get" [ Instr.Local "s"; Instr.Member "x" ] in
  Builder.return_result b v;
  match Hilti_vm.Lower.lower_module (Hilti_passes.Linker.link [ m ]) with
  | _ -> Alcotest.fail "untyped struct operand lowered"
  | exception Hilti_vm.Lower.Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the instruction and operand: %s" msg)
        true
        (Astring_contains.contains msg "struct.get"
        && Astring_contains.contains msg "U::f"
        && Astring_contains.contains msg "operand s")

(* Each slot access checks the struct's layout by identity: a struct of
   another type raises Hilti::TypeError instead of reading a wrong slot. *)
let test_vm_struct_type_check () =
  let m = Module_ir.create "W" in
  Module_ir.add_type m "W::A" (Module_ir.Struct_decl [ ("x", Htype.Int 64) ]);
  Module_ir.add_type m "W::B" (Module_ir.Struct_decl [ ("x", Htype.Int 64) ]);
  let b =
    Builder.func m "W::get" ~exported:true
      ~params:[ ("a", Htype.Ref (Htype.Struct "W::A")) ]
      ~result:(Htype.Int 64)
  in
  let v = Builder.emit b (Htype.Int 64) "struct.get" [ Instr.Local "a"; Instr.Member "x" ] in
  Builder.return_result b v;
  let api = Hilti_vm.Host_api.compile [ m ] in
  let mk tname =
    let l = Option.get (Hilti_vm.Host_api.struct_layout api tname) in
    let s = Value.new_struct l in
    Value.set_field s "x" (Value.Int 7L);
    Value.Struct s
  in
  Alcotest.(check int64) "own type reads its slot" 7L
    (Value.as_int (Hilti_vm.Host_api.call api "W::get" [ mk "W::A" ]));
  match Hilti_vm.Host_api.call api "W::get" [ mk "W::B" ] with
  | v -> Alcotest.failf "struct of another type read: %s" (Value.to_string v)
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "TypeError" "Hilti::TypeError" e.Value.ename

(* Host-side reads go through the layout by name and are not VM safety
   checks: an unset or undeclared field leaves the counter alone. *)
let test_host_field_read_uncounted () =
  let module M = Hilti_obs.Metrics in
  let s = Value.new_struct (Value.make_layout "H" [ "set"; "unset" ]) in
  Value.set_field s "set" (Value.Int 1L);
  let read name = Value.field (Value.Struct s) name in
  M.with_enabled true (fun () ->
      let before = M.counter_value Value.m_dynamic_hit in
      Alcotest.(check bool) "set field" true (read "set" = Some (Value.Int 1L));
      Alcotest.(check bool) "unset field" true (read "unset" = None);
      Alcotest.(check bool) "undeclared field" true (read "nope" = None);
      Alcotest.(check bool) "not a struct" true (Value.field (Value.Int 3L) "set" = None);
      Alcotest.(check int) "dynamic_hit unchanged" before
        (M.counter_value Value.m_dynamic_hit);
      (* The counter is live: a VM-side failure does move it. *)
      ignore (Value.unset_field "unset");
      Alcotest.(check int) "a safety failure counts" (before + 1)
        (M.counter_value Value.m_dynamic_hit))

let test_verifier_accepts_good_function () =
  (* A small loop: sum = 0; i = 3; while (i > 0) { sum += i; i -= 1 } —
     temps defined before use on every path, tags consistent. *)
  let f =
    mk_func ~nregs:5
      [ Bc.Const (0, Value.Int 0L);                              (* sum *)
        Bc.Const (1, Value.Int 3L);                              (* i *)
        Bc.Const (2, Value.Int 0L);                              (* zero *)
        Bc.Prim (Bc.P_int_cmp Bc.C_gt, [| 1; 2 |], 3);
        Bc.Br (3, 5, 8);
        Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 0; 1 |], 0);
        Bc.Prim (Bc.P_int_arith (Bc.A_sub, 64), [| 1; 2 |], 1);
        Bc.Jump 3;
        Bc.Ret 0 ]
  in
  let p = mk_prog [ f ] in
  let r = Verify.verify_exn p in
  Alcotest.(check bool) "marked verified" true p.Bc.verified;
  Alcotest.(check bool) "checks discharged" true (r.Verify.checks_discharged > 0);
  Alcotest.(check (list string)) "no errors" [] r.Verify.errors

let test_verifier_irreducible_cfg () =
  (* An irreducible region: the entry branch jumps into the middle of a
     two-block cycle (A <-> B), so neither block dominates the other.
     The definedness solver must still reach a fixpoint and judge the
     region by the join over both entry edges. *)
  let accept =
    (* r1 is defined before the region: fine on every path. *)
    mk_func ~nregs:4
      [ Bc.Const (0, Value.Bool true);
        Bc.Const (1, Value.Int 1L);
        Bc.Br (0, 3, 5);                                       (* -> A | B *)
        Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 1; 1 |], 1); (* A *)
        Bc.Br (0, 5, 7);                                       (* A -> B | exit *)
        Bc.Prim (Bc.P_int_arith (Bc.A_sub, 64), [| 1; 1 |], 1); (* B *)
        Bc.Br (0, 3, 7);                                       (* B -> A | exit *)
        Bc.Ret 1 ]
  in
  let r = Verify.verify (mk_prog [ accept ]) in
  Alcotest.(check (list string)) "irreducible region accepted" [] r.Verify.errors;
  (* r1 is defined only inside A; entering the cycle at B reads it
     uninitialized. *)
  expect_reject "irreducible region, one entry undefined"
    (mk_prog
       [ mk_func ~nregs:4
           [ Bc.Const (0, Value.Bool true);
             Bc.Br (0, 2, 4);                                  (* -> A | B *)
             Bc.Const (1, Value.Int 1L);                       (* A defines r1 *)
             Bc.Br (0, 4, 6);
             Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 1; 1 |], 2); (* B uses r1 *)
             Bc.Br (0, 2, 6);
             Bc.Ret (-1) ] ])
    "used before definition"

let test_verifier_exception_edge_join () =
  (* The handler's in-state is the join over every edge that can reach it
     — including the exceptional edge from the push point.  A register
     defined only *inside* the try body is not definite in the handler. *)
  let accept =
    (* r0 defined before try.push: visible to the handler. *)
    mk_func ~nregs:4
      [ Bc.Const (0, Value.Int 1L);
        Bc.TryPush (5, 2);
        Bc.Const (1, Value.Int 2L);
        Bc.TryPop;
        Bc.Ret 1;
        Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 0; 0 |], 3); (* handler *)
        Bc.Ret 3 ]
  in
  let r = Verify.verify (mk_prog [ accept ]) in
  Alcotest.(check (list string)) "pre-push def visible in handler" []
    r.Verify.errors;
  (* Same shape, but the handler reads r1, defined only after the push:
     the body may throw before reaching that definition. *)
  expect_reject "try-body def not definite in handler"
    (mk_prog
       [ mk_func ~nregs:4
           [ Bc.Const (0, Value.Int 1L);
             Bc.TryPush (5, 2);
             Bc.Const (1, Value.Int 2L);
             Bc.TryPop;
             Bc.Ret 1;
             Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 1; 1 |], 3);
             Bc.Ret 3 ] ])
    "used before definition"

let test_verifier_handles_exception_edges () =
  (* The handler reads the caught exception register, defined only along
     the exceptional edge by TryPush. *)
  let f =
    mk_func ~nregs:4
      [ Bc.TryPush (4, 2);
        Bc.Const (0, Value.Int 1L);
        Bc.TryPop;
        Bc.Ret 0;
        Bc.Prim (Bc.P_exc_name, [| 2 |], 3);  (* handler: uses r2 *)
        Bc.Ret 3 ]
  in
  let r = Verify.verify (mk_prog [ f ]) in
  Alcotest.(check (list string)) "exception edge accepted" [] r.Verify.errors

let test_verifier_accepts_all_bundled_programs () =
  (* Every program our own frontends produce must verify cleanly. *)
  List.iter
    (fun (name, modules) ->
      let linked = Hilti_passes.Linker.link modules in
      let program = Hilti_vm.Lower.lower_module linked in
      let r = Verify.verify program in
      Alcotest.(check (list string)) (name ^ " verifies") [] r.Verify.errors)
    [ ("binpac:http", [ Binpacxx.Codegen.compile (Binpacxx.Grammars.parse_http ()) ]);
      ("bro:scan",
       [ fst (Mini_bro.Bro_compile.compile (Mini_bro.Bro_parse.parse Mini_bro.Bro_scripts.scan)) ]) ]

(* ---- Verified dispatch -------------------------------------------------- *)

let test_verified_dispatch_equivalence () =
  let mk () = fst (diamond_module ()) in
  List.iter
    (fun x ->
      let spec = compile_and_call (mk ()) "D::f" [ Value.Int x ] in
      let generic = compile_and_call ~specialize:false (mk ()) "D::f" [ Value.Int x ] in
      Alcotest.(check int64)
        (Printf.sprintf "f(%Ld) same on generic and specialized opcodes" x)
        (Value.as_int generic) (Value.as_int spec))
    [ 0L; 9L; 10L; -4L ];
  let api = Hilti_vm.Host_api.compile ~specialize:false [ mk () ] in
  Alcotest.(check bool) "program marked verified" true
    api.Hilti_vm.Host_api.ctx.Hilti_vm.Vm.program.Bc.verified

let test_vm_create_requires_verification () =
  let refused what p =
    Alcotest.check_raises what
      (Invalid_argument "Vm.create: program is not verified")
      (fun () -> ignore (Hilti_vm.Vm.create p))
  in
  (* Lowered but never verified. *)
  let p =
    Hilti_vm.Lower.lower_module (Hilti_passes.Linker.link [ fst (diamond_module ()) ])
  in
  refused "lowered, unverified program" p;
  ignore (Verify.verify_exn p);
  Alcotest.(check int64) "runs once verified" 10L
    (Value.as_int (Hilti_vm.Vm.call (Hilti_vm.Vm.create p) "D::f" [ Value.Int 9L ]));
  (* Bytecode the verifier rejects can never reach the dispatch loop. *)
  refused "jump past the end" (mk_prog [ mk_func [ Bc.Jump 99 ] ])

(* ---- Differential property: optimizer + DSE preserve semantics ---------- *)

(* Random functions with a diamond, a bounded counting loop, dead stores
   and possibly-raising divisions; run with the full pipeline (including
   dead-store elimination) against the unoptimized build: results and
   exceptions must agree exactly. *)
let prop_differential_branch_loop =
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
            (G.oneofl [ "add"; "sub"; "mul"; "and"; "or"; "xor"; "min"; "max"; "div"; "mod" ])
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
  let mk (body, deadexpr, bound, thenc, elsec) =
    let m = Module_ir.create "R" in
    let b = Builder.func m "R::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
    let acc = Builder.local b "acc" (Htype.Int 64) in
    let i = Builder.local b "i" (Htype.Int 64) in
    let dead = Builder.local b "deadv" (Htype.Int 64) in
    Builder.assign b ~target:acc (Builder.const_int 0);
    Builder.assign b ~target:i (Builder.const_int bound);
    Builder.jump b "head";
    Builder.set_block b "head";
    let c = Builder.emit b Htype.Bool "int.gt" [ Instr.Local i; Builder.const_int 0 ] in
    Builder.if_else b c ~then_:"body" ~else_:"exit";
    Builder.set_block b "body";
    (* dead store: never read anywhere (DSE fodder; must keep raises) *)
    Builder.instr b ~target:dead (fst deadexpr) (snd deadexpr b);
    let v = build b body in
    let acc' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; v ] in
    Builder.assign b ~target:acc acc';
    (* a diamond keyed off the running sum *)
    let par = Builder.emit b (Htype.Int 64) "int.and" [ Instr.Local acc; Builder.const_int 1 ] in
    let even = Builder.emit b Htype.Bool "int.eq" [ par; Builder.const_int 0 ] in
    Builder.if_else b even ~then_:"even" ~else_:"odd";
    Builder.set_block b "even";
    let e = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; Builder.const_int thenc ] in
    Builder.assign b ~target:acc e;
    Builder.jump b "latch";
    Builder.set_block b "odd";
    let o = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local acc; Builder.const_int elsec ] in
    Builder.assign b ~target:acc o;
    Builder.jump b "latch";
    Builder.set_block b "latch";
    let i' = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local i; Builder.const_int 1 ] in
    Builder.assign b ~target:i i';
    Builder.jump b "head";
    Builder.set_block b "exit";
    Builder.return_result b (Instr.Local acc);
    m
  in
  let dead_gen =
    (* Either a harmless add or a division whose divisor may be zero: DSE
       must delete the former and preserve the latter's exception. *)
    G.oneofl
      [ ("int.add", fun _b -> [ Instr.Local "x"; Builder.const_int 3 ]);
        ("int.div", fun _b -> [ Builder.const_int 7; Instr.Local "x" ]);
        ("int.div", fun _b -> [ Instr.Local "x"; Builder.const_int 2 ]) ]
  in
  let case_gen =
    G.map3
      (fun body dead (bound, thenc, elsec) -> (body, dead, bound, thenc, elsec))
      (expr_gen 3) dead_gen
      (G.triple (G.int_range 0 6) (G.int_range (-5) 5) (G.int_range (-5) 5))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pipeline+DSE preserve loops, branches, exceptions"
       ~count:80
       (QCheck.make (G.pair case_gen (G.int_range (-20) 20)))
       (fun (case, x) ->
         let run optimize =
           match
             compile_and_call ~optimize (mk case) "R::f"
               [ Value.Int (Int64.of_int x) ]
           with
           | v -> Ok (Value.as_int v)
           | exception Value.Hilti_error e -> Error e.Value.ename
         in
         run true = run false))

let suite =
  [ Alcotest.test_case "liveness: diamond" `Quick test_liveness_diamond;
    Alcotest.test_case "definite init: diamond" `Quick test_definite_init_diamond;
    Alcotest.test_case "reaching definitions" `Quick test_reaching_definitions;
    Alcotest.test_case "lint: warnings" `Quick test_lint_warnings;
    Alcotest.test_case "lint: validate errors" `Quick test_lint_validate_error;
    Alcotest.test_case "lint: clean module" `Quick test_lint_clean_module;
    Alcotest.test_case "validate: switch case shape" `Quick test_validate_switch_case_shape;
    Alcotest.test_case "validate: nested tuple refs" `Quick test_validate_nested_tuple_refs;
    Alcotest.test_case "dead-store elimination" `Quick test_deadstore_eliminates;
    Alcotest.test_case "purity split: raising stores" `Quick test_purity_split_raising_stores;
    Alcotest.test_case "verifier rejects bad jumps" `Quick test_verifier_rejects_bad_jump;
    Alcotest.test_case "verifier rejects use-before-init" `Quick test_verifier_rejects_use_before_init;
    Alcotest.test_case "verifier rejects wrong tags" `Quick test_verifier_rejects_wrong_tag;
    Alcotest.test_case "verifier rejects bad frame refs" `Quick test_verifier_rejects_bad_frame_refs;
    Alcotest.test_case "verifier accepts a good function" `Quick test_verifier_accepts_good_function;
    Alcotest.test_case "verifier rejects bad link-time refs" `Quick test_verifier_rejects_bad_link_refs;
    Alcotest.test_case "lower rejects untyped struct ops" `Quick test_lower_rejects_untyped_struct_op;
    Alcotest.test_case "vm: struct of another type" `Quick test_vm_struct_type_check;
    Alcotest.test_case "host field reads are not safety checks" `Quick test_host_field_read_uncounted;
    Alcotest.test_case "verifier: exception edges" `Quick test_verifier_handles_exception_edges;
    Alcotest.test_case "verifier: irreducible CFG" `Quick test_verifier_irreducible_cfg;
    Alcotest.test_case "verifier: exception-edge join" `Quick test_verifier_exception_edge_join;
    Alcotest.test_case "verifier accepts frontend output" `Quick test_verifier_accepts_all_bundled_programs;
    Alcotest.test_case "verified dispatch equivalence" `Quick test_verified_dispatch_equivalence;
    Alcotest.test_case "vm requires verified bytecode" `Quick
      test_vm_create_requires_verification;
    prop_differential_branch_loop ]
