(* The optimization pipeline and linker (§5 "Linker", §6.6): each pass
   does its job, and — the property that matters — optimization never
   changes observable behaviour. *)

let compile_and_call ?(optimize = true) m name args =
  let api = Hilti_vm.Host_api.compile ~optimize [ m ] in
  Hilti_vm.Host_api.call api name args

(* A function with plenty to optimize: constant arithmetic, a constant
   branch, dead pure code, and a repeated subexpression. *)
let optimizable_module () =
  let m = Module_ir.create "Opt" in
  let b = Builder.func m "Opt::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  (* constant-foldable chain *)
  let c1 = Builder.emit b (Htype.Int 64) "int.add" [ Builder.const_int 2; Builder.const_int 3 ] in
  let c2 = Builder.emit b (Htype.Int 64) "int.mul" [ c1; Builder.const_int 4 ] in
  (* dead pure instruction *)
  let _dead = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local "x"; Builder.const_int 999 ] in
  (* repeated subexpression *)
  let s1 = Builder.emit b (Htype.Int 64) "int.mul" [ Instr.Local "x"; Instr.Local "x" ] in
  let s2 = Builder.emit b (Htype.Int 64) "int.mul" [ Instr.Local "x"; Instr.Local "x" ] in
  let sum = Builder.emit b (Htype.Int 64) "int.add" [ s1; s2 ] in
  let total = Builder.emit b (Htype.Int 64) "int.add" [ sum; c2 ] in
  (* constant branch: the else side is unreachable *)
  let cond = Builder.emit b Htype.Bool "int.lt" [ Builder.const_int 1; Builder.const_int 2 ] in
  Builder.if_else b cond ~then_:"live" ~else_:"dead_block";
  Builder.set_block b "live";
  Builder.return_result b total;
  Builder.set_block b "dead_block";
  Builder.return_result b (Builder.const_int (-1));
  m

let expected x = (2 * x * x) + 20

let test_passes_fire () =
  let m = optimizable_module () in
  let stats = Hilti_passes.Pipeline.optimize m in
  Alcotest.(check bool) "constfold fired" true (stats.Hilti_passes.Pipeline.constfold > 0);
  Alcotest.(check bool) "cse fired" true (stats.Hilti_passes.Pipeline.cse > 0);
  Alcotest.(check bool) "dce fired" true (stats.Hilti_passes.Pipeline.dce > 0);
  (* The unreachable block is gone. *)
  let f = Option.get (Module_ir.find_func m "Opt::f") in
  Alcotest.(check bool) "dead block removed" true
    (Module_ir.find_block f "dead_block" = None)

let test_optimization_preserves_semantics () =
  List.iter
    (fun x ->
      let v_opt =
        compile_and_call ~optimize:true (optimizable_module ()) "Opt::f"
          [ Hilti_vm.Value.Int (Int64.of_int x) ]
      in
      let v_raw =
        compile_and_call ~optimize:false (optimizable_module ()) "Opt::f"
          [ Hilti_vm.Value.Int (Int64.of_int x) ]
      in
      Alcotest.(check int64) (Printf.sprintf "f(%d) both ways" x)
        (Int64.of_int (expected x)) (Hilti_vm.Value.as_int v_opt);
      Alcotest.(check int64) "agree" (Hilti_vm.Value.as_int v_raw)
        (Hilti_vm.Value.as_int v_opt))
    [ 0; 1; 7; -3 ]

let test_constfold_div_by_zero_preserved () =
  (* Folding must not evaluate 1/0 at compile time into nonsense: the
     division stays and throws at runtime. *)
  let m = Module_ir.create "Div" in
  let b = Builder.func m "Div::f" ~params:[] ~result:(Htype.Int 64) in
  let v = Builder.emit b (Htype.Int 64) "int.div" [ Builder.const_int 1; Builder.const_int 0 ] in
  Builder.return_result b v;
  ignore (Hilti_passes.Pipeline.optimize m);
  let api = Hilti_vm.Host_api.compile ~optimize:false [ m ] in
  match Hilti_vm.Host_api.call api "Div::f" [] with
  | exception Hilti_vm.Value.Hilti_error e ->
      Alcotest.(check string) "division error survives" "Hilti::DivisionByZero"
        e.Hilti_vm.Value.ename
  | v -> Alcotest.failf "folded to %s" (Hilti_vm.Value.to_string v)

(* Property: random arithmetic expressions evaluate identically with and
   without the optimization pipeline, and as a reference model says.  Every
   leaf is a local of a drawn width (8/16/32/64) and every node's result
   lands in a temporary of a drawn width, so constant propagation carries
   narrow constants into instructions that compute at the width of their
   first operand's declared type.  An [assign] wraps at its local's
   width; an instruction's result is stored as computed. *)
let prop_optimize_random_arith =
  let module G = QCheck.Gen in
  let width = G.oneofl [ 8; 16; 32; 64 ] in
  let rec expr_gen depth =
    let leaf =
      G.oneof
        [ G.map (fun w -> `X w) width;
          G.map2 (fun i w -> `C (i, w)) (G.int_range (-200) 200) width ]
    in
    if depth = 0 then leaf
    else
      G.oneof
        [ leaf;
          G.map3 (fun op w e -> `Un (op, w, e)) (G.oneofl [ "neg"; "abs" ]) width
            (expr_gen (depth - 1));
          G.map3
            (fun (op, w) l r -> `Bin (op, w, l, r))
            (G.pair
               (G.oneofl
                  [ "add"; "sub"; "mul"; "div"; "mod"; "shl"; "shr"; "and"; "or"; "xor";
                    "min"; "max" ])
               width)
            (expr_gen (depth - 1)) (expr_gen (depth - 1)) ]
  in
  let wrap w v =
    if w = 64 then v else Int64.shift_right (Int64.shift_left v (64 - w)) (64 - w)
  in
  (* (value, declared width of the register holding it); [None] once a
     division by zero is reached. *)
  let rec eval x = function
    | `X w -> Some (wrap w x, w)
    | `C (i, w) -> Some (wrap w (Int64.of_int i), w)
    | `Un (op, w, e) ->
        Option.map
          (fun (a, wa) -> (wrap wa (if op = "neg" then Int64.neg a else Int64.abs a), w))
          (eval x e)
    | `Bin (op, w, l, r) -> (
        match (eval x l, eval x r) with
        | Some (a, wa), Some (b, _) ->
            let shift = Int64.to_int b land 63 in
            let v =
              match op with
              | ("div" | "mod") when b = 0L -> None
              | "add" -> Some (Int64.add a b)
              | "sub" -> Some (Int64.sub a b)
              | "mul" -> Some (Int64.mul a b)
              | "div" -> Some (Int64.div a b)
              | "mod" -> Some (Int64.rem a b)
              | "shl" -> Some (Int64.shift_left a shift)
              | "shr" -> Some (Int64.shift_right_logical a shift)
              | "and" -> Some (Int64.logand a b)
              | "or" -> Some (Int64.logor a b)
              | "xor" -> Some (Int64.logxor a b)
              | "min" -> Some (if a <= b then a else b)
              | _ -> Some (if a >= b then a else b)
            in
            Option.map (fun v -> (wrap wa v, w)) v
        | _ -> None)
  in
  let rec build b = function
    | `X w ->
        let l = Builder.tmp b (Htype.Int w) in
        Builder.assign b ~target:l (Instr.Local "x");
        Instr.Local l
    | `C (i, w) ->
        let l = Builder.tmp b (Htype.Int w) in
        Builder.assign b ~target:l (Builder.const_int i);
        Instr.Local l
    | `Un (op, w, e) ->
        let v = build b e in
        Builder.emit b (Htype.Int w) ("int." ^ op) [ v ]
    | `Bin (op, w, l, r) ->
        let lo = build b l in
        let ro = build b r in
        Builder.emit b (Htype.Int w) ("int." ^ op) [ lo; ro ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"optimizer preserves random arithmetic" ~count:200
       (QCheck.make (QCheck.Gen.pair (expr_gen 4) (QCheck.Gen.int_range (-300) 300)))
       (fun (e, x) ->
         let mk () =
           let m = Module_ir.create "R" in
           let b = Builder.func m "R::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
           let v = build b e in
           Builder.return_result b v;
           m
         in
         let run optimize =
           match compile_and_call ~optimize (mk ()) "R::f" [ Hilti_vm.Value.Int (Int64.of_int x) ] with
           | v -> Some (Hilti_vm.Value.as_int v)
           | exception Hilti_vm.Value.Hilti_error { Hilti_vm.Value.ename = "Hilti::DivisionByZero"; _ } ->
               None
         in
         let expected = Option.map fst (eval (Int64.of_int x) e) in
         run true = expected && run false = expected))

(* The narrow-width cases the property is built to reach, pinned: an
   [int<8>] local set to 100, -128 or 200, optimized and at -O0. *)
let test_narrow_width_folding () =
  List.iter
    (fun (what, x, op, args, expected) ->
      let mk () =
        let m = Module_ir.create "N" in
        let b = Builder.func m "N::f" ~params:[] ~result:(Htype.Int 64) in
        let l = Builder.local b "x" (Htype.Int 8) in
        Builder.assign b ~target:l (Builder.const_int x);
        let r = Builder.emit b (Htype.Int 8) ("int." ^ op) (Instr.Local l :: args l) in
        Builder.return_result b r;
        m
      in
      List.iter
        (fun optimize ->
          Alcotest.(check int64)
            (Printf.sprintf "%s (optimize %b)" what optimize)
            expected
            (Hilti_vm.Value.as_int (compile_and_call ~optimize (mk ()) "N::f" [])))
        [ true; false ])
    [ ("100 + 100", 100, "add", (fun l -> [ Instr.Local l ]), -56L);
      ("neg -128", -128, "neg", (fun _ -> []), -128L);
      ("-128 >> 1", -128, "shr", (fun _ -> [ Builder.const_int 1 ]), -64L);
      ("-128 / -1", -128, "div", (fun _ -> [ Builder.const_int (-1) ]), -128L);
      ("abs -128", -128, "abs", (fun _ -> []), -128L);
      (* The store wraps: x holds -56, not 200. *)
      ("assign 200 >> 1", 200, "shr", (fun _ -> [ Builder.const_int 1 ]), -28L) ];
  (* So does a copy of an unpacked byte, which lowering would otherwise
     fuse into the unpack: y holds -56, not 200. *)
  let mk () =
    let m = Module_ir.create "U" in
    let b = Builder.func m "U::f" ~params:[] ~result:(Htype.Int 64) in
    let y = Builder.local b "y" (Htype.Int 8) in
    let it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Builder.const_bytes "\xc8" ] in
    let t =
      Builder.emit b (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ]) "bytes.unpack_uint"
        [ it; Builder.const_int 1; Builder.const_bool false ]
    in
    let x = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
    Builder.assign b ~target:y x;
    let r = Builder.emit b (Htype.Int 8) "int.shr" [ Instr.Local y; Builder.const_int 1 ] in
    Builder.return_result b r;
    m
  in
  List.iter
    (fun optimize ->
      Alcotest.(check int64)
        (Printf.sprintf "unpacked 200 >> 1 (optimize %b)" optimize)
        (-28L)
        (Hilti_vm.Value.as_int (compile_and_call ~optimize (mk ()) "U::f" [])))
    [ true; false ]

(* ---- Linker --------------------------------------------------------------------------- *)

let test_linker_merges_hooks_and_globals () =
  let mk name prio =
    let m = Module_ir.create name in
    Module_ir.add_global m (name ^ "_g") (Htype.Int 64);
    let b =
      Builder.func m ~cc:Module_ir.Cc_hook ~hook_priority:prio "shared_hook"
        ~params:[ ("x", Htype.Int 64) ] ~result:Htype.Void
    in
    Builder.call b "Hilti::print"
      [ Builder.const_string (Printf.sprintf "%s(prio %d)" name prio) ];
    Builder.return_ b;
    m
  in
  let linked = Hilti_passes.Linker.link [ mk "A" 1; mk "B" 9 ] in
  Alcotest.(check int) "globals merged" 2 (List.length linked.Module_ir.globals);
  Alcotest.(check int) "hook bodies merged" 2 (List.length linked.Module_ir.hooks);
  (* Priorities decide execution order after lowering. *)
  let api = Hilti_vm.Host_api.compile [ linked ] in
  let out = Buffer.create 32 in
  Hilti_vm.Host_api.set_output api (fun s -> Buffer.add_string out (s ^ ";"));
  Hilti_vm.Host_api.(run_hook api (hook api "shared_hook")) [ Hilti_vm.Value.Int 0L ];
  Alcotest.(check string) "priority order across units" "B(prio 9);A(prio 1);"
    (Buffer.contents out)

let test_linker_detects_conflicts () =
  let mk () =
    let m = Module_ir.create "C" in
    let b = Builder.func m "C::same" ~params:[] ~result:Htype.Void in
    Builder.return_ b;
    m
  in
  match Hilti_passes.Linker.link [ mk (); mk () ] with
  | exception Hilti_passes.Linker.Link_error _ -> ()
  | _ -> Alcotest.fail "duplicate function not detected"

let test_linker_prunes_globals () =
  let m = Module_ir.create "P" in
  Module_ir.add_global m "used" (Htype.Int 64);
  Module_ir.add_global m "unused" (Htype.Int 64);
  let b = Builder.func m "P::f" ~params:[] ~result:(Htype.Int 64) in
  Builder.return_result b (Instr.Global "used");
  let dropped = Hilti_passes.Linker.prune_globals m in
  Alcotest.(check int) "one dropped" 1 dropped;
  Alcotest.(check (list string)) "kept the used one" [ "used" ]
    (List.map fst m.Module_ir.globals)

let suite =
  [ Alcotest.test_case "passes fire on optimizable code" `Quick test_passes_fire;
    Alcotest.test_case "optimization preserves semantics" `Quick test_optimization_preserves_semantics;
    Alcotest.test_case "constfold keeps div-by-zero" `Quick test_constfold_div_by_zero_preserved;
    prop_optimize_random_arith;
    Alcotest.test_case "narrow-width folding matches the VM" `Quick test_narrow_width_folding;
    Alcotest.test_case "linker merges hooks/globals" `Quick test_linker_merges_hooks_and_globals;
    Alcotest.test_case "linker detects conflicts" `Quick test_linker_detects_conflicts;
    Alcotest.test_case "link-time global pruning" `Quick test_linker_prunes_globals ]
