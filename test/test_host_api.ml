(* The host-application API (§3.4): C-stub calls, host-function
   registration, fiber-driven parse runs, channels blocking across
   fibers, file output serialization, and packet input sources. *)

open Hilti_vm

(* ---- Host functions in both directions ----------------------------------------- *)

let test_hilti_calls_host () =
  let m = Module_ir.create "T" in
  Module_ir.add_func m
    { Module_ir.fname = "Host::triple"; params = [ ("x", Htype.Int 64) ];
      result = Htype.Int 64; locals = []; blocks = []; cc = Module_ir.Cc_c;
      hook_priority = 0; exported = true };
  let b = Builder.func m "T::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let v = Builder.emit b (Htype.Int 64) "call"
      [ Instr.Fname "Host::triple"; Instr.Tuple_op [ Instr.Local "x" ] ] in
  Builder.return_result b v;
  let api = Host_api.compile [ m ] in
  Host_api.register api "Host::triple" (fun args ->
      match args with
      | [ Value.Int x ] -> Value.Int (Int64.mul 3L x)
      | _ -> Value.Null);
  Alcotest.(check int64) "round trip through host" 21L
    (Value.as_int (Host_api.call api "T::f" [ Value.Int 7L ]))

let test_unregistered_host_function () =
  let m = Module_ir.create "T" in
  Module_ir.add_func m
    { Module_ir.fname = "Host::missing"; params = []; result = Htype.Void;
      locals = []; blocks = []; cc = Module_ir.Cc_c; hook_priority = 0;
      exported = true };
  let b = Builder.func m "T::f" ~params:[] ~result:Htype.Void in
  Builder.call b "Host::missing" [];
  Builder.return_ b;
  let api = Host_api.compile [ m ] in
  match Host_api.call api "T::f" [] with
  | exception Vm.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unresolved host function did not error"

(* ---- Fibers through the API ------------------------------------------------------ *)

let incremental_consumer_module () =
  (* Sums bytes of a stream as they arrive; a pure consumer loop. *)
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::consume" ~params:[ ("data", Htype.Ref Htype.Bytes) ]
      ~result:(Htype.Int 64) in
  let it = Builder.local b "it" (Htype.Iter Htype.Bytes) in
  let i0 = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Instr.Local "data" ] in
  Builder.instr b ~target:it "assign" [ i0 ];
  let acc = Builder.local b "acc" (Htype.Int 64) in
  Builder.set_block b "loop";
  let at_end = Builder.emit b Htype.Bool "iter.at_end" [ Instr.Local it ] in
  Builder.if_else b at_end ~then_:"maybe_done" ~else_:"consume";
  Builder.set_block b "maybe_done";
  let eod = Builder.emit b Htype.Bool "iter.is_eod" [ Instr.Local it ] in
  Builder.if_else b eod ~then_:"done" ~else_:"wait";
  Builder.set_block b "wait";
  Builder.instr b "yield" [];
  Builder.jump b "loop";
  Builder.set_block b "consume";
  let byte = Builder.emit b (Htype.Int 64) "iter.deref" [ Instr.Local it ] in
  let acc' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; byte ] in
  Builder.instr b ~target:acc "assign" [ acc' ];
  let it' = Builder.emit b (Htype.Iter Htype.Bytes) "iter.incr" [ Instr.Local it ] in
  Builder.instr b ~target:it "assign" [ it' ];
  Builder.jump b "loop";
  Builder.set_block b "done";
  Builder.return_result b (Instr.Local acc);
  m

let test_fiber_driven_stream () =
  let api = Host_api.compile [ incremental_consumer_module () ] in
  let data = Hilti_types.Hbytes.create () in
  let run = Host_api.call_fiber api "T::consume" [ Value.Bytes data ] in
  Alcotest.(check bool) "waiting" false (Host_api.finished run);
  Hilti_types.Hbytes.append data "\x01\x02";
  ignore (Host_api.resume run);
  Alcotest.(check bool) "still waiting" false (Host_api.finished run);
  Hilti_types.Hbytes.append data "\x03";
  Hilti_types.Hbytes.freeze data;
  ignore (Host_api.resume run);
  Alcotest.(check bool) "finished" true (Host_api.finished run);
  Alcotest.(check int64) "summed across chunks" 6L (Value.as_int (Host_api.result_exn run))

let test_blocking_outside_fiber () =
  (* Blocking ops outside a fiber surface as Hilti::WouldBlock. *)
  let api = Host_api.compile [ incremental_consumer_module () ] in
  let data = Hilti_types.Hbytes.create () in
  Hilti_types.Hbytes.append data "x";
  match Host_api.call api "T::consume" [ Value.Bytes data ] with
  | exception Value.Hilti_error e ->
      Alcotest.(check string) "WouldBlock" "Hilti::WouldBlock" e.Value.ename
  | _ -> Alcotest.fail "synchronous call on live stream should not finish"

(* ---- Channels across fibers -------------------------------------------------------- *)

let test_channel_across_fibers () =
  (* A producer fiber and a consumer fiber communicating through a
     bounded HILTI channel, multiplexed by the host. *)
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::produce"
      ~params:[ ("ch", Htype.Ref (Htype.Channel (Htype.Int 64))); ("n", Htype.Int 64) ]
      ~result:Htype.Void in
  let i = Builder.local b "i" (Htype.Int 64) in
  Builder.set_block b "loop";
  let c = Builder.emit b Htype.Bool "int.geq" [ Instr.Local i; Instr.Local "n" ] in
  Builder.if_else b c ~then_:"out" ~else_:"body";
  Builder.set_block b "body";
  Builder.instr b "channel.write" [ Instr.Local "ch"; Instr.Local i ];
  let i' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local i; Builder.const_int 1 ] in
  Builder.instr b ~target:i "assign" [ i' ];
  Builder.jump b "loop";
  Builder.set_block b "out";
  Builder.return_ b;
  let b = Builder.func m "T::consume"
      ~params:[ ("ch", Htype.Ref (Htype.Channel (Htype.Int 64))); ("n", Htype.Int 64) ]
      ~result:(Htype.Int 64) in
  let acc = Builder.local b "acc" (Htype.Int 64) in
  let i = Builder.local b "i" (Htype.Int 64) in
  Builder.set_block b "loop";
  let c = Builder.emit b Htype.Bool "int.geq" [ Instr.Local i; Instr.Local "n" ] in
  Builder.if_else b c ~then_:"out" ~else_:"body";
  Builder.set_block b "body";
  let v = Builder.emit b (Htype.Int 64) "channel.read" [ Instr.Local "ch" ] in
  let acc' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; v ] in
  Builder.instr b ~target:acc "assign" [ acc' ];
  let i' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local i; Builder.const_int 1 ] in
  Builder.instr b ~target:i "assign" [ i' ];
  Builder.jump b "loop";
  Builder.set_block b "out";
  Builder.return_result b (Instr.Local acc);
  let api = Host_api.compile [ m ] in
  (* Capacity 2 forces the producer to block repeatedly. *)
  let ch = Value.Channel (Hilti_rt.Channel.create ~capacity:2 ()) in
  let producer = Host_api.call_fiber api "T::produce" [ ch; Value.Int 10L ] in
  let consumer = Host_api.call_fiber api "T::consume" [ ch; Value.Int 10L ] in
  let rounds = ref 0 in
  while (not (Host_api.finished consumer)) && !rounds < 100 do
    incr rounds;
    ignore (Host_api.resume producer);
    ignore (Host_api.resume consumer)
  done;
  Alcotest.(check bool) "consumer finished" true (Host_api.finished consumer);
  Alcotest.(check int64) "sum 0..9" 45L (Value.as_int (Host_api.result_exn consumer));
  Alcotest.(check bool) "producer had to block" true (!rounds > 1)

(* ---- Files and packet sources --------------------------------------------------------- *)

let test_file_via_vm () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[] ~result:Htype.Void in
  let f = Builder.emit b (Htype.Ref Htype.File) "file.open"
      [ Builder.const_string "test.log"; Builder.const_string "memory" ] in
  let fl = Builder.local b "f" (Htype.Ref Htype.File) in
  Builder.instr b ~target:fl "assign" [ f ];
  Builder.instr b "file.write" [ Instr.Local fl; Builder.const_string "line1\n" ];
  Builder.instr b "file.write" [ Instr.Local fl; Builder.const_string "line2\n" ];
  Builder.return_ b;
  let api = Host_api.compile [ m ] in
  ignore (Host_api.call api "T::f" []);
  (* Writes are serialized through the scheduler's command queue (§5). *)
  Host_api.run_scheduler api

let test_iosrc_via_vm () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::count" ~params:[ ("src", Htype.Ref Htype.Iosrc) ]
      ~result:(Htype.Int 64) in
  let n = Builder.local b "n" (Htype.Int 64) in
  let e = Builder.local b "e" Htype.Exception in
  Builder.set_block b "loop";
  Builder.instr b "try.push" [ Instr.Label "eof"; Instr.Local e ];
  Builder.instr b ~target:"__pkt" "iosrc.read" [ Instr.Local "src" ];
  ignore (Builder.local b "__pkt" (Htype.Tuple [ Htype.Time; Htype.Ref Htype.Bytes ]));
  Builder.instr b "try.pop" [];
  let n' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local n; Builder.const_int 1 ] in
  Builder.instr b ~target:n "assign" [ n' ];
  Builder.jump b "loop";
  Builder.set_block b "eof";
  Builder.return_result b (Instr.Local n);
  let api = Host_api.compile [ m ] in
  let src =
    Hilti_rt.Iosrc.of_list
      (List.map
         (fun i -> { Hilti_rt.Iosrc.ts = Hilti_types.Time_ns.of_secs i; data = "pkt" })
         [ 1; 2; 3; 4 ])
  in
  Alcotest.(check int64) "all packets read" 4L
    (Value.as_int (Host_api.call api "T::count" [ Value.Iosrc src ]))

(* ---- Program image (hilti-build) round trip ---------------------------------------------- *)

let times_six_module () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let v = Builder.emit b (Htype.Int 64) "int.mul" [ Instr.Local "x"; Builder.const_int 6 ] in
  Builder.return_result b v;
  m

let test_program_marshals () =
  let api = Host_api.compile [ times_six_module () ] in
  let blob = Marshal.to_string api.Host_api.ctx.Vm.program [] in
  let program : Bytecode.program = Marshal.from_string blob 0 in
  let ctx = Vm.create program in
  Alcotest.(check int64) "image executes" 42L
    (Value.as_int (Vm.call ctx "T::f" [ Value.Int 7L ]))

(* An image is input from outside the process.  A hand-edited jump past
   the end of the code must be refused — by the loader and by
   [hilti-build -x], which exits 1 with the verifier's errors — instead
   of reaching the dispatch loop, whose code fetch is unchecked. *)
let test_tampered_image_rejected () =
  let program = (Host_api.compile [ times_six_module () ]).Host_api.ctx.Vm.program in
  let path = Filename.temp_file "hilti-image" ".hbc" in
  let errors = Filename.temp_file "hilti-image" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path; Sys.remove errors)
    (fun () ->
      Image.write path program;
      Alcotest.(check int64) "clean image loads and runs" 42L
        (Value.as_int (Vm.call (Vm.create (Image.load path)) "T::f" [ Value.Int 7L ]));
      let f = program.Bytecode.funcs.(0) in
      f.Bytecode.code.(0) <- Bytecode.Jump (Array.length f.Bytecode.code + 10);
      Image.write path program;
      (match Image.load path with
      | _ -> Alcotest.fail "tampered image was loaded"
      | exception Verify.Verify_error errs ->
          Alcotest.(check bool) "verifier names the bad jump" true
            (List.exists (fun e -> Astring_contains.contains e "out of range") errs));
      let exe =
        List.fold_left Filename.concat
          (Filename.dirname Sys.executable_name)
          [ Filename.parent_dir_name; "bin"; "hilti_build.exe" ]
      in
      let status =
        Sys.command (Filename.quote_command exe ~stderr:errors [ "-x"; path; "-e"; "T::f" ])
      in
      Alcotest.(check int) "hilti-build -x exits 1" 1 status;
      let msg = In_channel.with_open_bin errors In_channel.input_all in
      Alcotest.(check bool) "hilti-build -x reports the verifier error" true
        (Astring_contains.contains msg "out of range"))

let suite =
  [ Alcotest.test_case "HILTI calls host function" `Quick test_hilti_calls_host;
    Alcotest.test_case "unregistered host function" `Quick test_unregistered_host_function;
    Alcotest.test_case "fiber-driven streaming" `Quick test_fiber_driven_stream;
    Alcotest.test_case "blocking outside fiber" `Quick test_blocking_outside_fiber;
    Alcotest.test_case "channels across fibers" `Quick test_channel_across_fibers;
    Alcotest.test_case "file output via VM" `Quick test_file_via_vm;
    Alcotest.test_case "iosrc via VM" `Quick test_iosrc_via_vm;
    Alcotest.test_case "program image marshals" `Quick test_program_marshals;
    Alcotest.test_case "tampered image rejected" `Quick test_tampered_image_rejected ]
