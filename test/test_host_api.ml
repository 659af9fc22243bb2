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
  let run = Host_api.call_fiber api (Host_api.func api "T::consume") [ Value.Bytes data ] in
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
  let producer = Host_api.call_fiber api (Host_api.func api "T::produce") [ ch; Value.Int 10L ] in
  let consumer = Host_api.call_fiber api (Host_api.func api "T::consume") [ ch; Value.Int 10L ] in
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

(* An image of another program shape must be refused by its magic before
   [Marshal] reads it: the reader would index past the record's end. *)
let test_old_image_rejected () =
  let program = (Host_api.compile [ times_six_module () ]).Host_api.ctx.Vm.program in
  let path = Filename.temp_file "hilti-image" ".hbc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "HILTI-IMAGE-1";
          Marshal.to_channel oc program []);
      match Image.load path with
      | _ -> Alcotest.fail "an HILTI-IMAGE-1 file was loaded"
      | exception Image.Not_an_image p -> Alcotest.(check string) "names the file" path p)

(* ---- Virtual threads: same results threaded and unthreaded (§6.6) ------------ *)

(* Each workload runs once on 1 virtual thread and once hashed over 4.
   Virtual threads share no state, and the hash keeps all of one flow's
   state on one thread, so the results must agree once the thread id is
   dropped. *)

let fw_rules =
  Hilti_firewall.Fw_rules.parse_rules
    {|
10.3.2.1/32 10.1.0.0/16 allow
10.12.0.0/16 10.1.0.0/16 deny
10.1.6.0/24 * allow
10.1.7.0/24 * allow
|}

(* A reproducible packet mix: rule hits, dynamic reverse traffic, misses;
   timestamps strictly increasing so per-thread time stays monotonic. *)
let fw_packets =
  let t0 = Hilti_types.Time_ns.of_secs 1_400_000_000 in
  let rng = Random.State.make [| 4711 |] in
  let pool =
    [|
      "10.3.2.1"; "10.1.44.1"; "10.12.9.9"; "10.1.6.20"; "10.1.6.21";
      "10.1.7.7"; "99.99.99.99"; "88.88.88.88"; "10.1.50.2"; "172.16.0.9";
    |]
  in
  List.init 300 (fun i ->
      let pick () = Hilti_types.Addr.of_string pool.(Random.State.int rng (Array.length pool)) in
      let ts = Hilti_types.Time_ns.add t0 (Int64.of_int (i * 2_000_000_000)) in
      let src = pick () in
      (ts, src, pick ()))

(* Flow affinity: both directions of a pair land on the same virtual
   thread (the paper's hash-scheduling scheme), so dynamic reverse rules
   stay visible to the thread that installed them. *)
let fw_thread ~threads src dst =
  let a = Hilti_types.Addr.to_string src and b = Hilti_types.Addr.to_string dst in
  let key = if a <= b then (a, b) else (b, a) in
  Hilti_rt.Scheduler.thread_for_hash ~threads (Hashtbl.hash key)

(* The sorted (src, dst, verdict) triples of the firewall over [threads]
   virtual threads. *)
let run_firewall ~threads =
  let m = Hilti_firewall.Fw_hilti.compile_module fw_rules in
  let api = Host_api.compile [ m ] in
  for tid = 0 to threads - 1 do
    Host_api.schedule api (Int64.of_int tid) "Firewall::init_classifier" []
  done;
  Host_api.run_scheduler api;
  let verdicts = ref [] in
  List.iter
    (fun (ts, src, dst) ->
      let tid = fw_thread ~threads src dst in
      Host_api.schedule_host api tid ~label:"match" (fun ctx ->
          assert (ctx.Vm.current_thread = tid);
          let v =
            Vm.call ctx "Firewall::match_packet"
              [ Value.Time ts; Value.Addr src; Value.Addr dst ]
          in
          verdicts :=
            (Hilti_types.Addr.to_string src, Hilti_types.Addr.to_string dst, Value.as_bool v)
            :: !verdicts))
    fw_packets;
  Host_api.run_scheduler api;
  List.sort compare !verdicts

let test_firewall_threads () =
  let one = run_firewall ~threads:1 in
  Alcotest.(check int) "all packets got a verdict" (List.length fw_packets) (List.length one);
  Alcotest.(check bool) "some packets allowed, some denied" true
    (List.exists (fun (_, _, v) -> v) one && List.exists (fun (_, _, v) -> not v) one);
  Alcotest.(check bool) "4-thread verdicts match 1 thread" true (run_firewall ~threads:4 = one)

(* Parse one datagram and report the DNS id back to the host (same shape
   as the §6.6 bench harness). *)
let dns_wrapper_module () =
  let m = Module_ir.create "Par" in
  Module_ir.add_func m
    {
      Module_ir.fname = "Par::record";
      params = [ ("id", Htype.Int 64) ];
      result = Htype.Void;
      locals = [];
      blocks = [];
      cc = Module_ir.Cc_c;
      hook_priority = 0;
      exported = true;
    };
  let b =
    Builder.func m "Par::parse_one" ~exported:true
      ~params:[ ("pkt", Htype.Ref Htype.Bytes) ]
      ~result:Htype.Void
  in
  let exc = Builder.local b "e" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "bad"; Instr.Local exc ];
  let it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Instr.Local "pkt" ] in
  let itl = Builder.local b "it" (Htype.Iter Htype.Bytes) in
  Builder.instr b ~target:itl "assign" [ it ];
  let t =
    Builder.emit b
      (Htype.Tuple [ Htype.Any; Htype.Iter Htype.Bytes ])
      "call"
      [ Instr.Fname "DNS::parse_Message";
        Instr.Tuple_op [ Instr.Local itl; Instr.Local itl ] ]
  in
  let st =
    Builder.emit b (Htype.Ref (Htype.Struct "DNS::Message")) "tuple.get"
      [ t; Builder.const_int 0 ]
  in
  let id = Builder.emit b (Htype.Int 64) "struct.get" [ st; Instr.Member "id" ] in
  Builder.call b "Par::record" [ id ];
  Builder.return_ b;
  Builder.set_block b "bad";
  Builder.return_ b;
  m

let dns_datagrams =
  lazy
    (let cfg =
       { Hilti_traces.Dns_gen.default with transactions = 150; seed = 31337 }
     in
     let trace = Hilti_traces.Dns_gen.generate cfg in
     List.filter_map
       (fun (r : Hilti_net.Pcap.record) ->
         match
           Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts
             r.Hilti_net.Pcap.data
         with
         | Some pkt -> (
             match
               (Hilti_net.Packet.flow pkt, pkt.Hilti_net.Packet.transport)
             with
             | Some flow, Hilti_net.Packet.UDP (_, payload) ->
                 Some (Hilti_net.Flow.hash flow, payload)
             | _ -> None)
         | None -> None)
       trace.Hilti_traces.Dns_gen.records)

(* The sorted DNS transaction ids BinPAC++ DNS parses on the VM with the
   trace hashed over [threads] virtual threads. *)
let run_dns ~threads =
  let dns_m = Binpacxx.Codegen.compile (Binpacxx.Grammars.parse_dns ()) in
  let api = Host_api.compile [ dns_m; dns_wrapper_module () ] in
  let recorded = ref [] in
  Host_api.register api "Par::record" (fun args ->
      (match args with [ Value.Int id ] -> recorded := id :: !recorded | _ -> ());
      Value.Null);
  for tid = 0 to threads - 1 do
    Host_api.schedule api (Int64.of_int tid) "DNS::init" []
  done;
  List.iter
    (fun (hash, payload) ->
      let tid = Hilti_rt.Scheduler.thread_for_hash ~threads hash in
      let b = Hilti_types.Hbytes.of_string payload in
      Hilti_types.Hbytes.freeze b;
      Host_api.schedule api tid "Par::parse_one" [ Value.Bytes b ])
    (Lazy.force dns_datagrams);
  Host_api.run_scheduler api;
  List.sort compare !recorded

let test_dns_threads () =
  let one = run_dns ~threads:1 in
  Alcotest.(check bool) "1-thread run parsed messages" true (one <> []);
  Alcotest.(check (list int64)) "4-thread DNS ids match 1 thread" one (run_dns ~threads:4)

let suite =
  [ Alcotest.test_case "HILTI calls host function" `Quick test_hilti_calls_host;
    Alcotest.test_case "unregistered host function" `Quick test_unregistered_host_function;
    Alcotest.test_case "fiber-driven streaming" `Quick test_fiber_driven_stream;
    Alcotest.test_case "blocking outside fiber" `Quick test_blocking_outside_fiber;
    Alcotest.test_case "channels across fibers" `Quick test_channel_across_fibers;
    Alcotest.test_case "file output via VM" `Quick test_file_via_vm;
    Alcotest.test_case "iosrc via VM" `Quick test_iosrc_via_vm;
    Alcotest.test_case "program image marshals" `Quick test_program_marshals;
    Alcotest.test_case "tampered image rejected" `Quick test_tampered_image_rejected;
    Alcotest.test_case "virtual threads: firewall verdicts" `Quick test_firewall_threads;
    Alcotest.test_case "virtual threads: DNS ids on the VM" `Quick test_dns_threads;
    Alcotest.test_case "old image format rejected" `Quick test_old_image_rejected ]
