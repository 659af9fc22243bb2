(** Ablations of the design choices the paper calls out:
    - container expiration strategies (§2/§3.2);
    - the HILTI-level optimization pipeline on/off (§6.6 notes its absence
      in the prototype);
    - exception-check overhead (§5 "Runtime Model");
    - deep-copy cost of cross-thread message passing (§3.2);
    - per-message fiber setup vs direct calls — the UDP "whole PDUs at a
      time" optimization BinPAC++ lacks (§6.4). *)

open Hilti_rt

(* ---- Expiration strategies --------------------------------------------------------- *)

let expiration_bench () =
  Bench_util.header "Ablation: container expiration strategies";
  let n = 30_000 in
  Printf.printf "%-10s %12s %12s\n" "strategy" "time" "final size";
  List.iter
    (fun (name, strategy) ->
      let mgr = Timer_mgr.create () in
      ignore (Timer_mgr.advance mgr (Hilti_types.Time_ns.of_secs 1));
      let m : (string, int) Exp_map.t = Exp_map.create () in
      (match strategy with
      | Some s -> Exp_map.set_timeout m s mgr
      | None -> ());
      let (), ns =
        Bench_util.time_ns (fun () ->
            for i = 0 to n - 1 do
              Exp_map.insert m (string_of_int (i mod 5000)) i;
              ignore (Exp_map.find_opt m (string_of_int ((i * 7) mod 5000)));
              if i mod 100 = 0 then
                ignore (Timer_mgr.advance_by mgr (Hilti_types.Interval_ns.of_msecs 100))
            done)
      in
      Printf.printf "%-10s %10.1fms %12d (expired %d)\n" name (Bench_util.ms ns)
        (Exp_map.size m) (Exp_map.expired_total m))
    [ ("never", None);
      ("create", Some (Expire.Create (Hilti_types.Interval_ns.of_secs 10)));
      ("access", Some (Expire.Access (Hilti_types.Interval_ns.of_secs 10)));
      ("write", Some (Expire.Write (Hilti_types.Interval_ns.of_secs 10))) ]

(* ---- Optimization pipeline on/off ----------------------------------------------------- *)

let optimization_bench () =
  Bench_util.header "Ablation: HILTI-level optimization pipeline (§6.6)";
  let script = Mini_bro.Bro_scripts.parse_fib () in
  let m_opt, _ = Mini_bro.Bro_compile.compile script in
  let stats = Hilti_passes.Pipeline.optimize m_opt in
  Printf.printf "pipeline rewrites on fib.bro: %s\n"
    (Hilti_passes.Pipeline.stats_to_string stats);
  let run optimize =
    let engine =
      Mini_bro.Bro_engine.load ~optimize Mini_bro.Bro_engine.Compiled script
    in
    Bench_util.best_of (fun () ->
        Mini_bro.Bro_engine.call_function engine "fib" [ Mini_bro.Bro_val.Vcount 20L ])
  in
  let v1, ns_opt = run true in
  let v2, ns_raw = run false in
  assert (Mini_bro.Bro_val.equal v1 v2);
  Printf.printf "fib(20) unoptimized: %8.2f ms\n" (Bench_util.ms ns_raw);
  Printf.printf "fib(20) optimized:   %8.2f ms (%.2fx)\n" (Bench_util.ms ns_opt)
    (Bench_util.ratio ns_raw ns_opt);
  (* Code-size effect on a larger unit: the DNS grammar. *)
  let g = Binpacxx.Grammars.parse_dns () in
  let size optimize =
    let api = Hilti_vm.Host_api.compile ~optimize [ Binpacxx.Codegen.compile g ] in
    Hilti_vm.Host_api.code_size api
  in
  Printf.printf "DNS parser code size: %d instrs unoptimized, %d optimized\n"
    (size false) (size true)

(* ---- Exception-check overhead ----------------------------------------------------------- *)

let exception_bench () =
  Bench_util.header "Ablation: exception handler overhead (§5)";
  let build ~with_try =
    let m = Module_ir.create "Exc" in
    let b =
      Builder.func m "Exc::sum" ~exported:true
        ~params:[ ("n", Htype.Int 64) ] ~result:(Htype.Int 64)
    in
    let acc = Builder.local b "acc" (Htype.Int 64) in
    let i = Builder.local b "i" (Htype.Int 64) in
    let _ = Builder.local b "e" Htype.Exception in
    Builder.set_block b "loop";
    if with_try then
      Builder.instr b "try.push" [ Instr.Label "handler"; Instr.Local "e" ];
    let a' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; Instr.Local i ] in
    Builder.instr b ~target:acc "assign" [ a' ];
    if with_try then Builder.instr b "try.pop" [];
    let i' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local i; Builder.const_int 1 ] in
    Builder.instr b ~target:i "assign" [ i' ];
    let c = Builder.emit b Htype.Bool "int.lt" [ Instr.Local i; Instr.Local "n" ] in
    Builder.if_else b c ~then_:"loop" ~else_:"out";
    Builder.set_block b "out";
    Builder.return_result b (Instr.Local acc);
    Builder.set_block b "handler";
    Builder.return_result b (Builder.const_int (-1));
    Hilti_vm.Host_api.compile [ m ]
  in
  let run api =
    Bench_util.best_of (fun () ->
        Hilti_vm.Host_api.call api "Exc::sum" [ Hilti_vm.Value.Int 200_000L ])
  in
  let v1, plain = run (build ~with_try:false) in
  let v2, guarded = run (build ~with_try:true) in
  assert (Hilti_vm.Value.equal v1 v2);
  Printf.printf "200k-iteration loop: %8.2f ms plain, %8.2f ms with per-iteration try (%.2fx)\n"
    (Bench_util.ms plain) (Bench_util.ms guarded)
    (Bench_util.ratio guarded plain)

(* ---- Deep-copy message passing ------------------------------------------------------------ *)

let deep_copy_bench () =
  Bench_util.header "Ablation: deep-copy isolation for thread messages (§3.2)";
  let small = Hilti_vm.Value.Int 42L in
  let big =
    let d = Hilti_vm.Deque.create () in
    for i = 0 to 499 do
      Hilti_vm.Deque.push_back d
        (Hilti_vm.Value.Tuple
           [| Hilti_vm.Value.Int (Int64.of_int i);
              Hilti_vm.Value.String (String.make 40 'x') |])
    done;
    Hilti_vm.Value.List d
  in
  let results =
    Bench_util.bechamel_run
      [ ("copy int", fun () -> ignore (Hilti_vm.Value.deep_copy small));
        ("copy 500-elem list", fun () -> ignore (Hilti_vm.Value.deep_copy big)) ]
  in
  List.iter (fun (n, est) -> Printf.printf "  %-22s %12.1f ns\n" n est) results

(* ---- Fiber setup vs direct call (UDP whole-PDU remark, §6.4) -------------------------------- *)

let fiber_vs_direct_bench () =
  Bench_util.header "Ablation: per-message fiber setup vs direct call (§6.4 UDP remark)";
  let parser = Binpacxx.Runtime.load (Binpacxx.Grammars.parse_dns ()) in
  let msg =
    Hilti_traces.Dns_gen.encode_message
      { Hilti_traces.Dns_gen.id = 77; response = false; opcode = 0; rcode = 0;
        rd = true; ra = false; qname = "www.example.com"; qtype = 1;
        answers = []; authority = [] }
  in
  let n = 3000 in
  let args () =
    let b = Hilti_types.Hbytes.of_string msg in
    Hilti_types.Hbytes.freeze b;
    let it = Hilti_vm.Value.Iter (Hilti_vm.Value.Ibytes (Hilti_types.Hbytes.begin_ b)) in
    [ it; it ]
  in
  let api = parser.Binpacxx.Runtime.api in
  let parse = Hilti_vm.Host_api.func api "DNS::parse_Message" in
  let (), direct_ns =
    Bench_util.time_ns (fun () ->
        for _ = 1 to n do
          ignore (Hilti_vm.Host_api.call_func api parse (args ()))
        done)
  in
  let (), fiber_ns =
    Bench_util.time_ns (fun () ->
        for _ = 1 to n do
          let run = Hilti_vm.Host_api.call_fiber api parse (args ()) in
          ignore (Hilti_vm.Host_api.result_exn run)
        done)
  in
  Printf.printf "direct call:        %7.0f ns/message\n"
    (Int64.to_float direct_ns /. float_of_int n);
  Printf.printf "through a fiber:    %7.0f ns/message (%.2fx: the incremental-parsing setup\n"
    (Int64.to_float fiber_ns /. float_of_int n)
    (Bench_util.ratio fiber_ns direct_ns);
  Printf.printf "cost BinPAC++ always pays, though UDP sees whole PDUs; §6.4)\n"

let run () =
  expiration_bench ();
  optimization_bench ();
  exception_bench ();
  deep_copy_bench ();
  fiber_vs_direct_bench ()
