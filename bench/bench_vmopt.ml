(** Register-bank specialization + superinstruction fusion benchmark.

    The same dispatch loop runs generic ([~specialize:false]) and
    specialized bytecode.  Three questions, answered against the same
    workloads the rest of the harness uses:

    - how much faster are the specialized opcodes than the generic ones
      on the integer-hot micro loop (target: >= 1.5x);
    - does the win survive end-to-end on the stateful firewall
      (classifier + time arithmetic around a small bytecode core);
    - does it survive on the BinPAC++ DNS parser (bytes-dominated, so the
      expected win is small but must not be a regression).

    Writes BENCH_vmopt.json. *)

(* Specialized opcodes must beat the generic ones on the hot loop and must
   not regress the end-to-end workloads (0.9 allows measurement noise). *)
let gates =
  Bench_util.Report.
    [ ("speedup_spec_over_generic", At_least 1.5);
      ("firewall_speedup", At_least 0.9);
      ("dns_speedup", At_least 0.9) ]

(* A hot arithmetic/branch loop: register reads/writes, compares and
   branches over int locals — the shape the register banks and the fused
   compare+branch / increment+jump superinstructions target. *)
let hot_loop_module () =
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

(* Time passes [a] and [b] of one workload against each other.  One pass
   takes a few ms at most, too short to compare two timings of, so a round
   repeats the pass for ~50 ms (calibrated on the best of five warm passes
   of [a]), and the two sides alternate round by round, each going first in
   half of them, so host load hits both alike.  Each side keeps its best
   round, and both must compute the same result.  Returns that result, the
   passes per round and the two best round times. *)
let interleaved_rounds ?(rounds = 10) a b =
  let result = ref (a ()) in
  ignore (b ());
  let _, pass_ns = Bench_util.best_of ~n:5 a in
  let passes = max 1 (int_of_float (ceil (50e6 /. Int64.to_float (max 1L pass_ns)))) in
  let round f () =
    for _ = 2 to passes do
      ignore (Sys.opaque_identity (f ()))
    done;
    f ()
  in
  Bench_util.gc_normalize ();
  let best_a = ref Int64.max_int and best_b = ref Int64.max_int in
  let time f best =
    let d, ns = Bench_util.time_ns (round f) in
    best := min !best ns;
    d
  in
  for r = 1 to rounds do
    let ra, rb =
      if r land 1 = 1 then
        let x = time a best_a in
        (x, time b best_b)
      else
        let y = time b best_b in
        (time a best_a, y)
    in
    assert (ra = rb);
    result := ra
  done;
  (!result, passes, !best_a, !best_b)

let run ?(quick = false) () =
  Bench_util.header "hot loop: generic vs specialized opcodes";
  let module R = Bench_util.Report in
  let r = R.create "vmopt" ~gates in
  let iters = if quick then 120_000L else 400_000L in
  let module H = Hilti_vm.Host_api in
  let api_generic = H.compile ~specialize:false [ hot_loop_module () ] in
  let api_spec = H.compile [ hot_loop_module () ] in
  assert api_spec.H.ctx.Hilti_vm.Vm.program.Hilti_vm.Bytecode.specialized;
  assert (not api_generic.H.ctx.Hilti_vm.Vm.program.Hilti_vm.Bytecode.specialized);
  let spin api () =
    Hilti_vm.Value.as_int (H.call api "Hot::spin" [ Hilti_vm.Value.Int iters ])
  in
  Bench_util.gc_normalize ();
  let r_generic, ns_generic = Bench_util.best_of ~n:5 (spin api_generic) in
  Bench_util.gc_normalize ();
  let r_spec, ns_spec = Bench_util.best_of ~n:5 (spin api_spec) in
  assert (r_generic = r_spec);
  let sg = Bench_util.ratio ns_generic ns_spec in
  Printf.printf "hot loop, %Ld iterations (best of 5):\n" iters;
  Printf.printf "  generic opcodes:     %8.2f ms\n" (Bench_util.ms ns_generic);
  Printf.printf "  specialized opcodes: %8.2f ms\n" (Bench_util.ms ns_spec);
  Printf.printf "  specialized/generic speedup: %.2fx (target >= 1.5x)\n" sg;
  R.num r ~unit_:"iters" "iters" (Int64.to_float iters);
  R.num r ~unit_:"ms" "generic_ms" (Bench_util.ms ns_generic);
  R.num r ~unit_:"ms" "specialized_ms" (Bench_util.ms ns_spec);
  R.num r ~unit_:"x" "speedup_spec_over_generic" sg;

  (* ---- Firewall end-to-end ------------------------------------------------ *)
  Bench_util.header "firewall end-to-end: specialization on vs off";
  let rules_text =
    "10.2.0.0/16 192.168.200.0/24 allow\n192.168.200.2/32 * allow\n10.2.7.0/24 * deny\n"
  in
  let cfg =
    { Hilti_traces.Dns_gen.default with
      transactions = (if quick then 500 else 2000);
      seed = 31 }
  in
  let trace = Hilti_traces.Dns_gen.generate cfg in
  let stream =
    List.filter_map
      (fun (r : Hilti_net.Pcap.record) ->
        match
          Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data
        with
        | Some pkt ->
            Some (r.Hilti_net.Pcap.ts, Hilti_net.Packet.src pkt, Hilti_net.Packet.dst pkt)
        | None -> None)
      trace.Hilti_traces.Dns_gen.records
  in
  let rules = Hilti_firewall.Fw_rules.parse_rules rules_text in
  let fw_generic = Hilti_firewall.Fw_hilti.load ~specialize:false rules in
  let fw_spec = Hilti_firewall.Fw_hilti.load ~specialize:true rules in
  let pass fw =
    List.map (fun (ts, src, dst) -> Hilti_firewall.Fw_hilti.match_packet fw ~ts ~src ~dst) stream
  in
  let fw_rounds = 10 in
  let _, passes, fw_ns_generic, fw_ns_spec =
    interleaved_rounds ~rounds:fw_rounds (fun () -> pass fw_generic) (fun () -> pass fw_spec)
  in
  let fw_speedup = Bench_util.ratio fw_ns_generic fw_ns_spec in
  Printf.printf
    "%d packets x %d passes, identical decisions; best of %d interleaved rounds: generic \
     %.2f ms, specialized %.2f ms (%.2fx)\n"
    (List.length stream) passes fw_rounds
    (Bench_util.ms fw_ns_generic) (Bench_util.ms fw_ns_spec) fw_speedup;
  R.int r ~unit_:"pkts" "firewall_packets" (List.length stream);
  R.int r ~unit_:"passes" "firewall_passes" passes;
  R.num r ~unit_:"ms" "firewall_generic_ms" (Bench_util.ms fw_ns_generic);
  R.num r ~unit_:"ms" "firewall_specialized_ms" (Bench_util.ms fw_ns_spec);
  R.num r ~unit_:"x" "firewall_speedup" fw_speedup;
  (* Functions [Specialize] left generic (nothing to bank) run exactly the
     generic code, with no bank blits per activation. *)
  let spec_counts (api : H.t) =
    match api.H.spec_stats with
    | Some st -> (st.Hilti_vm.Specialize.s_funcs, st.Hilti_vm.Specialize.s_generic)
    | None -> (0, 0)
  in
  let fw_spec_funcs, fw_generic_funcs = spec_counts fw_spec.Hilti_firewall.Fw_hilti.api in
  Printf.printf "firewall functions: %d specialized, %d left generic\n" fw_spec_funcs
    fw_generic_funcs;
  R.int r ~unit_:"funcs" "firewall_funcs_specialized" fw_spec_funcs;
  R.int r ~unit_:"funcs" "firewall_funcs_generic" fw_generic_funcs;

  (* ---- DNS parser end-to-end ---------------------------------------------- *)
  Bench_util.header "BinPAC++ DNS parser: specialization on vs off";
  let payloads =
    List.filter_map
      (fun (r : Hilti_net.Pcap.record) ->
        match
          Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data
        with
        | Some pkt ->
            let p = Hilti_net.Packet.payload pkt in
            if String.length p > 0 then Some p else None
        | None -> None)
      trace.Hilti_traces.Dns_gen.records
  in
  let dns_pass pac () =
    List.fold_left
      (fun acc p ->
        match Hilti_analyzers.Dns_pac.parse pac p with
        | Hilti_analyzers.Dns_pac.Not_dns -> acc
        | Hilti_analyzers.Dns_pac.Request _ | Hilti_analyzers.Dns_pac.Reply _ -> acc + 1)
      0 payloads
  in
  let pac_generic = Hilti_analyzers.Dns_pac.load ~specialize:false () in
  let pac_spec = Hilti_analyzers.Dns_pac.load ~specialize:true () in
  let dns_rounds = 10 in
  let dns_parsed, dns_passes, dns_ns_generic, dns_ns_spec =
    interleaved_rounds ~rounds:dns_rounds (dns_pass pac_generic) (dns_pass pac_spec)
  in
  let dns_speedup = Bench_util.ratio dns_ns_generic dns_ns_spec in
  Printf.printf
    "%d datagrams (%d parsed in both modes) x %d passes; best of %d interleaved rounds: \
     generic %.2f ms, specialized %.2f ms (%.2fx)\n"
    (List.length payloads) dns_parsed dns_passes dns_rounds
    (Bench_util.ms dns_ns_generic) (Bench_util.ms dns_ns_spec) dns_speedup;

  R.int r ~unit_:"datagrams" "dns_datagrams" (List.length payloads);
  R.int r ~unit_:"passes" "dns_passes" dns_passes;
  R.num r ~unit_:"ms" "dns_generic_ms" (Bench_util.ms dns_ns_generic);
  R.num r ~unit_:"ms" "dns_specialized_ms" (Bench_util.ms dns_ns_spec);
  R.num r ~unit_:"x" "dns_speedup" dns_speedup;
  let dns_spec_funcs, dns_generic_funcs =
    spec_counts pac_spec.Hilti_analyzers.Dns_pac.parser.Binpacxx.Runtime.api
  in
  Printf.printf "DNS parser functions: %d specialized, %d left generic\n" dns_spec_funcs
    dns_generic_funcs;
  R.int r ~unit_:"funcs" "dns_funcs_specialized" dns_spec_funcs;
  R.int r ~unit_:"funcs" "dns_funcs_generic" dns_generic_funcs;
  r
