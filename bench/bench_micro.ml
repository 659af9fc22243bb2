(** §5 runtime micro-benchmarks: the fiber rates the paper reports for its
    setcontext implementation (~18M switches/s, ~5M create-run-delete
    cycles/s on a 2009 Xeon 5570), plus Bechamel micro benches of the core
    runtime data structures. *)

open Hilti_rt
module R = Bench_util.Report

let fiber_switch_rate () =
  (* One long-lived fiber, resumed repeatedly; each resume+yield is two
     context switches, matching the paper's metric. *)
  let n = 200_000 in
  let fiber =
    Fiber.create (fun () ->
        let continue = ref true in
        while !continue do
          Fiber.yield ()
        done)
  in
  ignore (Fiber.resume fiber);
  let (), ns =
    Bench_util.time_ns (fun () ->
        for _ = 1 to n do
          ignore (Fiber.resume fiber)
        done)
  in
  Fiber.cancel fiber;
  (* resume + yield = 2 switches per iteration *)
  2.0 *. float_of_int n /. (Int64.to_float ns /. 1e9)

let fiber_cycle_rate () =
  let n = 100_000 in
  let (), ns =
    Bench_util.time_ns (fun () ->
        for _ = 1 to n do
          let f = Fiber.create (fun () -> ()) in
          ignore (Fiber.resume f)
        done)
  in
  float_of_int n /. (Int64.to_float ns /. 1e9)

(* ---- Frame allocation micro-benchmarks ------------------------------------ *)

(* A per-packet-shaped call path: a driver loop making one direct call per
   iteration into a leaf with a wide frame — the activation pattern of the
   DNS parse path's helper calls.  Every leaf activation runs in a frame
   recycled from the leaf's free list, so what remains per activation is
   the dispatch loop's own allocation. *)
let call_leaf_module () =
  let m = Module_ir.create "Act" in
  (* The leaf: enough locals that its frame copy is visible in the
     allocation rate. *)
  let b =
    Builder.func m "Act::leaf" ~params:[ ("x", Htype.Int 64) ]
      ~result:(Htype.Int 64)
  in
  let acc = ref (Instr.Local "x") in
  for k = 1 to 12 do
    acc := Builder.emit b (Htype.Int 64) "int.add" [ !acc; Builder.const_int k ]
  done;
  let r = Builder.emit b (Htype.Int 64) "int.xor" [ !acc; Instr.Local "x" ] in
  Builder.return_result b r;
  (* The driver: n activations of the leaf. *)
  let b =
    Builder.func m "Act::drive" ~params:[ ("n", Htype.Int 64) ]
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
  let v =
    Builder.emit b (Htype.Int 64) "call"
      [ Instr.Fname "Act::leaf"; Instr.Tuple_op [ Instr.Local i ] ]
  in
  let acc' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; v ] in
  Builder.assign b ~target:acc acc';
  let i' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local i; Builder.const_int 1 ] in
  Builder.assign b ~target:i i';
  Builder.jump b "head";
  Builder.set_block b "exit";
  Builder.return_result b (Instr.Local acc);
  m

(* ---- The byte counter itself --------------------------------------------- *)

(* Every byte reading here is [Bench_util.alloc_bytes].  It must count a
   block of known size exactly, on either heap: a 10-word array from the
   minor heap and a 4 KiB string allocated directly in the major heap.
   [Gc.allocated_bytes] read ~0 for the first when no minor collection
   fell inside the count. *)
let alloc_count_gates = R.[ ("alloc_count_error_bytes", At_most 0.) ]

let alloc_count_bench r =
  Bench_util.header "byte counter: blocks of known size";
  let n = 10_000 in
  let block_bytes v = float_of_int ((Obj.size (Obj.repr v) + 1) * (Sys.word_size / 8)) in
  let error name make =
    let per =
      Bench_util.alloc_bytes (fun () ->
          for _ = 1 to n do
            ignore (Sys.opaque_identity (make ()))
          done)
      /. float_of_int n
    in
    let want = block_bytes (make ()) in
    Printf.printf "  %-22s %8.2f bytes/block (block is %.0f)\n" name per want;
    Float.abs (per -. want)
  in
  let e_minor = error "minor heap, 10 words" (fun () -> Array.make 9 0) in
  let e_major = error "major heap, 4 KiB" (fun () -> Bytes.create 4096) in
  R.num r ~unit_:"B" "alloc_count_error_bytes" (Float.max e_minor e_major)

(* Every activation runs in a recycled frame: allocated bytes per leaf
   activation on the call-heavy micro path, and minor words per
   activation of the recursive compiled fib(21) (deterministic counts;
   80.0 B and 7.5 words measured, 126 B and ~30 words when only
   analysis-licensed, non-recursive functions recycled frames and the
   rest copied theirs). *)
let frame_gates =
  R.[ ("frame_bytes_per_activation", At_most 96.); ("fib_words_per_activation", At_most 10.) ]

(* Allocated bytes per leaf activation, amortized over [n] calls. *)
let frame_bytes_bench r =
  Bench_util.header "frames: allocated bytes per activation";
  let module H = Hilti_vm.Host_api in
  let n = 200_000 in
  let api = H.compile [ call_leaf_module () ] in
  let drive () =
    Hilti_vm.Value.as_int (H.call api "Act::drive" [ Hilti_vm.Value.Int (Int64.of_int n) ])
  in
  let warm = drive () in
  (* warm-up: free lists filled, code paths in the caches *)
  let again = ref 0L in
  let per = Bench_util.alloc_bytes (fun () -> again := drive ()) /. float_of_int n in
  assert (warm = !again);
  Printf.printf "%d leaf activations per run: %8.1f bytes/activation\n" n per;
  R.num r ~unit_:"B" "frame_bytes_per_activation" per

(* Minor words per activation of the compiled Bro [fib(21)]: a recursive
   function, so every level of the recursion needs a frame of its own and
   the free list serves the next descent. *)
let fib_words_bench r =
  Bench_util.header "frames: minor words per activation, compiled fib(21)";
  let engine =
    Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Compiled (Mini_bro.Bro_scripts.parse_fib ())
  in
  let arg = [ Mini_bro.Bro_val.Vcount 21L ] in
  let rec activations n = if n < 2 then 1 else 1 + activations (n - 1) + activations (n - 2) in
  let n = activations 21 in
  let call () = ignore (Mini_bro.Bro_engine.call_function engine "fib" arg) in
  call ();
  let per = Bench_util.alloc_words call /. float_of_int n in
  Printf.printf "%d activations per call: %8.1f minor words/activation\n" n per;
  R.num r ~unit_:"words" "fib_words_per_activation" per

(* ---- Zero-copy parse-path allocation: DNS --------------------------------- *)

(* Allocated bytes per datagram through the DNS path, layer by layer, for
   the pre-PR string pipeline ("before": header decode into records + one
   payload string per datagram, [run_dns_src_unbatched]) against the
   zero-copy batched pipeline ("after": UDP header peek + payload slice
   straight off the raw frame, [run_dns_src]).  The decode layer is where
   zero-copy applies — the parse layer's semantic values (names, rdata)
   and the event/flow-tracking layer are shared by both pipelines. *)
let null_sink () =
  { Hilti_analyzers.Events.raise_event = (fun _ _ -> ());
    set_time = (fun _ -> ()) }

let alloc_of ~per f =
  ignore (f ());
  (* warm *)
  Bench_util.alloc_bytes (fun () -> ignore (f ())) /. float_of_int per

(* Zero-copy view decode must cut the DNS per-packet allocation by >= 50%
   versus the string-materializing path.  Counted exactly it cuts 26%
   (610.4 -> 452.0 B), so the gate fails; the ~90% once recorded here was
   [Gc.allocated_bytes] missing the minor heap's tail.  [Driver.dns_slice]
   allocates the flow, the payload view and the options around them, and
   no header record.  451.95 measured with one header walk and unboxed
   IPv4 address reads, gated 2% above; 499.95 when each address passed
   through a boxed [int32], 555.95 when the IPv4 peek built a (protocol,
   header length, src, dst) tuple. *)
let dns_alloc_gates =
  R.
    [ ("dns_alloc_bytes_per_packet_before", Recorded);
      ("dns_alloc_bytes_per_packet_after", Recorded);
      ("dns_alloc_reduction", At_least 0.5);
      ("dns_slice_alloc_bytes_per_packet", At_most 461.) ]

let dns_alloc_bench r =
  Bench_util.header "dns driver: allocated bytes per packet, string loop vs zero-copy batch";
  let module D = Hilti_analyzers.Driver in
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 1500; seed = 7 } in
  let records = (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records in
  let pkts =
    let l = ref [] in
    Hilti_rt.Iosrc.iter (fun p -> l := p :: !l)
      (Hilti_net.Pcap.iosrc_of_records records);
    Array.of_list (List.rev !l)
  in
  let n = Array.length pkts in
  let scratch = Hilti_analyzers.Dns_std.make_scratch () in
  (* Decode layer: datagram -> (flow, payload). *)
  let decode_before =
    alloc_of ~per:n (fun () ->
        Array.iter (fun p -> ignore (D.dns_datagram p)) pkts)
  in
  let decode_after =
    alloc_of ~per:n (fun () -> Array.iter (fun p -> ignore (D.dns_slice p)) pkts)
  in
  (* Decode + parse: adds the shared semantic values. *)
  let parse_before =
    alloc_of ~per:n (fun () ->
        Array.iter
          (fun p ->
            match D.dns_datagram p with
            | Some (_, payload) -> ignore (D.dns_parse D.Dns_std payload)
            | None -> ())
          pkts)
  in
  let parse_after =
    alloc_of ~per:n (fun () ->
        Array.iter
          (fun p ->
            match D.dns_slice p with
            | Some (_, v) -> ignore (D.dns_parse_view ~scratch D.Dns_std v)
            | None -> ())
          pkts)
  in
  (* End-to-end: the full driver loops (events into a null sink). *)
  let src () = Hilti_net.Pcap.iosrc_of_records records in
  let e2e_before =
    alloc_of ~per:n (fun () ->
        D.run_dns_src_unbatched ~kind:D.Dns_std ~sink:(null_sink ()) (src ()))
  in
  let e2e_after =
    alloc_of ~per:n (fun () ->
        D.run_dns_src ~kind:D.Dns_std ~sink:(null_sink ()) (src ()))
  in
  let reduction = 1.0 -. (decode_after /. decode_before) in
  Printf.printf "%d datagrams (Dns_std), bytes/packet before -> after:\n" n;
  Printf.printf "  decode (flow + payload):   %8.1f -> %8.1f  (%.1f%% less)\n"
    decode_before decode_after
    (100.0 *. (1.0 -. (decode_after /. decode_before)));
  Printf.printf "  decode + parse:            %8.1f -> %8.1f  (%.1f%% less)\n"
    parse_before parse_after
    (100.0 *. (1.0 -. (parse_after /. parse_before)));
  Printf.printf "  end-to-end (null sink):    %8.1f -> %8.1f  (%.1f%% less)\n"
    e2e_before e2e_after
    (100.0 *. (1.0 -. (e2e_after /. e2e_before)));
  R.num r ~unit_:"B/pkt" "dns_alloc_bytes_per_packet_before" decode_before;
  R.num r ~unit_:"B/pkt" "dns_alloc_bytes_per_packet_after" decode_after;
  R.num r ~unit_:"ratio" "dns_alloc_reduction" reduction;
  R.num r ~unit_:"B/pkt" "dns_slice_alloc_bytes_per_packet" decode_after;
  R.num r ~unit_:"B/pkt" "dns_parse_alloc_bytes_per_packet_before" parse_before;
  R.num r ~unit_:"B/pkt" "dns_parse_alloc_bytes_per_packet_after" parse_after;
  R.num r ~unit_:"B/pkt" "dns_e2e_alloc_bytes_per_packet_before" e2e_before;
  R.num r ~unit_:"B/pkt" "dns_e2e_alloc_bytes_per_packet_after" e2e_after

(* ---- BinPAC++ DNS on the VM: allocation and instructions per packet ------- *)

(* BinPAC++ DNS on the VM: allocated bytes per packet, counted exactly
   with [Bench_util.alloc_bytes] (a count, not a time, so the gate is
   deterministic).  2,687.8 measured with parse positions in the int bank;
   4,960.6 when every [unpack]/[read] boxed a fresh iterator, 38,561 before
   struct slots, hook indices and the two-destination unpack. *)
let dns_pac_gates =
  R.[ ("dns_pac_alloc_bytes_per_packet", At_most 3000.); ("dns_pac_instrs_per_packet", Recorded) ]

(* The same 1,500-transaction trace as [dns_alloc_bench], parsed by the
   HILTI-compiled DNS grammar.  Allocation and retired VM instructions are
   counts, not times, so both are deterministic for a given tree. *)
let dns_pac_bench r =
  Bench_util.header "dns BinPAC++ parse on the VM: bytes and instructions per packet";
  let module D = Hilti_analyzers.Driver in
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 1500; seed = 7 } in
  let records = (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records in
  let views = ref [] in
  Hilti_rt.Iosrc.iter
    (fun p ->
      match D.dns_slice p with Some (_, v) -> views := v :: !views | None -> ())
    (Hilti_net.Pcap.iosrc_of_records records);
  let views = Array.of_list (List.rev !views) in
  let n = Array.length views in
  let pac = Hilti_analyzers.Dns_pac.load () in
  let kind = D.Dns_pac pac in
  let parse_all () = Array.iter (fun v -> ignore (D.dns_parse_view kind v)) views in
  let bytes = alloc_of ~per:n parse_all in
  let api = pac.Hilti_analyzers.Dns_pac.parser.Binpacxx.Runtime.api in
  let c0 = Hilti_vm.Host_api.cycles api in
  parse_all ();
  let instrs =
    Int64.to_float (Int64.sub (Hilti_vm.Host_api.cycles api) c0) /. float_of_int n
  in
  let reps = 10 in
  let (), ns = Bench_util.time_ns (fun () -> for _ = 1 to reps do parse_all () done) in
  Printf.printf
    "%d datagrams (Dns_pac): %.1f bytes/packet, %.1f VM instructions/packet, %.0f ns/packet\n"
    n bytes instrs
    (Int64.to_float ns /. float_of_int (reps * n));
  R.num r ~unit_:"B/pkt" "dns_pac_alloc_bytes_per_packet" bytes;
  R.num r ~unit_:"instrs/pkt" "dns_pac_instrs_per_packet" instrs

(* ---- DNS scripts: allocation per transaction ------------------------------- *)

(* The bundled [Bro_scripts.dns] handlers under [mode] (the standard
   interpreter or the scripts compiled to HILTI), replaying a fixed
   dns_request/dns_reply stream recorded once from the 1,500-transaction
   trace.  The event arguments are built before the measurement, so the
   count covers network-time updates, handler dispatch (for compiled
   scripts, the Bro-to-HILTI argument glue too) and the log rows only.
   Allocation is a count, not a time, so it is deterministic for a given
   tree.  With [~all_scripts] the replay runs every bundled script
   ([Bro_scripts.parse_all], as mini-bro and the pipeline load them) and
   includes [connection_established], which the scan script handles. *)
(* The same measurement on the interpreter before scripts were resolved at
   load (per-call [Hashtbl] scopes, name lookup, [Printf] renderers and an
   intermediate record per [Log::write]); that interpreter no longer
   exists, so its figure is recorded here. *)
let dns_script_alloc_before = 11239.6

(* The bundled DNS handlers under the interpreter, resolved at load:
   allocated bytes per transaction (a deterministic count; 1,274.4
   measured, 11,240 before frame slots and column-ordered log rows). *)
let dns_script_gates = R.[ ("dns_script_alloc_bytes_per_txn", At_most 5000.) ]

let dns_script_bench r ?(all_scripts = false) mode =
  Bench_util.header
    (Printf.sprintf "%s %s: bytes per transaction"
       (match mode with Mini_bro.Bro_engine.Interpreted -> "interpreted" | Compiled -> "compiled")
       (if all_scripts then "bundled scripts on DNS" else "DNS scripts"));
  let module D = Hilti_analyzers.Driver in
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 1500; seed = 7 } in
  let records = (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records in
  let events = ref [] and ts = ref Hilti_types.Time_ns.epoch in
  let sink =
    { Hilti_analyzers.Events.raise_event =
        (fun name args ->
          if
            name = "dns_request" || name = "dns_reply"
            || (all_scripts && name = "connection_established")
          then
            events := (!ts, name, args) :: !events);
      set_time = (fun t -> ts := t) }
  in
  ignore (D.run_dns_src ~kind:D.Dns_std ~sink (Hilti_net.Pcap.iosrc_of_records records));
  let events = Array.of_list (List.rev !events) in
  let txns =
    Array.fold_left (fun n (_, name, _) -> if name = "dns_reply" then n + 1 else n) 0 events
  in
  let script =
    if all_scripts then Mini_bro.Bro_scripts.parse_all () else Mini_bro.Bro_scripts.parse_dns ()
  in
  let load () =
    let logger = Mini_bro.Bro_log.create () in
    Mini_bro.Bro_scripts.setup_logs logger;
    let e = Mini_bro.Bro_engine.load ~logger mode script in
    Mini_bro.Bro_engine.dispatch e "bro_init" [];
    (e, logger)
  in
  let replay e =
    Array.iter
      (fun (ts, name, args) ->
        Mini_bro.Bro_engine.set_network_time e ts;
        Mini_bro.Bro_engine.dispatch e name args)
      events
  in
  let warm, _ = load () in
  replay warm;
  let e, logger = load () in
  let bytes = Bench_util.alloc_bytes (fun () -> replay e) /. float_of_int txns in
  assert (Mini_bro.Bro_log.row_count logger "dns" = txns);
  let reps = 10 in
  let (), ns = Bench_util.time_ns (fun () -> for _ = 1 to reps do replay e done) in
  Printf.printf "%d transactions (%d events): %.1f bytes/transaction, %.0f ns/transaction\n"
    txns (Array.length events) bytes
    (Int64.to_float ns /. float_of_int (reps * txns));
  let metric =
    match (mode, all_scripts) with
    | Mini_bro.Bro_engine.Compiled, _ -> "dns_compiled_script_alloc_bytes_per_txn"
    | Interpreted, true -> "dns_all_scripts_alloc_bytes_per_txn"
    | Interpreted, false -> "dns_script_alloc_bytes_per_txn"
  in
  R.num r ~unit_:"B/txn" metric bytes

(* ---- Firewall fast path: container keys and decision lines ---------------- *)

(* ns and allocated bytes per call of [f] over 200k calls, as a bench
   row.  Bytes come from [Bench_util.alloc_bytes], so they repeat exactly. *)
let per_call_row r name f =
  let n = 200_000 in
  let f () = ignore (Sys.opaque_identity (f ())) in
  let bytes = alloc_of ~per:n (fun () -> for _ = 1 to n do f () done) in
  let (), ns =
    Bench_util.time_ns (fun () ->
        for _ = 1 to n do f () done)
  in
  let ns = Int64.to_float ns /. float_of_int n in
  Printf.printf "  %-16s %8.1f ns/call %8.1f bytes/call\n" name ns bytes;
  R.num r ~unit_:"ns" (name ^ "_ns") ns;
  R.num r ~unit_:"B" (name ^ "_bytes") bytes

(* The firewall's per-packet formatting: a binary tuple<addr,addr> set key
   and one decision line, in allocated bytes per call (deterministic
   counts; 48 and 64 measured, the line's string being its only
   allocation, gated 2% above; 200 when the line went through a
   [Buffer.t], 1,240 and ~920 with text keys and Printf). *)
let key_fw_gates = R.[ ("key_tuple_addr_bytes", At_most 64.); ("fw_line_bytes", At_most 66.) ]

(* [Value.key_string] on the key shapes the firewall and the DNS scripts
   hash, and [Driver.fw_line], per call. *)
let key_fw_bench r =
  Bench_util.header "firewall fast path: key_string and fw_line per call";
  let module V = Hilti_vm.Value in
  let module T = Hilti_types in
  let src = T.Addr.of_string "10.1.2.3" and dst = T.Addr.of_string "192.168.100.200" in
  let pair = V.Tuple [| V.Addr src; V.Addr dst |] in
  let int = V.Int 28L in
  let bytes = V.Bytes (T.Hbytes.of_string "www.example.com") in
  let ts = T.Time_ns.of_ns 1_400_000_123_456_789L in
  List.iter
    (fun (name, f) -> per_call_row r name f)
    [ ("key_tuple_addr", fun () -> V.key_string pair);
      ("key_int", fun () -> V.key_string int);
      ("key_bytes", fun () -> V.key_string bytes);
      ("fw_line", fun () -> Hilti_analyzers.Driver.fw_line ~ts ~src ~dst true) ]

(* ---- Expiring state: refresh cost and timers per entry -------------------- *)

(* Expiring state keeps one timer per live entry: an access refresh only
   moves the entry's deadline (0 minor words; 20 when every refresh armed
   a new timer), and after a 61k-packet DNS + HTTP mix the firewall holds
   one pending timer per dynamic-rule entry (20.4 when stale timers stayed
   queued until their deadline). *)
let exp_state_gates =
  R.[ ("exp_map_refresh_words", At_most 0.); ("fw_pending_timers_per_entry", At_most 1.1) ]

(* Minor words per access refresh of an armed [Exp_map] entry, and the
   firewall's pending timers per live dynamic-rule entry after a mixed
   DNS + HTTP trace.  Both are exact counts: a refresh only moves the
   entry's deadline, and each live entry owns at most one timer. *)
let exp_state_bench r =
  Bench_util.header "expiring state: refresh allocation and pending timers per entry";
  let module T = Hilti_types in
  let mgr = Timer_mgr.create () in
  let m : (string, int) Exp_map.t = Exp_map.create () in
  Exp_map.set_timeout m (Expire.Access (T.Interval_ns.of_secs 300)) mgr;
  Exp_map.insert m "k" 1;
  let n = 100_000 in
  let refresh_words =
    Bench_util.alloc_words (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Exp_map.mem_touch m "k"))
        done)
    /. float_of_int n
  in
  Printf.printf "  minor words per access refresh: %.2f (%d pending timer(s) after %d refreshes)\n"
    refresh_words (Timer_mgr.pending mgr) n;
  R.num r ~unit_:"words" "exp_map_refresh_words" refresh_words;
  let fw =
    Hilti_firewall.Fw_hilti.load
      (Hilti_firewall.Fw_rules.parse_rules Bench_firewall.rules_text)
  in
  let records =
    Hilti_traces.Mix.generate
      { Hilti_traces.Mix.http =
          Some
            { Hilti_traces.Http_gen.default with
              sessions = 1_500;
              start_ts = Hilti_traces.Dns_gen.default.start_ts };
        dns = Some { Hilti_traces.Dns_gen.default with transactions = 20_000 };
        ssh = None }
  in
  List.iter
    (fun (r : Hilti_net.Pcap.record) ->
      let ts = r.Hilti_net.Pcap.ts in
      match Hilti_net.Packet.decode_opt ~ts r.Hilti_net.Pcap.data with
      | Some pkt ->
          ignore
            (Hilti_firewall.Fw_hilti.match_packet fw ~ts ~src:(Hilti_net.Packet.src pkt)
               ~dst:(Hilti_net.Packet.dst pkt))
      | None -> ())
    records;
  let ctx = fw.Hilti_firewall.Fw_hilti.api.Hilti_vm.Host_api.ctx in
  let pending = Timer_mgr.pending (Hilti_vm.Vm.current_timer_mgr ctx) in
  let entries =
    let slot = Hashtbl.find ctx.Hilti_vm.Vm.program.Hilti_vm.Bytecode.global_index "dyn" in
    match (Hilti_vm.Vm.current_globals ctx).(slot) with
    | Hilti_vm.Value.Set s -> Exp_map.size s
    | v -> failwith ("the firewall's dyn global holds " ^ Hilti_vm.Value.to_string v)
  in
  let per_entry = float_of_int pending /. float_of_int (max 1 entries) in
  Printf.printf "  firewall over %d packets: %d pending timers for %d dynamic entries (%.2f per entry)\n"
    (List.length records) pending entries per_entry;
  R.num r ~unit_:"timers/entry" "fw_pending_timers_per_entry" per_entry

(* ---- Connection records: one build, one glue conversion ------------------- *)

(* Compiled-script glue resolved at load: one typed `connection` argument
   conversion and the compiled DNS handlers per transaction, in allocated
   bytes (deterministic counts; 328 and ~2,870 measured, 2,152 and ~12,680
   when each record was rebuilt by name in its own profiler window, ~5,760
   when [fmt], [cat] and [join] converted every value to its Bro form). *)
let glue_gates =
  R.
    [ ("glue_connection_bytes", At_most 512.);
      ("dns_compiled_script_alloc_bytes_per_txn", At_most 4600.) ]

(* Interpreter state without strings or cells: one `connection` record
   (shared field-name arrays, no per-field ref cells) and every bundled
   script over the DNS event stream with `connection_established`, in
   allocated bytes (deterministic counts; 264 and ~1,560 measured, 1,112
   and ~2,920 with string-built keys and (name, ref) record fields). *)
let interp_state_gates =
  R.
    [ ("connection_val_bytes", At_most 384.);
      ("dns_all_scripts_alloc_bytes_per_txn", At_most 2400.) ]

(* The [connection] argument of every event: built by
   [Events.connection_val], and converted to its HILTI struct by the
   converter the compiled engine resolved at load for [dns_request]'s
   first parameter. *)
let glue_bench r =
  Bench_util.header "connection records: one build and one typed conversion per call";
  let module T = Hilti_types in
  let conv =
    match
      Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Compiled
        (Mini_bro.Bro_scripts.parse_dns ())
    with
    | Mini_bro.Bro_engine.Comp c ->
        (Hashtbl.find c.Mini_bro.Bro_engine.handled "dns_request").Mini_bro.Bro_engine.convs.(0)
    | Mini_bro.Bro_engine.Interp _ -> assert false
  in
  let flow =
    Hilti_net.Flow.make ~src:(T.Addr.of_string "10.1.2.3")
      ~dst:(T.Addr.of_string "192.168.100.200") ~src_port:(T.Port.udp 40000)
      ~dst_port:(T.Port.udp 53)
  in
  let start_time = T.Time_ns.of_ns 1_400_000_123_456_789L in
  let connection () =
    Hilti_analyzers.Events.connection_val ~uid:"CHhAvVGS1DHFjwGM9" ~flow ~start_time
  in
  let c = connection () in
  per_call_row r "connection_val" connection;
  per_call_row r "glue_connection" (fun () -> conv c)

(* ---- Profiler windows --------------------------------------------------- *)

(* One exclusive profiler window inside a running block, with the timed
   closure allocated once: minor words per window (a deterministic count;
   7 measured: the frame and its list cell.  ~21 when a window paused and
   resumed its outer block with clock reads of their own, through
   [Fun.protect] and per-call closures). *)
let profiler_window_gates = R.[ ("profiler_window_words", At_most 8.) ]

let profiler_window_bench r =
  Bench_util.header "profiler: one exclusive window inside a running block";
  let outer = Profiler.create "bench/window_outer" and inner = Profiler.create "bench/window" in
  let f () = () in
  let n = 200_000 in
  let words =
    Profiler.time outer (fun () ->
        Profiler.time_exclusive inner f;
        Bench_util.alloc_words (fun () ->
            for _ = 1 to n do
              Profiler.time_exclusive inner f
            done)
        /. float_of_int n)
  in
  let (), ns =
    Bench_util.time_ns (fun () ->
        Profiler.time outer (fun () ->
            for _ = 1 to n do
              Profiler.time_exclusive inner f
            done))
  in
  let ns = Int64.to_float ns /. float_of_int n in
  Printf.printf "  %.1f minor words, %.0f ns per window\n" words ns;
  R.num r ~unit_:"words" "profiler_window_words" words;
  R.num r ~unit_:"ns" "profiler_window_ns" ns

(* ---- Zero-copy parse-path allocation: HTTP -------------------------------- *)

(* The HTTP extraction layer the views replaced: header lines used to be
   materialized twice ([Hbytes.sub] with the CR, then [String.sub] to
   strip it) and body bytes once more (an intermediate chunk string before
   the body buffer).  Replay both extraction state machines over the same
   response stream — identical line splitting, body framing and trims —
   so the delta is exactly the copies the view path removed. *)
let http_feeds =
  lazy
    (let body = String.make 2048 'b' in
     let msg =
       "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
        Content-Length: 2048\r\n\r\n" ^ body
     in
     let all = String.concat "" (List.init 500 (fun _ -> msg)) in
     let chunk = 1460 in
     let rec split i acc =
       if i >= String.length all then List.rev acc
       else
         let len = min chunk (String.length all - i) in
         split (i + len) (String.sub all i len :: acc)
     in
     split 0 [])

let http_extract ~old_copies () =
  let module Hb = Hilti_types.Hbytes in
  let buf = Hb.create () in
  let body = Buffer.create 4096 in
  let messages = ref 0 in
  let in_body = ref false in
  let rec drain () =
    if !in_body then begin
      let it = Hb.begin_ buf in
      if Hb.available it >= 2048 then begin
        (if old_copies then
           Buffer.add_string body (Hb.sub it (Hb.advance it 2048))
         else
           Hb.view_add_to_buffer
             (Hb.sub_view it (Hb.advance it 2048))
             0 2048 body);
        Hb.trim buf (Hb.advance it 2048);
        incr messages;
        Buffer.clear body;
        in_body := false;
        drain ()
      end
    end
    else
      let it = Hb.begin_ buf in
      match Hb.find it "\n" with
      | None -> ()
      | Some nl ->
          let line =
            if old_copies then begin
              let raw = Hb.sub it nl in
              let n = String.length raw in
              if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1)
              else raw
            end
            else begin
              let v = Hb.sub_view it nl in
              let n = Hb.view_length v in
              let n =
                if n > 0 && Hb.get_u8 v (n - 1) = Char.code '\r' then n - 1
                else n
              in
              Hb.view_sub_string v 0 n
            end
          in
          if line = "" then in_body := true;
          Hb.trim buf (Hb.advance nl 1);
          drain ()
  in
  List.iter
    (fun c ->
      Hb.append buf c;
      drain ())
    (Lazy.force http_feeds);
  !messages

let http_alloc_gates = R.[ ("http_alloc_reduction", Recorded) ]

let http_alloc_bench r =
  Bench_util.header "http extraction: allocated bytes per packet, copies vs views";
  let npkts = List.length (Lazy.force http_feeds) in
  let m_before = http_extract ~old_copies:true () in
  let m_after = http_extract ~old_copies:false () in
  assert (m_before = m_after && m_before = 500);
  let before_per = alloc_of ~per:npkts (http_extract ~old_copies:true) in
  let after_per = alloc_of ~per:npkts (http_extract ~old_copies:false) in
  let reduction = 1.0 -. (after_per /. before_per) in
  Printf.printf "%d packet-sized feeds (%d responses, 2 KiB bodies):\n" npkts
    m_before;
  Printf.printf "  copying extraction (pre-view): %8.1f bytes/packet\n" before_per;
  Printf.printf "  view-based extraction:         %8.1f bytes/packet\n" after_per;
  Printf.printf "  reduction: %.1f%%\n" (100.0 *. reduction);
  R.num r ~unit_:"B/pkt" "http_alloc_bytes_per_packet_before" before_per;
  R.num r ~unit_:"B/pkt" "http_alloc_bytes_per_packet_after" after_per;
  R.num r ~unit_:"ratio" "http_alloc_reduction" reduction

(* ---- The TCP stream runner's allocation per packet ---------------------- *)

(* [Driver.run_http_src] with the standard parser and a null sink over a
   fixed [Http_gen] trace: everything the runner allocates per packet
   (header peek, flow tracking, reassembly, parsing, event values) in
   the minor heap, in bytes counted with [Gc.minor_words] — repeatable,
   but blind to blocks too large for the minor heap (ROADMAP item 20).
   1,901.7 measured, gated 2% above; 1,949.7 when each IPv4 address passed
   through a boxed [int32], 2,069.8 when the header peek built an IP
   header record, 4,099.6 when each segment's payload was copied three
   times by the decoder and once more by reassembly before the parser's
   buffer. *)
let http_driver_gates = R.[ ("http_driver_alloc_bytes_per_packet", At_most 1940.) ]

let http_driver_bench r =
  Bench_util.header "tcp runner: allocated bytes per packet, http-std";
  let records =
    (Hilti_traces.Http_gen.generate { Hilti_traces.Http_gen.default with sessions = 300 })
      .Hilti_traces.Http_gen.records
  in
  let run () =
    Hilti_analyzers.Driver.run_http_src ~kind:Hilti_analyzers.Driver.Http_std
      ~sink:(null_sink ()) (Hilti_net.Pcap.iosrc_of_records records)
  in
  ignore (run ());
  (* Minor-heap bytes only, as the gate was set: the runner also
     allocates ~520 B/pkt of blocks too large for the minor heap, which
     [alloc_of] would add. *)
  let before = Gc.minor_words () in
  let stats = run () in
  let words = Gc.minor_words () -. before in
  let packets = stats.Hilti_analyzers.Driver.packets in
  let per = words *. float_of_int (Sys.word_size / 8) /. float_of_int packets in
  Printf.printf "  %d packets, %d connections: %.1f bytes/packet\n" packets
    stats.Hilti_analyzers.Driver.connections per;
  R.num r ~unit_:"B/pkt" "http_driver_alloc_bytes_per_packet" per

(* ---- SHA-1 kernel --------------------------------------------------------- *)

(* SHA-1 over an 8 MiB message fed in 1,460-byte segments: minor words
   per MiB (a deterministic count; 0.88 measured, the 40-character digest
   being the only allocation; one word per 64-byte block would read
   16,384), and the same digest through the kernel this CPU runs and the
   portable one.  The kernel's name and both kernels' MB/s depend on the
   host and are recorded only. *)
let sha1_gates =
  R.
    [ ("sha1_kernel", Recorded);
      ("sha1_mb_per_s", Recorded);
      ("sha1_portable_mb_per_s", Recorded);
      ("sha1_kernels_agree", Equals (Num 1.));
      ("sha1_minor_words_per_mib", At_most 1.) ]

(* Both HTTP parsers hash every reply body as it is reassembled, so the
   kernel's rate bounds http-std's [parse] layer.  One 8 MiB message, fed
   in 1,460-byte segments the way TCP payloads arrive (not block-aligned,
   so the partial-block path runs too), then finished.  Throughput is the
   best of several runs and depends on the host; minor words per MiB are a
   deterministic count (the 40-character digest is the only allocation). *)
let sha1_bench r =
  Bench_util.header "sha1: streaming kernel throughput and allocation";
  let module S = Mini_bro.Sha1 in
  let mib = 8 and seg = 1460 in
  let n = mib lsl 20 in
  let msg = Bytes.init n (fun i -> Char.unsafe_chr (((i * 7) + 3) land 255)) in
  let hasher init reset feed_bytes finish =
    let c = init () in
    fun () ->
      reset c;
      let pos = ref 0 in
      while !pos < n do
        let k = min seg (n - !pos) in
        feed_bytes c msg !pos k;
        pos := !pos + k
      done;
      finish c
  in
  let hash = hasher S.init S.reset S.feed_bytes S.finish in
  let hash_portable = S.Portable.(hasher init reset feed_bytes finish) in
  let digest = hash () in
  let agree = digest = hash_portable () in
  let words_per_mib =
    Bench_util.alloc_words (fun () -> ignore (Sys.opaque_identity (hash ()))) /. float_of_int mib
  in
  let mb_per_s hash =
    let _, ns = Bench_util.best_of ~n:5 hash in
    float_of_int n /. 1e6 /. (Int64.to_float ns /. 1e9)
  in
  let mb = mb_per_s hash and mb_portable = mb_per_s hash_portable in
  Printf.printf "%d MiB in %d-byte segments (digest %s):\n" mib seg digest;
  Printf.printf "  kernel:            %8s\n" S.kernel;
  Printf.printf "  throughput:        %8.1f MB/s (best of 5)\n" mb;
  Printf.printf "  portable kernel:   %8.1f MB/s (best of 5)\n" mb_portable;
  Printf.printf "  kernels agree:     %8b\n" agree;
  Printf.printf "  minor words / MiB: %8.2f\n" words_per_mib;
  R.text r "sha1_kernel" S.kernel;
  R.num r ~unit_:"MB/s" "sha1_mb_per_s" mb;
  R.num r ~unit_:"MB/s" "sha1_portable_mb_per_s" mb_portable;
  R.num r ~unit_:"" "sha1_kernels_agree" (if agree then 1. else 0.);
  R.num r ~unit_:"words/MiB" "sha1_minor_words_per_mib" words_per_mib

(* ---- Hbytes allocation micro-benchmark ----------------------------------- *)

(* The whole-window fast path in [Hbytes.to_string]/[Hbytes.sub] memoizes
   the copy; token matching and bytes equality hit it constantly.  Measure
   the cached path against the interior copy it avoids, and report the
   per-call minor allocation to show the cached path is allocation-free. *)
let hbytes_alloc_bench () =
  Bench_util.header "hbytes: whole-window string extraction vs interior copy";
  let module Hb = Hilti_types.Hbytes in
  let payload = String.make 4096 'x' in
  let frozen = Hb.of_string payload in
  Hb.freeze frozen;
  let a = Hb.begin_ frozen and b = Hb.end_ frozen in
  let a1 = Hb.advance a 1 in
  let bytes_per_call f =
    (* A 4 KiB copy goes straight to the major heap, which
       [Bench_util.alloc_bytes] counts too. *)
    let n = 10_000 in
    Bench_util.alloc_bytes (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done)
    /. float_of_int n
  in
  let w_cached = bytes_per_call (fun () -> Hb.to_string frozen) in
  let w_whole = bytes_per_call (fun () -> Hb.sub a b) in
  let w_interior = bytes_per_call (fun () -> Hb.sub a1 b) in
  Printf.printf "allocated bytes/call on a frozen 4 KiB object:\n";
  Printf.printf "  to_string (cached):        %8.1f\n" w_cached;
  Printf.printf "  sub whole window (cached): %8.1f\n" w_whole;
  Printf.printf "  sub interior (copies):     %8.1f\n" w_interior;
  assert (w_cached < 8.0 && w_whole < 8.0);
  assert (w_interior > 4096.0);
  let results =
    Bench_util.bechamel_run
      [ ("hbytes to_string 4KB cached", fun () -> ignore (Hb.to_string frozen));
        ("hbytes sub whole 4KB cached", fun () -> ignore (Hb.sub a b));
        ("hbytes sub interior 4KB copy", fun () -> ignore (Hb.sub a1 b)) ]
  in
  List.iter (fun (name, est) -> Printf.printf "  %-28s %10.1f ns\n" name est) results

let run () =
  Bench_util.header "§5 fiber micro-benchmark";
  let switches = fiber_switch_rate () in
  let cycles = fiber_cycle_rate () in
  Printf.printf "context switches between existing fibers: %.1f M/sec (paper: ~18 M/sec via setcontext)\n"
    (switches /. 1e6);
  Printf.printf "create-run-delete fiber cycles:           %.1f M/sec (paper: ~5 M/sec)\n"
    (cycles /. 1e6);
  (* Core runtime structures under Bechamel. *)
  let re = Regexp.compile_one "[a-z]+[0-9]+" in
  let map : (string, int) Exp_map.t = Exp_map.create () in
  for i = 0 to 999 do
    Exp_map.insert map (string_of_int i) i
  done;
  let timers = Timer_mgr.create () in
  let cls = Classifier.create 2 in
  for i = 0 to 99 do
    let net =
      Hilti_types.Network.of_string (Printf.sprintf "10.%d.0.0/16" (i mod 250))
    in
    Classifier.add cls
      [| Classifier.field_of_network net; Classifier.wildcard |]
      i
  done;
  Classifier.compile cls;
  let key =
    [| Classifier.key_of_addr (Hilti_types.Addr.of_string "10.42.1.1");
       Classifier.key_of_addr (Hilti_types.Addr.of_string "10.0.0.1") |]
  in
  let counter = ref 0 in
  let results =
    Bench_util.bechamel_run
      [ ("regexp match 16B", fun () -> ignore (Regexp.match_anchored re "abcdef123456zz99" ~pos:0));
        ("map find hit", fun () -> ignore (Exp_map.find_opt map "500"));
        ("map insert/remove", fun () ->
            incr counter;
            let k = string_of_int (1000 + (!counter land 1023)) in
            Exp_map.insert map k 1;
            Exp_map.remove map k);
        ("classifier get (100 rules)", fun () -> ignore (Classifier.get cls key));
        ("timer schedule+fire", fun () ->
            let fired = ref false in
            ignore (Timer_mgr.schedule_in timers (fun () -> fired := true)
                      (Hilti_types.Interval_ns.of_ns 1L));
            ignore (Timer_mgr.advance_by timers (Hilti_types.Interval_ns.of_secs 1))) ]
  in
  Printf.printf "\nruntime primitives (Bechamel, ns/op):\n";
  List.iter (fun (name, est) -> Printf.printf "  %-28s %10.1f ns\n" name est) results;
  print_newline ();
  hbytes_alloc_bench ();
  let r =
    R.create "micro"
      ~gates:
        (alloc_count_gates @ frame_gates @ dns_alloc_gates @ http_alloc_gates @ http_driver_gates
       @ dns_pac_gates
       @ dns_script_gates
       @ glue_gates @ interp_state_gates @ exp_state_gates @ key_fw_gates @ sha1_gates
       @ profiler_window_gates)
  in
  R.num r ~unit_:"B/txn" "dns_script_alloc_bytes_per_txn_before" dns_script_alloc_before;
  List.iter
    (fun bench ->
      print_newline ();
      bench r)
    [ alloc_count_bench;
      frame_bytes_bench;
      fib_words_bench;
      dns_alloc_bench;
      http_alloc_bench;
      http_driver_bench;
      dns_pac_bench;
      (fun r -> dns_script_bench r Mini_bro.Bro_engine.Interpreted);
      (fun r -> dns_script_bench r ~all_scripts:true Mini_bro.Bro_engine.Interpreted);
      (fun r -> dns_script_bench r Mini_bro.Bro_engine.Compiled);
      exp_state_bench;
      key_fw_bench;
      glue_bench;
      profiler_window_bench;
      sha1_bench ];
  r
