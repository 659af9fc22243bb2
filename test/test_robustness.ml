(* Fail-safe processing of untrusted input (§2 "Robust & Secure
   Execution", §7): whatever bytes arrive, the pipeline must neither
   crash nor corrupt state — malformed input degrades to "no events". *)

open Hilti_analyzers
open Hilti_net

let silent_sink = Events.null_sink

let frames_of_garbage seed n =
  let rng = Hilti_traces.Rng.create seed in
  List.init n (fun i ->
      let len = Hilti_traces.Rng.int rng 120 in
      let data = String.init len (fun _ -> Char.chr (Hilti_traces.Rng.int rng 256)) in
      { Pcap.ts = Hilti_types.Time_ns.of_secs (1000 + i); orig_len = len; data })

let test_http_driver_survives_garbage () =
  let records = frames_of_garbage 1 300 in
  let stats = Driver.run_http_src ~kind:Driver.Http_std ~sink:silent_sink (Pcap.iosrc_of_records records) in
  Alcotest.(check int) "saw all packets" 300 stats.Driver.packets;
  let stats2 =
    Driver.run_http_src ~kind:(Driver.Http_pac (Http_pac.load ())) ~sink:silent_sink
      (Pcap.iosrc_of_records records)
  in
  Alcotest.(check int) "pac too" 300 stats2.Driver.packets

let test_dns_driver_survives_garbage () =
  let records = frames_of_garbage 2 300 in
  ignore
    (Driver.run_dns_src ~kind:Driver.Dns_std ~sink:silent_sink
       (Pcap.iosrc_of_records records));
  ignore
    (Driver.run_dns_src ~kind:(Driver.Dns_pac (Dns_pac.load ())) ~sink:silent_sink
       (Pcap.iosrc_of_records records))

(* Valid ethernet/IP/TCP envelopes carrying garbage payloads on [dst_port]:
   the reassembler and parsers see hostile but well-framed data. *)
let hostile_tcp_records ?(dst_port = 80) seed n =
  let rng = Hilti_traces.Rng.create seed in
  let open Hilti_types in
  List.init n (fun i ->
      let src = Addr.of_ipv4_octets 10 66 (i mod 7) 1 in
      let dst = Addr.of_ipv4_octets 10 77 0 1 in
      let payload =
        String.init (Hilti_traces.Rng.int rng 200) (fun _ ->
            Char.chr (Hilti_traces.Rng.int rng 256))
      in
      let flags =
        match Hilti_traces.Rng.int rng 5 with
        | 0 -> Tcp.flag_syn
        | 1 -> Tcp.flag_fin lor Tcp.flag_ack
        | 2 -> Tcp.flag_rst
        | _ -> Tcp.flag_ack
      in
      let data =
        Packet.encode_tcp ~src ~dst ~src_port:(1024 + (i mod 100)) ~dst_port
          ~seq:(Int32.of_int (Hilti_traces.Rng.int rng 1_000_000))
          ~ack:0l ~flags payload
      in
      { Pcap.ts = Hilti_types.Time_ns.of_secs (2000 + i); orig_len = String.length data; data })

let test_hostile_tcp_streams () =
  let records = hostile_tcp_records 3 400 in
  let events = ref 0 in
  let sink = { Events.raise_event = (fun _ _ -> incr events); set_time = (fun _ -> ()) } in
  let s1 = Driver.run_http_src ~kind:Driver.Http_std ~sink (Pcap.iosrc_of_records records) in
  let e1 = !events in
  events := 0;
  let s2 =
    Driver.run_http_src ~kind:(Driver.Http_pac (Http_pac.load ())) ~sink
      (Pcap.iosrc_of_records records)
  in
  Alcotest.(check int) "std processed everything" 400 s1.Driver.packets;
  Alcotest.(check int) "pac processed everything" 400 s2.Driver.packets;
  (* Only lifecycle events (bro_init/established/remove/done), no HTTP
     transactions conjured out of noise. *)
  Alcotest.(check bool) "no http events from noise (std)" true
    (e1 <= (2 * s1.Driver.connections) + 2 + s1.Driver.connections)

(* Random segment storms through the evt/SSH analyzer, on port 80 (flows
   tracked but not parsed) and on port 22 (parsed, and rejected). *)
let test_evt_survives_garbage () =
  let cfg = Evt.parse Test_evt.ssh_evt in
  let loaded = Evt.load cfg (Binpacxx.Grammars.parse_ssh ()) in
  let lifecycle =
    [ "bro_init"; "bro_done"; "connection_established"; "connection_state_remove" ]
  in
  let run records =
    let other = ref [] in
    let sink =
      {
        Events.raise_event =
          (fun name _ -> if not (List.mem name lifecycle) then other := name :: !other);
        set_time = (fun _ -> ());
      }
    in
    let errors = Hilti_obs.Metrics.counter_value Driver.m_parse_errors in
    let stats =
      Hilti_obs.Metrics.with_enabled true (fun () ->
          Driver.run_tcp_src ~parsers:(Driver.evt_parsers loaded) ~sink
            (Pcap.iosrc_of_records records))
    in
    (stats, !other, Hilti_obs.Metrics.counter_value Driver.m_parse_errors - errors)
  in
  let stats, other, errors = run (hostile_tcp_records 4 100) in
  (* 100 records, each from its own source port: 100 flows, none on 22. *)
  Alcotest.(check int) "every port-80 flow tracked" 100 stats.Driver.connections;
  Alcotest.(check (list string)) "only lifecycle events" [] other;
  Alcotest.(check int) "no parse errors on unparsed flows" 0 errors;
  let stats, other, errors = run (hostile_tcp_records ~dst_port:22 4 100) in
  Alcotest.(check int) "saw all port-22 packets" 100 stats.Driver.packets;
  Alcotest.(check (list string)) "no banners from noise" [] other;
  Alcotest.(check bool) "noise rejected as parse errors" true (errors > 0)

(* The VM itself: calling with wrong arity/types must raise catchable
   errors, not crash. *)
let test_vm_bad_host_args () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
  let v = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local "x"; Builder.const_int 1 ] in
  Builder.return_result b v;
  let api = Hilti_vm.Host_api.compile [ m ] in
  (* Wrong type: Int expected. *)
  (match Hilti_vm.Host_api.call api "T::f" [ Hilti_vm.Value.String "not an int" ] with
  | exception Hilti_vm.Value.Hilti_error e ->
      Alcotest.(check string) "TypeError" "Hilti::TypeError" e.Hilti_vm.Value.ename
  | _ -> Alcotest.fail "type confusion accepted");
  (* Unknown function name. *)
  match Hilti_vm.Host_api.call api "T::nope" [] with
  | exception Hilti_vm.Vm.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unknown entry point accepted"

let suite =
  [ Alcotest.test_case "http driver vs raw garbage" `Quick test_http_driver_survives_garbage;
    Alcotest.test_case "dns driver vs raw garbage" `Quick test_dns_driver_survives_garbage;
    Alcotest.test_case "hostile framed TCP streams" `Quick test_hostile_tcp_streams;
    Alcotest.test_case "evt analyzer vs noise" `Quick test_evt_survives_garbage;
    Alcotest.test_case "VM rejects bad host calls" `Quick test_vm_bad_host_args ]
