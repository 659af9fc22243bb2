(* The Bro/BinPAC++ interface of Fig. 7: grammar + event configuration +
   Bro event handler reproduce the figure's output end to end. *)

open Hilti_analyzers

let ssh_evt =
  {|
grammar ssh.pac2;           # BinPAC++ grammar to compile.

# Define the new parser.
protocol analyzer SSH over TCP:
    parse with SSH::Banner, # Top-level unit.
    port 22/tcp;            # Port to trigger parser.

# For each SSH::Banner, trigger an ssh_banner() event.
on SSH::Banner
    -> event ssh_banner(self.version, self.software);
|}

let test_evt_parse () =
  let cfg = Evt.parse ssh_evt in
  Alcotest.(check string) "analyzer" "SSH" cfg.Evt.analyzer;
  Alcotest.(check string) "top unit" "Banner" cfg.Evt.top_unit;
  Alcotest.(check string) "port" "22/tcp" (Hilti_types.Port.to_string cfg.Evt.port);
  match cfg.Evt.bindings with
  | [ b ] ->
      Alcotest.(check string) "event" "ssh_banner" b.Evt.event;
      Alcotest.(check (list string)) "args" [ "version"; "software" ] b.Evt.args
  | _ -> Alcotest.fail "expected one binding"

(* Fig. 7(c)/(d): the Bro handler prints software, version for each side
   of an SSH session. *)
let fig7_script =
  Mini_bro.Bro_parse.parse
    {|
event ssh_banner(version: string, software: string) {
    print software, version;
}
|}

let run_fig7 mode =
  let cfg = Evt.parse ssh_evt in
  let loaded = Evt.load cfg (Binpacxx.Grammars.parse_ssh ()) in
  let engine = Mini_bro.Bro_engine.load mode fig7_script in
  let out = Buffer.create 64 in
  Mini_bro.Bro_engine.set_print_sink engine (fun s -> Buffer.add_string out (s ^ "\n"));
  let sink = Events.engine_sink engine in
  (* Both sides of a single SSH session, as in Fig. 7(d). *)
  Alcotest.(check bool) "client banner parses" true
    (Evt.parse_input loaded ~sink "SSH-1.99-OpenSSH_3.9p1\r\n");
  Alcotest.(check bool) "server banner parses" true
    (Evt.parse_input loaded ~sink "SSH-2.0-OpenSSH_3.8.1p1\r\n");
  Buffer.contents out

let test_fig7_output_interpreted () =
  Alcotest.(check string) "Fig. 7(d) output"
    "OpenSSH_3.9p1, 1.99\nOpenSSH_3.8.1p1, 2.0\n"
    (run_fig7 Mini_bro.Bro_engine.Interpreted)

let test_fig7_output_compiled () =
  (* compile_scripts=T: same output through the HILTI-compiled handler. *)
  Alcotest.(check string) "Fig. 7(d) output, compiled scripts"
    "OpenSSH_3.9p1, 1.99\nOpenSSH_3.8.1p1, 2.0\n"
    (run_fig7 Mini_bro.Bro_engine.Compiled)

let test_non_ssh_rejected () =
  let cfg = Evt.parse ssh_evt in
  let loaded = Evt.load cfg (Binpacxx.Grammars.parse_ssh ()) in
  let fired = ref 0 in
  let sink = { Events.raise_event = (fun _ _ -> incr fired); set_time = (fun _ -> ()) } in
  Alcotest.(check bool) "junk rejected" false
    (Evt.parse_input loaded ~sink "HTTP/1.1 200 OK\r\n");
  Alcotest.(check int) "no events from junk" 0 !fired

(* Count events by name on their way into [sink]. *)
let counting sink =
  let counts = Hashtbl.create 8 in
  ( {
      sink with
      Events.raise_event =
        (fun name args ->
          Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name));
          sink.Events.raise_event name args);
    },
    fun name -> Option.value ~default:0 (Hashtbl.find_opt counts name) )

(* "SSH-1.99-OpenSSH_x" -> "OpenSSH_x, 1.99", the line the handler prints. *)
let printed_banner b =
  match String.split_on_char '-' b with
  | "SSH" :: v :: rest -> String.concat "-" rest ^ ", " ^ v
  | _ -> b

(* The full Fig. 7(d) pipeline over [records]: TCP trace -> reassembly ->
   streamed BinPAC++ sessions -> ssh_banner events -> Bro handler. *)
let run_evt_trace records =
  let loaded = Evt.load (Evt.parse ssh_evt) (Binpacxx.Grammars.parse_ssh ()) in
  let engine = Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Interpreted fig7_script in
  let printed = ref [] in
  Mini_bro.Bro_engine.set_print_sink engine (fun s -> printed := s :: !printed);
  let sink, count = counting (Events.engine_sink engine) in
  let stats =
    Driver.run_tcp_src ~parsers:(Driver.evt_parsers loaded) ~sink
      (Hilti_net.Pcap.iosrc_of_records records)
  in
  (stats, count, List.sort compare !printed)

let test_evt_over_trace () =
  let trace = Hilti_traces.Ssh_gen.generate
      { Hilti_traces.Ssh_gen.default with sessions = 5; seed = 11 } in
  let stats, count, printed = run_evt_trace trace.Hilti_traces.Ssh_gen.records in
  Alcotest.(check int) "5 connections" 5 stats.Driver.connections;
  Alcotest.(check int) "two banners per session" 10 (count "ssh_banner");
  Alcotest.(check int) "one teardown per session" 5 (count "connection_state_remove");
  (* Every printed line corresponds to a generated banner. *)
  let expected =
    List.concat_map
      (fun (s : Hilti_traces.Ssh_gen.session) ->
        [ printed_banner s.Hilti_traces.Ssh_gen.client_banner;
          printed_banner s.Hilti_traces.Ssh_gen.server_banner ])
      trace.Hilti_traces.Ssh_gen.sessions_meta
  in
  Alcotest.(check (list string)) "banner contents match ground truth"
    (List.sort compare expected) printed

(* Sessions whose banners arrive [chunk] bytes per segment, the two
   directions' segments interleaved: each parse suspends mid-banner and
   resumes when its next segment is reassembled. *)
let split_banner_records ~chunk banners =
  let open Hilti_types in
  let ts = ref (Time_ns.of_secs 1_400_000_000) in
  List.concat
    (List.mapi
       (fun idx (cb, sb) ->
         let client = Addr.of_ipv4_octets 10 9 0 (1 + idx) in
         let server = Addr.of_ipv4_octets 192 168 9 1 in
         let cport = 41000 + idx in
         let seg (from_client, seq, flags, data) =
           ts := Time_ns.add !ts 1_000L;
           let src, dst, sp, dp =
             if from_client then (client, server, cport, 22)
             else (server, client, 22, cport)
           in
           let frame =
             Hilti_net.Packet.encode_tcp ~src ~dst ~src_port:sp ~dst_port:dp ~seq
               ~ack:0l ~flags data
           in
           { Hilti_net.Pcap.ts = !ts; orig_len = String.length frame; data = frame }
         in
         let pieces ~from_client ~isn data =
           List.init
             ((String.length data + chunk - 1) / chunk)
             (fun k ->
               let off = k * chunk in
               ( from_client,
                 Int32.add isn (Int32.of_int off),
                 Hilti_net.Tcp.flag_ack,
                 String.sub data off (min chunk (String.length data - off)) ))
         in
         let rec interleave a b =
           match (a, b) with
           | x :: a, y :: b -> x :: y :: interleave a b
           | rest, [] | [], rest -> rest
         in
         let fin ~from_client ~isn data =
           ( from_client,
             Int32.add isn (Int32.of_int (String.length data)),
             Hilti_net.Tcp.(flag_fin lor flag_ack),
             "" )
         in
         List.map seg
           ([ (true, 100l, Hilti_net.Tcp.flag_syn, "");
              (false, 500l, Hilti_net.Tcp.(flag_syn lor flag_ack), "") ]
           @ interleave
               (pieces ~from_client:false ~isn:501l sb)
               (pieces ~from_client:true ~isn:101l cb)
           @ [ fin ~from_client:true ~isn:101l cb; fin ~from_client:false ~isn:501l sb ]))
       banners)

let test_evt_split_banners () =
  let banners =
    [ ("SSH-2.0-OpenSSH_6.1\r\n", "SSH-1.99-OpenSSH_3.9p1\r\n");
      ("SSH-1.99-PuTTY_Release_0.62\r\n", "SSH-2.0-dropbear_2012.55\r\n");
      ("SSH-2.0-libssh-0.5.2\r\n", "SSH-2.0-OpenSSH_5.3\r\n") ]
  in
  let stats, count, printed = run_evt_trace (split_banner_records ~chunk:3 banners) in
  Alcotest.(check int) "3 connections" 3 stats.Driver.connections;
  Alcotest.(check int) "every banner raised" 6 (count "ssh_banner");
  let expected =
    List.concat_map
      (fun (cb, sb) -> [ printed_banner (String.trim cb); printed_banner (String.trim sb) ])
      banners
  in
  Alcotest.(check (list string)) "banners reassembled across segments"
    (List.sort compare expected) printed

(* Two bindings on one hook with the same event name: each raises its own
   arguments, in binding order. *)
let test_shared_event_name () =
  let cfg =
    Evt.parse
      {|
grammar ssh.pac2;
protocol analyzer SSH over TCP: parse with SSH::Banner, port 22/tcp;
on SSH::Banner -> event e(self.version);
on SSH::Banner -> event e(self.software);
|}
  in
  let loaded = Evt.load cfg (Binpacxx.Grammars.parse_ssh ()) in
  let raised = ref [] in
  let sink =
    {
      Events.raise_event =
        (fun name args ->
          raised :=
            (name ^ "(" ^ String.concat ", " (List.map Mini_bro.Bro_val.to_string args) ^ ")")
            :: !raised);
      set_time = (fun _ -> ());
    }
  in
  Alcotest.(check bool) "banner parses" true
    (Evt.parse_input loaded ~sink "SSH-2.0-OpenSSH_6.1\r\n");
  Alcotest.(check (list string)) "each binding's arguments"
    [ "e(2.0)"; "e(OpenSSH_6.1)" ] (List.rev !raised)

(* No UDP runner exists for .evt analyzers, so a UDP one is refused
   instead of being run on TCP flows. *)
let test_udp_rejected () =
  let evt ~over ~port =
    Printf.sprintf
      "grammar ssh.pac2;\nprotocol analyzer SSH over %s: parse with SSH::Banner, port %s;\n"
      over port
  in
  List.iter
    (fun (over, port) ->
      match Evt.parse (evt ~over ~port) with
      | exception Evt.Parse_error _ -> ()
      | _ -> Alcotest.failf "over %s, port %s accepted" over port)
    [ ("UDP", "22/udp"); ("UDP", "22/tcp"); ("TCP", "22/udp") ];
  ignore (Evt.parse (evt ~over:"TCP" ~port:"22/tcp"))

let suite =
  [ Alcotest.test_case "evt file parses (Fig. 7b)" `Quick test_evt_parse;
    Alcotest.test_case "evt over a TCP trace" `Quick test_evt_over_trace;
    Alcotest.test_case "evt banners split across segments" `Quick test_evt_split_banners;
    Alcotest.test_case "bindings sharing an event name" `Quick test_shared_event_name;
    Alcotest.test_case "UDP analyzers rejected" `Quick test_udp_rejected;
    Alcotest.test_case "Fig. 7(d) output, interpreted" `Quick test_fig7_output_interpreted;
    Alcotest.test_case "Fig. 7(d) output, compiled" `Quick test_fig7_output_compiled;
    Alcotest.test_case "junk raises no events" `Quick test_non_ssh_rejected ]
