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
  loaded.Evt.sink <- Events.engine_sink engine;
  (* Both sides of a single SSH session, as in Fig. 7(d). *)
  Alcotest.(check bool) "client banner parses" true
    (Evt.parse_input loaded "SSH-1.99-OpenSSH_3.9p1\r\n");
  Alcotest.(check bool) "server banner parses" true
    (Evt.parse_input loaded "SSH-2.0-OpenSSH_3.8.1p1\r\n");
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
  loaded.Evt.sink <-
    { Events.raise_event = (fun _ _ -> incr fired); set_time = (fun _ -> ()) };
  Alcotest.(check bool) "junk rejected" false
    (Evt.parse_input loaded "HTTP/1.1 200 OK\r\n");
  Alcotest.(check int) "no events from junk" 0 !fired

let test_evt_over_trace () =
  (* The full Fig. 7(d) pipeline: TCP trace -> reassembly -> BinPAC++
     parser -> ssh_banner events -> Bro handler. *)
  let trace = Hilti_traces.Ssh_gen.generate
      { Hilti_traces.Ssh_gen.default with sessions = 5; seed = 11 } in
  let cfg = Evt.parse ssh_evt in
  let loaded = Evt.load cfg (Binpacxx.Grammars.parse_ssh ()) in
  let engine = Mini_bro.Bro_engine.load Mini_bro.Bro_engine.Interpreted fig7_script in
  let printed = ref [] in
  Mini_bro.Bro_engine.set_print_sink engine (fun s -> printed := s :: !printed);
  let stats =
    Driver.run_evt_src ~loaded ~sink:(Events.engine_sink engine)
      (Hilti_net.Pcap.iosrc_of_records trace.Hilti_traces.Ssh_gen.records)
  in
  Alcotest.(check int) "5 connections" 5 stats.Driver.connections;
  Alcotest.(check int) "two banners per session" 10 stats.Driver.events;
  (* Every printed line corresponds to a generated banner. *)
  let expected =
    List.concat_map
      (fun (s : Hilti_traces.Ssh_gen.session) ->
        let fmt b =
          (* "SSH-1.99-OpenSSH_x" -> "OpenSSH_x, 1.99" *)
          match String.split_on_char '-' b with
          | "SSH" :: v :: rest -> String.concat "-" rest ^ ", " ^ v
          | _ -> b
        in
        [ fmt s.Hilti_traces.Ssh_gen.client_banner;
          fmt s.Hilti_traces.Ssh_gen.server_banner ])
      trace.Hilti_traces.Ssh_gen.sessions_meta
  in
  Alcotest.(check (list string)) "banner contents match ground truth"
    (List.sort compare expected)
    (List.sort compare !printed)

let suite =
  [ Alcotest.test_case "evt file parses (Fig. 7b)" `Quick test_evt_parse;
    Alcotest.test_case "evt over a TCP trace" `Quick test_evt_over_trace;
    Alcotest.test_case "Fig. 7(d) output, interpreted" `Quick test_fig7_output_interpreted;
    Alcotest.test_case "Fig. 7(d) output, compiled" `Quick test_fig7_output_compiled;
    Alcotest.test_case "junk raises no events" `Quick test_non_ssh_rejected ]
