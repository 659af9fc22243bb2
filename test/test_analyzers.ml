(* The analyzer layer in isolation: the standard HTTP state machine, the
   standard DNS decoder, and the event parity between standard and
   BinPAC++ analyzers on crafted inputs. *)

open Hilti_analyzers

(* ---- Http_std: the manual state machine -------------------------------------- *)

let collect_requests feeds =
  let got = ref [] in
  let p =
    Http_std.create ~is_request:true
      ~on_request:(fun r -> got := r :: !got)
      ~on_reply:(fun _ -> ())
  in
  List.iter (Http_std.feed p) feeds;
  Http_std.eof p;
  List.rev !got

let collect_replies feeds =
  let got = ref [] in
  let p =
    Http_std.create ~is_request:false
      ~on_request:(fun _ -> ())
      ~on_reply:(fun r -> got := r :: !got)
  in
  List.iter (Http_std.feed p) feeds;
  Http_std.eof p;
  List.rev !got

let test_http_std_request () =
  match collect_requests [ "GET /x HTTP/1.1\r\nHost: h.example\r\n\r\n" ] with
  | [ r ] ->
      Alcotest.(check string) "method" "GET" r.Events.method_;
      Alcotest.(check string) "uri" "/x" r.Events.uri;
      Alcotest.(check string) "version" "1.1" r.Events.version;
      Alcotest.(check string) "host" "h.example" r.Events.host
  | rs -> Alcotest.failf "%d requests" (List.length rs)

let test_http_std_split_across_feeds () =
  (* The state machine resumes mid-header, mid-body, everywhere. *)
  let msg = "POST /p HTTP/1.1\r\nContent-Length: 5\r\nHost: h\r\n\r\nhello" in
  let feeds = List.init (String.length msg) (fun i -> String.make 1 msg.[i]) in
  match collect_requests feeds with
  | [ r ] -> Alcotest.(check string) "method" "POST" r.Events.method_
  | rs -> Alcotest.failf "%d requests" (List.length rs)

let test_http_std_pipelined () =
  let msgs =
    "GET /1 HTTP/1.1\r\nHost: a\r\n\r\nGET /2 HTTP/1.1\r\nHost: b\r\n\r\n"
  in
  match collect_requests [ msgs ] with
  | [ r1; r2 ] ->
      Alcotest.(check string) "first" "/1" r1.Events.uri;
      Alcotest.(check string) "second" "/2" r2.Events.uri
  | rs -> Alcotest.failf "%d requests" (List.length rs)

let test_http_std_chunked_reply () =
  let msg =
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Type: a/b\r\n\r\n\
     3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
  in
  match collect_replies [ msg ] with
  | [ r ] ->
      Alcotest.(check int) "code" 200 r.Events.code;
      Alcotest.(check int) "body len" 5 r.Events.body_len;
      Alcotest.(check string) "sha of abcde" (Mini_bro.Sha1.digest "abcde") r.Events.body_sha1
  | rs -> Alcotest.failf "%d replies" (List.length rs)

let test_http_std_until_close () =
  let msg = "HTTP/1.0 200 OK\r\nConnection: close\r\n\r\neverything until eof" in
  match collect_replies [ msg ] with
  | [ r ] -> Alcotest.(check int) "body len" 20 r.Events.body_len
  | rs -> Alcotest.failf "%d replies" (List.length rs)

let test_http_std_rejects_junk () =
  Alcotest.(check int) "no events from junk" 0
    (List.length (collect_requests [ "\x00\x01\x02 this is not HTTP\r\n\r\n" ]))

let test_http_std_206_divergence () =
  let msg = "HTTP/1.1 206 Partial Content\r\nContent-Type: t/x\r\nContent-Length: 3\r\n\r\nabc" in
  match collect_replies [ msg ] with
  | [ r ] ->
      Alcotest.(check string) "mime withheld on 206" "-" r.Events.mime;
      Alcotest.(check int) "body metadata withheld" 0 r.Events.body_len
  | rs -> Alcotest.failf "%d replies" (List.length rs)

let test_http_std_until_close_bounded () =
  (* A 16 MiB close-delimited reply in 1460-byte segments: the direction
     keeps no body, only the running hash, so neither the stream buffer
     nor the major heap grows with the body. *)
  let seg_len = 1460 and body_len = 16 lsl 20 in
  let segment i =
    let n = min seg_len (body_len - (i * seg_len)) in
    String.init n (fun j -> Char.chr (((i * 31) + j) land 0xff))
  in
  let nsegs = (body_len + seg_len - 1) / seg_len in
  let got = ref [] in
  let p =
    Http_std.create ~is_request:false
      ~on_request:(fun _ -> ())
      ~on_reply:(fun r -> got := r :: !got)
  in
  Gc.compact ();
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  Http_std.feed p "HTTP/1.0 200 OK\r\nConnection: close\r\n\r\n";
  for i = 0 to nsegs - 1 do
    Http_std.feed p (segment i);
    if Http_std.retained p >= seg_len then
      Alcotest.failf "retained %d bytes after segment %d" (Http_std.retained p) i
  done;
  Http_std.eof p;
  let growth = ((Gc.quick_stat ()).Gc.heap_words - heap0) * (Sys.word_size / 8) in
  if growth >= body_len / 4 then
    Alcotest.failf "major heap grew by %d bytes for a %d-byte body" growth body_len;
  let body = String.concat "" (List.init nsegs segment) in
  match !got with
  | [ r ] ->
      Alcotest.(check int) "body len" body_len r.Events.body_len;
      Alcotest.(check string) "body sha1" (Mini_bro.Sha1.digest body) r.Events.body_sha1
  | rs -> Alcotest.failf "%d replies" (List.length rs)

let test_http_std_duplicate_headers () =
  (* The first occurrence of a repeated header wins. *)
  let msg =
    "HTTP/1.1 200 OK\r\nContent-Type: a/first\r\nContent-Length: 3\r\n\
     Content-Type: b/second\r\nContent-Length: 5\r\n\r\nabcde"
  in
  match collect_replies [ msg ] with
  | [ r ] ->
      Alcotest.(check string) "first content-type" "a/first" r.Events.mime;
      Alcotest.(check int) "first content-length" 3 r.Events.body_len;
      Alcotest.(check string) "sha of abc" (Mini_bro.Sha1.digest "abc") r.Events.body_sha1
  | rs -> Alcotest.failf "%d replies" (List.length rs)

(* ---- Dns_std ----------------------------------------------------------------------- *)

let test_dns_std_rejects_crud () =
  List.iter
    (fun payload ->
      match Dns_std.parse payload with
      | exception Dns_std.Bad_dns _ -> ()
      | _ -> Alcotest.failf "parsed %d junk bytes" (String.length payload))
    [ ""; "short"; String.make 12 '\xff' ]

let test_dns_std_compression_loop_guard () =
  (* A name that points at itself must fail, not loop forever. *)
  let b = Bytes.make 16 '\x00' in
  Bytes.set_uint16_be b 4 1;  (* qdcount=1 *)
  (* qname at offset 12: pointer to offset 12 *)
  Bytes.set b 12 '\xc0';
  Bytes.set b 13 '\x0c';
  match Dns_std.parse (Bytes.to_string b) with
  | exception Dns_std.Bad_dns msg ->
      Alcotest.(check bool) "mentions loop" true (Astring_contains.contains msg "loop")
  | _ -> Alcotest.fail "self-pointing name accepted"

(* ---- Event parity between std and pac on crafted sessions --------------------------- *)

(* A four-segment session (handshake, one payload each way) through a
   stream runner, returning the raised events. *)
let run_session_events ~server_port run payload_c2s payload_s2c =
  let open Hilti_types in
  let src = Addr.of_string "10.0.0.1" and dst = Addr.of_string "10.0.0.2" in
  let seg ~from_client ~seq ~flags data =
    let sp, dp = if from_client then (5555, server_port) else (server_port, 5555) in
    let s, d = if from_client then (src, dst) else (dst, src) in
    Hilti_net.Packet.encode_tcp ~src:s ~dst:d ~src_port:sp ~dst_port:dp
      ~seq ~ack:0l ~flags data
  in
  let records =
    [ seg ~from_client:true ~seq:0l ~flags:Hilti_net.Tcp.flag_syn "";
      seg ~from_client:false ~seq:0l
        ~flags:(Hilti_net.Tcp.flag_syn lor Hilti_net.Tcp.flag_ack) "";
      seg ~from_client:true ~seq:1l ~flags:Hilti_net.Tcp.flag_ack payload_c2s;
      seg ~from_client:false ~seq:1l ~flags:Hilti_net.Tcp.flag_ack payload_s2c ]
    |> List.mapi (fun i data ->
           { Hilti_net.Pcap.ts = Time_ns.of_secs (1000 + i); orig_len = String.length data; data })
  in
  let events = ref [] in
  let sink =
    { Events.raise_event = (fun name args -> events := (name, List.map Mini_bro.Bro_val.to_string args) :: !events);
      set_time = (fun _ -> ()) }
  in
  ignore (run ~sink (Hilti_net.Pcap.iosrc_of_records records));
  List.rev !events

let run_http_session_events kind payload_c2s payload_s2c =
  run_session_events ~server_port:80
    (fun ~sink src -> Driver.run_http_src ~kind ~sink src)
    payload_c2s payload_s2c

let test_event_parity_http () =
  let c2s = "GET /same HTTP/1.1\r\nHost: parity\r\n\r\n" in
  let s2c = "HTTP/1.1 200 OK\r\nContent-Type: x/y\r\nContent-Length: 2\r\n\r\nhi" in
  let std = run_http_session_events Driver.Http_std c2s s2c in
  let pac = run_http_session_events (Driver.Http_pac (Http_pac.load ())) c2s s2c in
  Alcotest.(check bool) "identical event streams" true (std = pac);
  Alcotest.(check bool) "has http_request" true
    (List.exists (fun (n, _) -> n = "http_request") std);
  Alcotest.(check bool) "has http_reply" true
    (List.exists (fun (n, _) -> n = "http_reply") std)

let test_dns_event_parity () =
  let open Hilti_traces.Dns_gen in
  let msg =
    { id = 99; response = true; opcode = 0; rcode = 0; rd = true; ra = true;
      qname = "p.example.org"; qtype = 1;
      answers = [ { rname = "p.example.org"; rtype = 1; ttl = 60; rdata = `A (1, 2, 3, 4) } ];
      authority = [] }
  in
  let wire = encode_message msg in
  let std = Dns_std.to_reply (Dns_std.parse wire) in
  match Dns_pac.parse (Dns_pac.load ()) wire with
  | Dns_pac.Reply pac ->
      Alcotest.(check int) "id" std.Events.r_id pac.Events.r_id;
      Alcotest.(check (list string)) "answers" std.Events.answers pac.Events.answers;
      Alcotest.(check (list int)) "ttls" std.Events.ttls pac.Events.ttls
  | _ -> Alcotest.fail "pac did not parse reply"

(* ---- FTP PORT / 227 endpoints ------------------------------------------------------ *)

let endpoint = Alcotest.(option (pair string int))

let show_endpoint =
  Option.map (fun (a, p) -> (Hilti_types.Addr.to_string a, p))

let test_ftp_host_port_decimal_only () =
  Alcotest.check endpoint "PORT argument" (Some ("10.0.0.1", 1025))
    (show_endpoint (Driver.parse_host_port "10,0,0,1,4,1"));
  Alcotest.check endpoint "227 reply" (Some ("192.168.1.2", 51210))
    (show_endpoint (Driver.parse_pasv "Entering Passive Mode (192,168,1,2,200,10)."));
  (* OCaml integer literal syntax, signs, padding and out-of-range octets
     are not RFC 959 decimal. *)
  List.iter
    (fun arg ->
      Alcotest.check endpoint (arg ^ " rejected") None
        (show_endpoint (Driver.parse_host_port arg)))
    [ "0x7f,0,0,1,0,1_0"; "1_0,0,0,1,0,1"; "+1,0,0,1,0,1"; "0b1,0,0,1,0,1";
      "0o7,0,0,1,0,1"; "-1,0,0,1,0,1"; "256,0,0,1,0,1"; "0001,0,0,1,0,1";
      "1, 0,0,1,0,1"; "1,0,0,1,0"; "1,0,0,1,0,1,2"; "" ];
  (* Through the driver: only the decimal PORT announces a data endpoint. *)
  let ftp_data command =
    run_session_events ~server_port:21
      (fun ~sink src ->
        Driver.run_tcp_src ~parsers:(Driver.ftp_parsers Driver.Ftp_std) ~sink src)
      (command ^ "\r\n") "200 PORT command successful\r\n"
    |> List.filter (fun (name, _) -> name = "ftp_data")
    |> List.length
  in
  Alcotest.(check int) "hex PORT: no ftp_data" 0 (ftp_data "PORT 0x7f,0,0,1,0,1_0");
  Alcotest.(check int) "decimal PORT: one ftp_data" 1 (ftp_data "PORT 127,0,0,1,1,10")

let suite =
  [ Alcotest.test_case "http_std request" `Quick test_http_std_request;
    Alcotest.test_case "http_std byte-at-a-time" `Quick test_http_std_split_across_feeds;
    Alcotest.test_case "http_std pipelining" `Quick test_http_std_pipelined;
    Alcotest.test_case "http_std chunked" `Quick test_http_std_chunked_reply;
    Alcotest.test_case "http_std until-close" `Quick test_http_std_until_close;
    Alcotest.test_case "http_std rejects junk" `Quick test_http_std_rejects_junk;
    Alcotest.test_case "http_std 206 divergence (§6.4)" `Quick test_http_std_206_divergence;
    Alcotest.test_case "dns_std rejects crud" `Quick test_dns_std_rejects_crud;
    Alcotest.test_case "dns_std pointer-loop guard" `Quick test_dns_std_compression_loop_guard;
    Alcotest.test_case "HTTP event parity std/pac" `Quick test_event_parity_http;
    Alcotest.test_case "DNS event parity std/pac" `Quick test_dns_event_parity;
    Alcotest.test_case "ftp PORT/227 endpoints are decimal only" `Quick
      test_ftp_host_port_decimal_only;
    Alcotest.test_case "http_std 16 MiB until-close stays bounded" `Quick
      test_http_std_until_close_bounded;
    Alcotest.test_case "http_std duplicate headers: first wins" `Quick
      test_http_std_duplicate_headers ]
