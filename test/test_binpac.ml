(* BinPAC++ (§4): grammar parsing, HILTI code generation, and the three
   shipped grammars, driven both on complete input and incrementally
   through fibers (the suspend/resume workflow of §3.2). *)

open Binpacxx

let ssh_parser = lazy (Runtime.load (Grammars.parse_ssh ()))
let http_parser = lazy (Runtime.load (Grammars.parse_http ()))
let dns_parser = lazy (Runtime.load (Grammars.parse_dns ()))

let test_ssh_banner () =
  let p = Lazy.force ssh_parser in
  let st = Runtime.parse_string p ~unit_name:"Banner" "SSH-1.99-OpenSSH_3.9p1\r\n" in
  Alcotest.(check string) "version" "1.99" (Runtime.field_bytes st "version");
  Alcotest.(check string) "software" "OpenSSH_3.9p1" (Runtime.field_bytes st "software")

let test_ssh_incremental () =
  (* Feed the banner byte-group by byte-group; the parser suspends between
     feeds and completes on the last one (Fig. 7 usage over a live
     stream). *)
  let p = Lazy.force ssh_parser in
  let s = Runtime.session p ~unit_name:"Banner" in
  Alcotest.(check bool) "blocked at start" true (Runtime.status s = Runtime.Blocked);
  Alcotest.(check bool) "blocked after SSH-" true (Runtime.feed s "SSH-" = Runtime.Blocked);
  Alcotest.(check bool) "blocked after version" true (Runtime.feed s "2.0-Open" = Runtime.Blocked);
  ignore (Runtime.feed s "SSH_6.1");
  match Runtime.finish s with
  | Runtime.Done st ->
      Alcotest.(check string) "version" "2.0" (Runtime.field_bytes st "version");
      Alcotest.(check string) "software" "OpenSSH_6.1" (Runtime.field_bytes st "software")
  | Runtime.Blocked -> Alcotest.fail "still blocked"
  | Runtime.Failed e -> Alcotest.fail e

let test_ssh_parse_error () =
  let p = Lazy.force ssh_parser in
  match Runtime.parse_string p ~unit_name:"Banner" "HTTP/1.0 200 OK\r\n" with
  | exception Runtime.Parse_failed msg ->
      Alcotest.(check bool) "mentions ParseError" true
        (Astring_contains.contains msg "ParseError")
  | _ -> Alcotest.fail "junk accepted as SSH banner"

let http_request =
  "GET /index.html?x=1 HTTP/1.1\r\n\
   Host: www.example.com\r\n\
   User-Agent: test\r\n\
   \r\n"

let test_http_request () =
  let p = Lazy.force http_parser in
  let st = Runtime.parse_string p ~unit_name:"Request" http_request in
  let rl = Runtime.field_exn st "request" in
  Alcotest.(check string) "method" "GET" (Runtime.field_bytes rl "method");
  Alcotest.(check string) "uri" "/index.html?x=1" (Runtime.field_bytes rl "uri");
  let version = Runtime.field_exn rl "version" in
  Alcotest.(check string) "version" "1.1" (Runtime.field_bytes version "number");
  Alcotest.(check int) "headers" 2 (List.length (Runtime.field_list st "headers"))

let test_http_post_body () =
  let p = Lazy.force http_parser in
  let body = "key=value&k2=v2" in
  let msg =
    Printf.sprintf
      "POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let st = Runtime.parse_string p ~unit_name:"Request" msg in
  Alcotest.(check string) "body" body (Runtime.field_bytes st "body")

let test_http_chunked_reply () =
  let p = Lazy.force http_parser in
  let msg =
    "HTTP/1.1 200 OK\r\n\
     Content-Type: text/html\r\n\
     Transfer-Encoding: chunked\r\n\
     \r\n\
     5\r\nHello\r\n\
     7\r\n, World\r\n\
     0\r\n\r\n"
  in
  let st = Runtime.parse_string p ~unit_name:"Reply" msg in
  let chunks = Runtime.field_list st "chunks" in
  Alcotest.(check int) "chunk count (incl. final)" 3 (List.length chunks);
  let data =
    List.filter_map (fun c -> Option.map
        (fun v -> Hilti_types.Hbytes.to_string (Hilti_vm.Value.as_bytes v))
        (Runtime.field c "data"))
      chunks
  in
  Alcotest.(check string) "assembled body" "Hello, World" (String.concat "" data)

let test_http_reply_close_body () =
  let p = Lazy.force http_parser in
  let msg = "HTTP/1.0 200 OK\r\nConnection: close\r\n\r\nstream until eof" in
  let st = Runtime.parse_string p ~unit_name:"Reply" msg in
  Alcotest.(check string) "body_close" "stream until eof"
    (Runtime.field_bytes st "body_close")

let test_http_incremental_pipeline () =
  (* Two pipelined requests arriving in awkward chunks. *)
  let p = Lazy.force http_parser in
  let s = Runtime.session p ~unit_name:"Requests" in
  let r1 = "GET /a HTTP/1.1\r\nHost: one\r\n\r\n" in
  let r2 = "GET /b HTTP/1.1\r\nHost: two\r\n\r\n" in
  let all = r1 ^ r2 in
  String.iteri
    (fun i c ->
      ignore i;
      ignore (Runtime.feed s (String.make 1 c)))
    all;
  match Runtime.finish s with
  | Runtime.Done st ->
      let reqs = Runtime.field_list st "requests" in
      Alcotest.(check int) "two requests" 2 (List.length reqs);
      let uris =
        List.map (fun r -> Runtime.field_bytes (Runtime.field_exn r "request") "uri") reqs
      in
      Alcotest.(check (list string)) "uris" [ "/a"; "/b" ] uris
  | Runtime.Blocked -> Alcotest.fail "blocked"
  | Runtime.Failed e -> Alcotest.fail e

(* DNS: build a wire message with the trace generator's encoder, parse it
   back with the BinPAC++ parser. *)
let test_dns_message () =
  let open Hilti_traces.Dns_gen in
  let msg =
    {
      id = 4660;
      response = true;
      opcode = 0;
      rcode = 0;
      rd = true;
      ra = true;
      qname = "www.example.com";
      qtype = 1;
      answers =
        [ { rname = "www.example.com"; rtype = 5; ttl = 300;
            rdata = `Name "cdn.example.net" };
          { rname = "cdn.example.net"; rtype = 1; ttl = 300;
            rdata = `A (93, 184, 216, 34) } ];
      authority = [];
    }
  in
  let wire = encode_message msg in
  let p = Lazy.force dns_parser in
  let st = Runtime.parse_string p ~unit_name:"Message" wire in
  Alcotest.(check int64) "id" 4660L (Runtime.field_int st "id");
  Alcotest.(check int64) "qdcount" 1L (Runtime.field_int st "qdcount");
  let questions = Runtime.field_list st "questions" in
  Alcotest.(check int) "one question" 1 (List.length questions);
  let q = List.hd questions in
  Alcotest.(check string) "qname (via compression-free path)" "www.example.com"
    (Runtime.field_bytes q "qname");
  let answers = Runtime.field_list st "answers" in
  Alcotest.(check int) "answers" 2 (List.length answers);
  let cname = List.hd answers in
  (* rname is a compression pointer back to the question's name. *)
  Alcotest.(check string) "compressed rname" "www.example.com"
    (Runtime.field_bytes cname "rname");
  Alcotest.(check string) "cname target" "cdn.example.net"
    (Runtime.field_bytes cname "rdata_name");
  let a = List.nth answers 1 in
  Alcotest.(check int64) "A rdata" 0x5db8d822L (Runtime.field_int a "rdata_a")

let test_dns_txt_raw () =
  let open Hilti_traces.Dns_gen in
  let msg =
    { id = 7; response = true; opcode = 0; rcode = 0; rd = true; ra = true;
      qname = "t.example.com"; qtype = 16;
      answers =
        [ { rname = "t.example.com"; rtype = 16; ttl = 60;
            rdata = `Txt [ "hello"; "world" ] } ];
      authority = [] }
  in
  let p = Lazy.force dns_parser in
  let st = Runtime.parse_string p ~unit_name:"Message" (encode_message msg) in
  let rr = List.hd (Runtime.field_list st "answers") in
  (* Raw TXT rdata: length-prefixed strings. *)
  Alcotest.(check string) "raw txt" "\x05hello\x05world"
    (Runtime.field_bytes rr "rdata_txt")

let test_grammar_ast () =
  let g = Grammars.parse_http () in
  Alcotest.(check string) "module name" "HTTP" g.Ast.gname;
  let units =
    List.filter_map (function Ast.Unit u -> Some u.Ast.uname | _ -> None) g.Ast.decls
  in
  Alcotest.(check bool) "has Request unit" true (List.mem "Request" units);
  Alcotest.(check bool) "has Chunk unit" true (List.mem "Chunk" units)

(* [&&] and [||] decide left to right: a right operand runs only when the
   left one has not decided.  Field [b] is unset unless [a] is 1, and
   reading an unset field fails the parse, so each condition below parses
   only if the operand reading [b] is skipped whenever [a] is not 1 — in a
   field condition and in a hook's value context alike. *)
let short_circuit_grammar =
  {|
module SC;

type U = unit {
    a: uint8;
    b: uint8 if (self.a == 1);
    c: uint8 if (self.a != 1 || self.b == 7);
    d: uint8 if (self.a == 1 && self.b == 7);
    var either: bool;
    on c { self.either = self.a != 1 || self.b == 7; }
};
|}

let test_short_circuit () =
  List.iter
    (fun specialize ->
      let p = Runtime.load ~specialize (Grammar_parser.parse short_circuit_grammar) in
      let parse input =
        let st = Runtime.parse_string p ~unit_name:"U" input in
        List.map
          (fun f -> match Runtime.field st f with Some v -> Hilti_vm.Value.to_string v | None -> "-")
          [ "a"; "b"; "c"; "d"; "either" ]
      in
      let check input expected =
        Alcotest.(check (list string))
          (Printf.sprintf "%S (specialize=%b)" input specialize)
          expected (parse input)
      in
      check "\x00\x05" [ "0"; "-"; "5"; "-"; "True" ];
      check "\x01\x07\x09\x0a" [ "1"; "7"; "9"; "10"; "True" ];
      check "\x01\x08" [ "1"; "8"; "-"; "-"; "False" ])
    [ false; true ]

let suite =
  [ Alcotest.test_case "grammar AST" `Quick test_grammar_ast;
    Alcotest.test_case "conditions short-circuit" `Quick test_short_circuit;
    Alcotest.test_case "SSH banner (Fig. 7)" `Quick test_ssh_banner;
    Alcotest.test_case "SSH incremental feeding" `Quick test_ssh_incremental;
    Alcotest.test_case "SSH parse error on junk" `Quick test_ssh_parse_error;
    Alcotest.test_case "HTTP request line (Fig. 6)" `Quick test_http_request;
    Alcotest.test_case "HTTP POST body" `Quick test_http_post_body;
    Alcotest.test_case "HTTP chunked reply" `Quick test_http_chunked_reply;
    Alcotest.test_case "HTTP read-until-close body" `Quick test_http_reply_close_body;
    Alcotest.test_case "HTTP pipelined byte-at-a-time" `Quick test_http_incremental_pipeline;
    Alcotest.test_case "DNS message with compression" `Quick test_dns_message;
    Alcotest.test_case "DNS TXT raw rdata" `Quick test_dns_txt_raw ]
