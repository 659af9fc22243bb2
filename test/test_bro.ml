(* Mini-Bro (§4 "Bro Script Compiler"): language semantics under both the
   standard interpreter and the HILTI-compiled engine, checked to agree —
   the §6.5 methodology in miniature. *)

open Mini_bro
open Hilti_types

let conn ~uid ~orig ~resp =
  Bro_val.new_record "connection"
    [ ("uid", Bro_val.Vstring uid);
      ("start_time", Bro_val.Vtime (Time_ns.of_secs 1_400_000_000));
      ( "id",
        Bro_val.new_record "conn_id"
          [ ("orig_h", Bro_val.Vaddr (Addr.of_string orig));
            ("orig_p", Bro_val.Vport (Port.tcp 40000));
            ("resp_h", Bro_val.Vaddr (Addr.of_string resp));
            ("resp_p", Bro_val.Vport (Port.tcp 80)) ] ) ]

let with_engine mode script f =
  let engine = Bro_engine.load mode script in
  let out = Buffer.create 64 in
  Bro_engine.set_print_sink engine (fun s -> Buffer.add_string out (s ^ "\n"));
  f engine;
  (engine, Buffer.contents out)

(* Fig. 8: track.bro records responder IPs and prints them at bro_done. *)
let run_track mode =
  let script = Bro_scripts.parse_track () in
  let _, out =
    with_engine mode script (fun engine ->
        List.iter
          (fun (uid, orig, resp) ->
            Bro_engine.dispatch engine "connection_established" [ conn ~uid ~orig ~resp ])
          [ ("C1", "10.0.0.1", "208.80.152.118");
            ("C2", "10.0.0.2", "208.80.152.2");
            ("C3", "10.0.0.3", "208.80.152.3");
            ("C4", "10.0.0.4", "208.80.152.2") ];
        Bro_engine.dispatch engine "bro_done" [])
  in
  List.sort compare
    (List.filter (fun s -> s <> "") (String.split_on_char '\n' out))

let test_track_interp () =
  Alcotest.(check (list string)) "3 servers"
    [ "208.80.152.118"; "208.80.152.2"; "208.80.152.3" ]
    (run_track Bro_engine.Interpreted)

let test_track_compiled () =
  Alcotest.(check (list string)) "same output as Fig. 8(c)"
    [ "208.80.152.118"; "208.80.152.2"; "208.80.152.3" ]
    (run_track Bro_engine.Compiled)

(* fib: both engines compute the same values (§6.5's baseline bench). *)
let test_fib_agreement () =
  let script = Bro_scripts.parse_fib () in
  let fib mode n =
    let engine = Bro_engine.load mode script in
    match Bro_engine.call_function engine "fib" [ Bro_val.Vcount (Int64.of_int n) ] with
    | Bro_val.Vcount v -> Int64.to_int v
    | v -> Alcotest.failf "fib returned %s" (Bro_val.to_string v)
  in
  List.iter
    (fun n ->
      let i = fib Bro_engine.Interpreted n in
      let c = fib Bro_engine.Compiled n in
      Alcotest.(check int) (Printf.sprintf "fib(%d)" n) i c)
    [ 0; 1; 2; 10; 15 ];
  Alcotest.(check int) "fib(15)" 610 (fib Bro_engine.Compiled 15)

(* The scan detector (§7): threshold crossing in both engines. *)
let run_scan mode =
  let script = Bro_scripts.parse_scan () in
  let _, out =
    with_engine mode script (fun engine ->
        for i = 1 to 25 do
          Bro_engine.dispatch engine "connection_established"
            [ conn ~uid:(Printf.sprintf "S%d" i) ~orig:"10.7.7.7"
                ~resp:(Printf.sprintf "10.1.0.%d" i) ]
        done;
        for i = 1 to 5 do
          Bro_engine.dispatch engine "connection_established"
            [ conn ~uid:(Printf.sprintf "T%d" i) ~orig:"10.8.8.8"
                ~resp:(Printf.sprintf "10.2.0.%d" i) ]
        done;
        Bro_engine.dispatch engine "bro_done" [])
  in
  out

let test_scan_detector () =
  let interp = run_scan Bro_engine.Interpreted in
  let compiled = run_scan Bro_engine.Compiled in
  Alcotest.(check string) "both engines flag the scanner" interp compiled;
  Alcotest.(check string) "only 10.7.7.7 flagged" "scanner: 10.7.7.7\n" interp

(* Language details exercised across both engines. *)
let semantics_script =
  Bro_parse.parse
    {|
global counts: table[string] of count &default=0;
global log_lines: vector of string;

function describe(x: count): string {
    if (x % 2 == 0)
        return fmt("%d=even", x);
    return fmt("%d=odd", x);
}

event tick(name: string) {
    counts[name] = counts[name] + 1;
    # short-circuit: guard the index expression
    if (name in counts && counts[name] > 2)
        push(log_lines, fmt("%s:%d %s", name, counts[name], describe(counts[name])));
}

event bro_done() {
    print join(log_lines, ";");
    print |counts|;
}
|}

let run_semantics mode =
  let _, out =
    with_engine mode semantics_script (fun engine ->
        List.iter
          (fun n -> Bro_engine.dispatch engine "tick" [ Bro_val.Vstring n ])
          [ "a"; "a"; "b"; "a"; "b"; "a"; "b" ];
        Bro_engine.dispatch engine "bro_done" [])
  in
  out

let test_semantics_agree () =
  let i = run_semantics Bro_engine.Interpreted in
  let c = run_semantics Bro_engine.Compiled in
  Alcotest.(check string) "engines agree" i c;
  Alcotest.(check string) "expected content" "a:3 3=odd;a:4 4=even;b:3 3=odd\n2\n" i

(* Log framework output via Log::write, both engines. *)
let log_script =
  Bro_parse.parse
    {|
event note(what: string, nbytes: count) {
    Log::write("notes", [$what=what, $nbytes=nbytes, $flag=T]);
}
|}

let test_log_write () =
  let run mode =
    let logger = Bro_log.create () in
    Bro_log.create_stream logger "notes" [ "what"; "nbytes"; "flag" ];
    let engine = Bro_engine.load ~logger mode log_script in
    Bro_engine.dispatch engine "note" [ Bro_val.Vstring "hello"; Bro_val.Vcount 42L ];
    Bro_engine.dispatch engine "note" [ Bro_val.Vstring "x y"; Bro_val.Vcount 0L ];
    Bro_log.rows logger "notes"
  in
  let i = run Bro_engine.Interpreted and c = run Bro_engine.Compiled in
  Alcotest.(check (list string)) "rows agree" i c;
  Alcotest.(check (list string)) "content" [ "hello\t42\tT"; "x y\t0\tT" ] i

(* Deterministic message of length [n] ("abc...zab..."). *)
let alpha n = String.init n (fun i -> Char.chr (97 + (i mod 26)))

let test_sha1 () =
  let check name expected msg =
    Alcotest.(check string) name expected (Sha1.digest msg)
  in
  (* FIPS 180 / RFC 3174 vectors. *)
  check "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" "abc";
  check "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" "";
  check "448-bit" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check "896-bit" "a49b2446a02c645bf419f995b67091253a04a259"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnop\
     jklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  check "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (String.make 1_000_000 'a');
  (* Padding boundaries: the length field fits (55), just misses (56) or
     fills a block (63, 64, 65), and again one block later (119, 120).
     Expected values from sha1sum over [alpha n]. *)
  List.iter
    (fun (n, expected) -> check (Printf.sprintf "len %d" n) expected (alpha n))
    [ (55, "a617d006d1ca12671785098a19a87fe58443bde9");
      (56, "4ad5bb7ae3c4024768d364b77c52128ea3cffebe");
      (63, "fc8a5ab77259625085ead3ec96515b3b8d933fad");
      (64, "93249d4c2f8903ebf41ac358473148ae6ddd7042");
      (65, "cf2a63cc308225cf07b498d2309a01dd0df52f67");
      (119, "edd0f1133d0e4ca5f3e98bb7e0295f31d20d2cdb");
      (120, "23a58eee587aa1f50d19a969ab36a3fe3e88c393") ]

let test_sha1_streaming () =
  (* Any split of the message into two feeds hashes like one feed, and a
     reset context is as good as a fresh one. *)
  let c = Sha1.init () in
  for n = 0 to 130 do
    let msg = alpha n in
    let expected = Sha1.digest msg in
    for split = 0 to n do
      Sha1.reset c;
      Sha1.feed_string c (String.sub msg 0 split);
      Sha1.feed_bytes c (Bytes.of_string msg) split (n - split);
      Alcotest.(check int) "length" n (Sha1.length c);
      Alcotest.(check string)
        (Printf.sprintf "len %d split %d" n split)
        expected (Sha1.finish c)
    done
  done

let test_sha1_allocation () =
  (* Hashing allocates a fixed-size context and the hex digest, nothing
     per block. *)
  let msg = String.make (1 lsl 20) 'x' in
  ignore (Sha1.digest msg);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Sha1.digest msg));
  let bytes = (Gc.minor_words () -. before) *. float (Sys.word_size / 8) in
  if bytes >= 2048. then
    Alcotest.failf "digest of 1 MiB allocated %.0f bytes" bytes

let suite =
  [ Alcotest.test_case "track.bro interpreted (Fig. 8)" `Quick test_track_interp;
    Alcotest.test_case "track.bro compiled (Fig. 8)" `Quick test_track_compiled;
    Alcotest.test_case "fib agreement" `Quick test_fib_agreement;
    Alcotest.test_case "scan detector (§7)" `Quick test_scan_detector;
    Alcotest.test_case "semantics agreement" `Quick test_semantics_agree;
    Alcotest.test_case "Log::write both engines" `Quick test_log_write;
    Alcotest.test_case "sha1 vectors" `Quick test_sha1;
    Alcotest.test_case "sha1 streaming = one-shot" `Quick test_sha1_streaming;
    Alcotest.test_case "sha1 allocation" `Quick test_sha1_allocation ]
