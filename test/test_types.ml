(* The domain-specific first-class types (§3.2 "Rich Data Types"). *)

open Hilti_types

let qt name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen prop)

(* ---- Addresses ---------------------------------------------------------------- *)

let test_addr_v4 () =
  let a = Addr.of_string "192.168.1.1" in
  Alcotest.(check string) "roundtrip" "192.168.1.1" (Addr.to_string a);
  Alcotest.(check bool) "is v4" true (Addr.is_ipv4 a);
  Alcotest.(check bool) "self equal" true (Addr.equal a (Addr.of_string "192.168.1.1"));
  Alcotest.(check bool) "others differ" false (Addr.equal a (Addr.of_string "192.168.1.2"))

let test_addr_v6 () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Addr.to_string (Addr.of_string input)))
    [ ("2001:db8::1", "2001:db8::1");
      ("::1", "::1");
      ("::", "::");
      ("fe80:0:0:0:0:0:0:1", "fe80::1");
      ("2001:0db8:0000:0000:0000:ff00:0042:8329", "2001:db8::ff00:42:8329") ];
  Alcotest.(check bool) "v6 family" false (Addr.is_ipv4 (Addr.of_string "::1"))

let test_addr_bad () =
  List.iter
    (fun s ->
      match Addr.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted %s" s)
    [ "1.2.3"; "1.2.3.4.5"; "300.1.1.1"; "x.y.z.w"; "1:2:3:4:5:6:7:8:9"; "::1::2" ]

let test_addr_mask () =
  let a = Addr.of_string "192.168.171.205" in
  Alcotest.(check string) "/24" "192.168.171.0" (Addr.to_string (Addr.mask a 24));
  Alcotest.(check string) "/16" "192.168.0.0" (Addr.to_string (Addr.mask a 16));
  Alcotest.(check string) "/0" "0.0.0.0" (Addr.to_string (Addr.mask a 0));
  Alcotest.(check string) "/32" "192.168.171.205" (Addr.to_string (Addr.mask a 32))

let addr_gen =
  QCheck.Gen.(
    map
      (fun ((a, b), (c, d)) -> Addr.of_ipv4_octets a b c d)
      (pair (pair (int_range 0 255) (int_range 0 255))
         (pair (int_range 0 255) (int_range 0 255))))

let addr_arb = QCheck.make ~print:Addr.to_string addr_gen

let prop_addr_roundtrip =
  qt "addr: parse(print(a)) = a" addr_arb (fun a ->
      Addr.equal a (Addr.of_string (Addr.to_string a)))

let prop_addr_of_ipv4_int =
  qt "addr: of_ipv4_int reads the low 32 bits as a.b.c.d" QCheck.int (fun i ->
      let octet k = (i lsr k) land 0xff in
      let dotted = Printf.sprintf "%d.%d.%d.%d" (octet 24) (octet 16) (octet 8) (octet 0) in
      let a = Addr.of_ipv4_int i in
      Addr.is_ipv4 a
      && Addr.to_string a = dotted
      && Addr.equal a (Addr.of_string dotted)
      && Addr.equal a (Addr.of_ipv4_int32 (Int32.of_int i)))

let prop_addr_mask_idempotent =
  qt "addr: mask is idempotent"
    QCheck.(pair addr_arb (int_range 0 32))
    (fun (a, len) ->
      let m = Addr.mask a len in
      Addr.equal m (Addr.mask m len))

(* ---- Networks ------------------------------------------------------------------ *)

let test_network () =
  let n = Network.of_string "10.0.5.0/24" in
  Alcotest.(check string) "print" "10.0.5.0/24" (Network.to_string n);
  Alcotest.(check bool) "contains member" true (Network.contains n (Addr.of_string "10.0.5.200"));
  Alcotest.(check bool) "excludes outside" false (Network.contains n (Addr.of_string "10.0.6.1"));
  Alcotest.(check bool) "excludes v6" false (Network.contains n (Addr.of_string "::1"));
  (* prefix bits beyond the mask are dropped on construction *)
  Alcotest.(check string) "normalizes" "10.0.5.0/24"
    (Network.to_string (Network.of_string "10.0.5.77/24"))

let prop_network_contains_prefix =
  qt "net: network contains its own prefix"
    QCheck.(pair addr_arb (int_range 0 32))
    (fun (a, len) ->
      let n = Network.make a len in
      Network.contains n (Network.prefix n))

let prop_network_masked_member =
  qt "net: a is in a/len"
    QCheck.(pair addr_arb (int_range 0 32))
    (fun (a, len) -> Network.contains (Network.make a len) a)

(* ---- Ports / time / intervals ----------------------------------------------------- *)

let test_port () =
  let p = Port.of_string "80/tcp" in
  Alcotest.(check int) "number" 80 (Port.number p);
  Alcotest.(check string) "print" "80/tcp" (Port.to_string p);
  Alcotest.(check bool) "udp differs" false (Port.equal p (Port.udp 80));
  (match Port.of_string "99999/tcp" with
  | exception Port.Invalid _ -> ()
  | _ -> Alcotest.fail "accepted out-of-range port");
  match Port.of_string "80" with
  | exception Port.Invalid _ -> ()
  | _ -> Alcotest.fail "accepted protocol-less port"

let test_time_interval () =
  let t = Time_ns.of_secs 1_000 in
  let i = Interval_ns.of_float 2.5 in
  let t2 = Time_ns.add t (Interval_ns.to_ns i) in
  Alcotest.(check string) "time print" "1002.500000" (Time_ns.to_string t2);
  Alcotest.(check bool) "ordering" true (Time_ns.compare t t2 < 0);
  let diff = Time_ns.diff t2 t in
  Alcotest.(check bool) "diff = interval" true
    (Interval_ns.equal (Interval_ns.of_ns diff) i);
  Alcotest.(check string) "interval mul" "7.500000"
    (Interval_ns.to_string (Interval_ns.mul i 3))

(* ---- Printf-free renderers ------------------------------------------------------------ *)

(* The Printf forms the digit writers replaced, kept as the reference. *)
let ref_time (t : int64) =
  let secs = Int64.div t 1_000_000_000L and frac = Int64.rem t 1_000_000_000L in
  Printf.sprintf "%Ld.%06Ld" secs (Int64.div (Int64.abs frac) 1000L)

let ref_ipv4 a b c d = Printf.sprintf "%d.%d.%d.%d" a b c d

let ref_port n proto = Printf.sprintf "%d/%s" n (Port.proto_to_string proto)

let buffered add x =
  let b = Buffer.create 8 in
  Buffer.add_string b "<";
  add b x;
  Buffer.contents b

let edge_int64s =
  [ 0L; 1L; -1L; 9L; 10L; -10L; 999_999L; 1_000_000L; -999_999_999L; 1_000_000_000L;
    Int64.of_int max_int; Int64.of_int min_int; Int64.succ (Int64.of_int max_int);
    Int64.pred (Int64.of_int min_int); Int64.max_int; Int64.min_int;
    Int64.succ Int64.min_int; Int64.pred Int64.max_int ]

(* Every value whose neighbour has one digit more or fewer: 10^k - 1,
   10^k and 10^k + 1 for k = 0..18, their negations, and the ends of both
   integer ranges. *)
let digit_boundaries =
  let rec pow k = if k = 0 then 1L else Int64.mul 10L (pow (k - 1)) in
  let around =
    List.concat_map
      (fun k ->
        let p = pow k in
        [ Int64.pred p; p; Int64.succ p ])
      (List.init 19 Fun.id)
  in
  around @ List.map Int64.neg around
  @ [ Int64.of_int min_int; Int64.of_int max_int; Int64.min_int; Int64.max_int ]

(* Edge values plus a seeded sweep over all magnitudes. *)
let int64_samples =
  let st = Random.State.make [| 17 |] in
  edge_int64s @ digit_boundaries
  @ List.init 2000 (fun i ->
        let v = Random.State.int64 st Int64.max_int in
        let v = Int64.shift_right v (i mod 63) in
        if i mod 2 = 0 then v else Int64.neg v)

let test_render_counts () =
  List.iter
    (fun v ->
      let want = Printf.sprintf "%Ld" v in
      Alcotest.(check string) want want (Digits.int64_to_string v);
      Alcotest.(check string) ("buffer " ^ want) ("<" ^ want) (buffered Digits.add_int64 v);
      let n = Int64.to_int v in
      if Int64.equal (Int64.of_int n) v then begin
        Alcotest.(check string) ("int " ^ want) want (Digits.int_to_string n);
        Alcotest.(check string) ("int buffer " ^ want) ("<" ^ want) (buffered Digits.add_int n);
        Alcotest.(check int) ("width " ^ want) (String.length (string_of_int n)) (Digits.width n);
        (* Filled in place between two sentinels, at an odd offset. *)
        let s = Bytes.make (String.length want + 4) '#' in
        let stop = Digits.write_int s 3 n in
        Alcotest.(check string) ("write " ^ want) ("###" ^ want ^ "#") (Bytes.to_string s);
        Alcotest.(check int) ("write end " ^ want) (3 + String.length want) stop;
        List.iter
          (fun w ->
            Alcotest.(check string)
              (Printf.sprintf "padded %d %s" w want)
              (Printf.sprintf "%0*d" w n)
              (Digits.to_string ~size:8 (Digits.add_padded ~width:w) n))
          [ 0; 1; 2; 6; 19; 21 ]
      end)
    int64_samples;
  Alcotest.check_raises "write past the end" (Invalid_argument "Digits.write_int") (fun () ->
      ignore (Digits.write_int (Bytes.create 3) 1 100))

let test_render_times () =
  let samples =
    [ 0L; 1L; 999L; 1_000L; 1_999L; -1L; -999L; -1_000L; -500_000_000L; -1_500_000_000L;
      1_000_000_000L; 1_398_558_468_123_456_789L; -1_398_558_468_123_456_789L;
      Int64.max_int; Int64.min_int ]
    @ int64_samples
  in
  List.iter
    (fun t ->
      let want = ref_time t in
      Alcotest.(check string) want want (Time_ns.to_string (Time_ns.of_ns t));
      Alcotest.(check string) ("buffer " ^ want) ("<" ^ want)
        (buffered Time_ns.add_to_buffer (Time_ns.of_ns t));
      Alcotest.(check string) ("interval " ^ want) want
        (Interval_ns.to_string (Interval_ns.of_ns t)))
    samples

let test_render_addrs () =
  let st = Random.State.make [| 23 |] in
  let quads =
    [ (0, 0, 0, 0); (255, 255, 255, 255); (192, 168, 1, 1); (10, 0, 0, 1); (8, 8, 8, 8);
      (1, 22, 133, 9) ]
    @ List.init 500 (fun _ ->
          let o () = Random.State.int st 256 in
          let a = o () in
          let b = o () in
          let c = o () in
          (a, b, c, o ()))
  in
  List.iter
    (fun (a, b, c, d) ->
      let want = ref_ipv4 a b c d in
      let addr = Addr.of_ipv4_octets a b c d in
      Alcotest.(check string) want want (Addr.to_string addr);
      Alcotest.(check string) ("buffer " ^ want) ("<" ^ want) (buffered Addr.add_to_buffer addr))
    quads;
  (* IPv6 rendering is unchanged. *)
  List.iter
    (fun (input, want) ->
      let addr = Addr.of_string input in
      Alcotest.(check string) input want (Addr.to_string addr);
      Alcotest.(check string) ("buffer " ^ input) ("<" ^ want) (buffered Addr.add_to_buffer addr))
    [ ("2001:db8::1", "2001:db8::1"); ("::", "::"); ("fe80:0:0:0:1:2:3:4", "fe80::1:2:3:4");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8") ]

let test_render_ports () =
  List.iter
    (fun proto ->
      List.iter
        (fun n ->
          let want = ref_port n proto in
          let p = Port.make n proto in
          Alcotest.(check string) want want (Port.to_string p);
          Alcotest.(check string) ("buffer " ^ want) ("<" ^ want) (buffered Port.add_to_buffer p))
        [ 0; 1; 53; 80; 443; 9999; 10000; 65535 ])
    [ Port.TCP; Port.UDP; Port.ICMP ]

(* IPv6 text as [Addr] wrote it with one [Printf "%x"] per group, kept as the
   reference. *)
let ref_ipv6 hi lo =
  let g64 w =
    [ Int64.to_int (Int64.logand (Int64.shift_right_logical w 48) 0xffffL);
      Int64.to_int (Int64.logand (Int64.shift_right_logical w 32) 0xffffL);
      Int64.to_int (Int64.logand (Int64.shift_right_logical w 16) 0xffffL);
      Int64.to_int (Int64.logand w 0xffffL) ]
  in
  let groups = Array.of_list (g64 hi @ g64 lo) in
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if groups.(!i) = 0 then begin
      let j = ref !i in
      while !j < 8 && groups.(!j) = 0 do incr j done;
      if !j - !i > !best_len then begin
        best_len := !j - !i;
        best_start := !i
      end;
      i := !j
    end
    else incr i
  done;
  let buf = Buffer.create 40 in
  if !best_len >= 2 then begin
    for k = 0 to !best_start - 1 do
      if k > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(k))
    done;
    Buffer.add_string buf "::";
    for k = !best_start + !best_len to 7 do
      if k > !best_start + !best_len then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(k))
    done
  end
  else
    for k = 0 to 7 do
      if k > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(k))
    done;
  Buffer.contents buf

(* The 128 bits of eight 16-bit groups. *)
let v6_of_groups g =
  let w a =
    Array.fold_left (fun acc x -> Int64.logor (Int64.shift_left acc 16) (Int64.of_int x)) 0L a
  in
  (w (Array.sub g 0 4), w (Array.sub g 4 4))

let test_render_ipv6 () =
  let st = Random.State.make [| 29 |] in
  let edges =
    [ [| 0; 0; 0; 0; 0; 0; 0; 0 |]; [| 0; 0; 0; 0; 0; 0; 0; 1 |];
      [| 0; 0; 0; 5; 6; 7; 8; 9 |]; [| 1; 2; 3; 4; 5; 0; 0; 0 |];
      [| 1; 0; 0; 2; 3; 0; 0; 4 |]; [| 0; 0; 1; 2; 3; 4; 0; 0 |];
      [| 1; 0; 2; 3; 4; 5; 6; 7 |]; [| 0; 1; 0; 1; 0; 1; 0; 1 |];
      [| 1; 0; 0; 2; 0; 0; 0; 3 |]; [| 0xffff; 0xabc; 0xde; 0xf; 0x1000; 0x100; 0x10; 1 |];
      [| 0; 0; 0; 0; 0; 0xffff; 0x0a00; 1 |] ]
  in
  let random =
    List.init 2000 (fun _ ->
        (* Mostly zero groups, so runs of every length and position occur. *)
        Array.init 8 (fun _ ->
            match Random.State.int st 4 with
            | 0 | 1 -> 0
            | 2 -> Random.State.int st 16
            | _ -> Random.State.int st 0x10000))
  in
  List.iter
    (fun g ->
      let hi, lo = v6_of_groups g in
      let want = ref_ipv6 hi lo in
      let addr = Addr.of_ipv6_int64s hi lo in
      Alcotest.(check string) want want (Addr.to_string addr);
      Alcotest.(check string) ("buffer " ^ want) ("<" ^ want) (buffered Addr.add_to_buffer addr);
      Alcotest.(check string) ("reparse " ^ want) want (Addr.to_string (Addr.of_string want)))
    (edges @ random)

(* [Driver.fw_line] against a [Printf] line over [Addr.to_string]: a
   reference that shares no code with the measured, filled fast path. *)
let test_fw_line () =
  let ref_line ts src dst allowed =
    Printf.sprintf "%Ld %s > %s %s" ts (Addr.to_string src) (Addr.to_string dst)
      (if allowed then "allow" else "deny")
  in
  let addrs =
    List.map Addr.of_string
      [ "0.0.0.0"; "255.255.255.255"; "1.2.3.4"; "10.20.30.40"; "100.200.250.199";
        "9.99.100.255"; "192.168.1.1"; "::"; "::1"; "2001:db8::ff00:42:8329";
        "fe80:0:0:0:1:2:3:4" ]
    @ [ Addr.of_ipv6_int64s 0L 0x0000_ffff_0a00_0001L ]
  in
  let tss =
    [ 0L; 1L; 9L; 10L; 99L; -1L; -1_500_000_000L; 1_400_000_123_456_789L;
      Int64.of_int max_int; Int64.succ (Int64.of_int max_int); Int64.of_int min_int;
      Int64.pred (Int64.of_int min_int); Int64.max_int; Int64.min_int ]
  in
  List.iter
    (fun ts ->
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              List.iter
                (fun allowed ->
                  let want = ref_line ts src dst allowed in
                  Alcotest.(check string) want want
                    (Hilti_analyzers.Driver.fw_line ~ts:(Time_ns.of_ns ts) ~src ~dst allowed))
                [ true; false ])
            addrs)
        addrs)
    tss;
  (* The IPv4 fast path over every octet width, at random. *)
  let st = Random.State.make [| 31 |] in
  let octet () =
    match Random.State.int st 3 with
    | 0 -> Random.State.int st 10
    | 1 -> 10 + Random.State.int st 90
    | _ -> 100 + Random.State.int st 156
  in
  let v4 () =
    let a = octet () in
    let b = octet () in
    let c = octet () in
    Addr.of_ipv4_octets a b c (octet ())
  in
  for _ = 1 to 2000 do
    let src = v4 () in
    let dst = v4 () in
    let ts =
      Int64.shift_right_logical (Random.State.int64 st Int64.max_int) (Random.State.int st 63)
    in
    let allowed = Random.State.bool st in
    let want = ref_line ts src dst allowed in
    Alcotest.(check string) want want
      (Hilti_analyzers.Driver.fw_line ~ts:(Time_ns.of_ns ts) ~src ~dst allowed)
  done

(* ---- Bytes: the incremental-parsing substrate ---------------------------------------- *)

let test_hbytes_basics () =
  let b = Hbytes.create () in
  Hbytes.append b "hello ";
  Hbytes.append b "world";
  Alcotest.(check int) "length" 11 (Hbytes.length b);
  Alcotest.(check string) "contents" "hello world" (Hbytes.to_string b);
  let it = Hbytes.begin_ b in
  Alcotest.(check int) "first byte" (Char.code 'h') (Hbytes.get it);
  let it5 = Hbytes.advance it 6 in
  Alcotest.(check string) "sub" "world" (Hbytes.sub it5 (Hbytes.end_ b))

let test_hbytes_blocking_and_freeze () =
  let b = Hbytes.of_string "ab" in
  let it = Hbytes.advance (Hbytes.begin_ b) 2 in
  (match Hbytes.get it with
  | exception Hbytes.Would_block -> ()
  | _ -> Alcotest.fail "expected Would_block on live stream");
  Hbytes.append b "c";
  Alcotest.(check int) "data arrived" (Char.code 'c') (Hbytes.get it);
  Hbytes.freeze b;
  (match Hbytes.append b "x" with
  | exception Hbytes.Frozen -> ()
  | _ -> Alcotest.fail "append after freeze");
  let past = Hbytes.advance it 1 in
  match Hbytes.get past with
  | exception Hbytes.Out_of_range -> ()
  | _ -> Alcotest.fail "expected Out_of_range past frozen end"

let test_hbytes_trim () =
  let b = Hbytes.of_string "0123456789" in
  let it5 = Hbytes.iter_at b 5 in
  Hbytes.trim b it5;
  Alcotest.(check int) "trimmed length" 5 (Hbytes.length b);
  Alcotest.(check string) "kept tail" "56789" (Hbytes.to_string b);
  Alcotest.(check int) "absolute offsets preserved" (Char.code '7')
    (Hbytes.get (Hbytes.iter_at b 7));
  match Hbytes.get (Hbytes.iter_at b 2) with
  | exception Hbytes.Out_of_range -> ()
  | _ -> Alcotest.fail "read of trimmed data"

let test_hbytes_find_and_prefix () =
  let b = Hbytes.of_string "GET / HTTP/1.1\r\n" in
  (match Hbytes.find (Hbytes.begin_ b) "\r\n" with
  | Some it -> Alcotest.(check int) "found at" 14 (Hbytes.offset it)
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "prefix yes" true (Hbytes.match_prefix (Hbytes.begin_ b) "GET ");
  Alcotest.(check bool) "prefix no" false (Hbytes.match_prefix (Hbytes.begin_ b) "POST");
  (* match_prefix can reject early on partial data, and blocks otherwise *)
  let live = Hbytes.of_string "GE" in
  Alcotest.(check bool) "partial mismatch decides" false
    (Hbytes.match_prefix (Hbytes.begin_ live) "POST");
  match Hbytes.match_prefix (Hbytes.begin_ live) "GET " with
  | exception Hbytes.Would_block -> ()
  | _ -> Alcotest.fail "expected Would_block on undecidable prefix"

let test_hbytes_unpack () =
  let b = Hbytes.of_string "\x12\x34\x56\x78" in
  let v, _ = Hbytes.read_uint (Hbytes.begin_ b) ~width:2 ~order:Hbytes.Big in
  Alcotest.(check int64) "u16 be" 0x1234L v;
  let v, _ = Hbytes.read_uint (Hbytes.begin_ b) ~width:2 ~order:Hbytes.Little in
  Alcotest.(check int64) "u16 le" 0x3412L v;
  let v, _ = Hbytes.read_uint (Hbytes.begin_ b) ~width:4 ~order:Hbytes.Big in
  Alcotest.(check int64) "u32 be" 0x12345678L v;
  let s = Hbytes.of_string "\xff" in
  let v, _ = Hbytes.read_sint (Hbytes.begin_ s) ~width:1 ~order:Hbytes.Big in
  Alcotest.(check int64) "s8 sign extension" (-1L) v

(* ---- Zero-copy views ----------------------------------------------------- *)

let test_hbytes_views () =
  let b = Hbytes.of_string "abcdef\x12\x34\x56\x78" in
  let v = Hbytes.view b in
  Alcotest.(check int) "view length" 10 (Hbytes.view_length v);
  Alcotest.(check int) "u8" (Char.code 'a') (Hbytes.get_u8 v 0);
  Alcotest.(check int) "u16 be" 0x1234 (Hbytes.get_u16 v 6);
  Alcotest.(check int) "u32 be" 0x12345678 (Hbytes.get_u32 v 6);
  Alcotest.(check (option int)) "find_byte" (Some 3) (Hbytes.find_byte v 'd');
  Alcotest.(check (option int)) "find_byte from" None
    (Hbytes.find_byte v ~from:4 'd');
  let w = Hbytes.view_sub v 2 3 in
  Alcotest.(check string) "view_sub contents" "cde" (Hbytes.view_sub_string w 0 3);
  Alcotest.(check int) "view_sub offset" 2 (Hbytes.view_offset w);
  (match Hbytes.get_u16 w 2 with
  | exception Hbytes.Out_of_range -> ()
  | _ -> Alcotest.fail "u16 straddling the view end must refuse");
  let it2 = Hbytes.iter_at b 2 and it7 = Hbytes.iter_at b 7 in
  Alcotest.(check string) "sub_view agrees with sub" (Hbytes.sub it2 it7)
    (Hbytes.view_to_string (Hbytes.sub_view it2 it7));
  (* The string entry point slices without wrapping copies... *)
  let sv = Hbytes.view_of_string ~off:2 ~len:3 "abcdef" in
  Alcotest.(check string) "view_of_string window" "cde"
    (Hbytes.view_to_string sv);
  (* ...and re-entering Hbytes from a frozen view shares the buffer. *)
  let shared = Hbytes.of_view sv in
  Alcotest.(check string) "of_view contents" "cde" (Hbytes.to_string shared);
  Alcotest.(check bool) "of_view shares the frozen buffer" true
    (shared.Hbytes.buf == sv.Hbytes.vt.Hbytes.buf)

let test_hbytes_view_staleness () =
  let b = Hbytes.of_string "0123456789" in
  let v = Hbytes.view b in
  Alcotest.(check int) "live read" (Char.code '0') (Hbytes.get_u8 v 0);
  Hbytes.trim b (Hbytes.iter_at b 4);
  (match Hbytes.get_u8 v 0 with
  | exception Hbytes.Stale_view -> ()
  | _ -> Alcotest.fail "trim must invalidate outstanding views");
  let v2 = Hbytes.view b in
  Hbytes.append b "x";
  (match Hbytes.view_sub_string v2 0 1 with
  | exception Hbytes.Stale_view -> ()
  | _ -> Alcotest.fail "append must invalidate outstanding views");
  (* Frozen wrappers reject mutation, so their views can never go stale. *)
  let fv = Hbytes.view_of_string "abc" in
  Alcotest.(check int) "frozen view stays valid" (Char.code 'a')
    (Hbytes.get_u8 fv 0)

(* Regression: trimming everything away used to leave the [to_string] memo
   in a state where a following append could serve stale bytes.  Trim and
   append must both clear the memo and bump the generation. *)
let test_hbytes_trim_append_memo () =
  let b = Hbytes.of_string "abcdef" in
  Alcotest.(check string) "memoized" "abcdef" (Hbytes.to_string b);
  let g0 = b.Hbytes.gen in
  Hbytes.trim b (Hbytes.end_ b);
  Alcotest.(check bool) "trim bumps gen" true (b.Hbytes.gen > g0);
  Alcotest.(check string) "empty after trim to end" "" (Hbytes.to_string b);
  let g1 = b.Hbytes.gen in
  Hbytes.append b "XYZ";
  Alcotest.(check bool) "append bumps gen" true (b.Hbytes.gen > g1);
  Alcotest.(check string) "to_string sees the new bytes" "XYZ"
    (Hbytes.to_string b);
  Alcotest.(check string) "slice reads see the new bytes" "YZ"
    (Hbytes.view_sub_string (Hbytes.view b) 1 2);
  Alcotest.(check string) "iterator sub sees the new bytes" "XYZ"
    (Hbytes.sub (Hbytes.begin_ b) (Hbytes.end_ b))

(* Property: under random append/trim/read interleavings, whole-window
   views agree with a plain string model, and any view outstanding across
   a mutation raises [Stale_view] instead of returning bytes. *)
let prop_hbytes_view_model =
  qt "hbytes: views track a string model; stale reads raise"
    QCheck.(
      small_list
        (triple (int_bound 2)
           (string_gen_of_size (Gen.int_bound 8) Gen.printable)
           small_nat))
    (fun ops ->
      let b = Hbytes.create () in
      let model = ref "" in
      let went_stale v =
        match Hbytes.get_u8 v 0 with
        | exception Hbytes.Stale_view -> true
        | exception _ -> false
        | _ -> false
      in
      List.for_all
        (fun (tag, s, k) ->
          let n = String.length !model in
          match tag with
          | 0 ->
              let v = Hbytes.view b in
              Hbytes.append b s;
              model := !model ^ s;
              if s = "" then true else went_stale v
          | 1 ->
              let d = if n = 0 then 0 else k mod (n + 1) in
              let v = Hbytes.view b in
              Hbytes.trim_front b d;
              model := String.sub !model d (n - d);
              if d = 0 then true else went_stale v
          | _ ->
              let v = Hbytes.view b in
              Hbytes.view_to_string v = !model
              && Hbytes.to_string b = !model
              && (n = 0
                 ||
                 let i = k mod n in
                 Hbytes.get_u8 v i = Char.code !model.[i]
                 && Hbytes.view_sub_string v i (n - i)
                    = String.sub !model i (n - i)
                 && Hbytes.find_byte v !model.[i]
                    = String.index_opt !model !model.[i]))
        ops)

(* Property: an Hbytes built from arbitrary appends behaves like string
   concatenation, whatever the chunking. *)
let prop_hbytes_chunking =
  qt "hbytes: content independent of chunking"
    QCheck.(small_list (string_gen_of_size (Gen.int_bound 20) Gen.printable))
    (fun chunks ->
      let b = Hbytes.create () in
      List.iter (Hbytes.append b) chunks;
      Hbytes.to_string b = String.concat "" chunks)

let prop_hbytes_sub_consistent =
  qt "hbytes: sub agrees with String.sub"
    QCheck.(pair (string_gen_of_size (Gen.int_bound 40) Gen.printable) (pair small_nat small_nat))
    (fun (s, (i, j)) ->
      let n = String.length s in
      let i = if n = 0 then 0 else i mod (n + 1) in
      let j = if n = 0 then 0 else j mod (n + 1) in
      let lo = min i j and hi = max i j in
      let b = Hbytes.of_string s in
      Hbytes.sub (Hbytes.iter_at b lo) (Hbytes.iter_at b hi) = String.sub s lo (hi - lo))

let suite =
  [ Alcotest.test_case "addr v4" `Quick test_addr_v4;
    Alcotest.test_case "addr v6" `Quick test_addr_v6;
    Alcotest.test_case "addr rejects junk" `Quick test_addr_bad;
    Alcotest.test_case "addr mask" `Quick test_addr_mask;
    prop_addr_roundtrip;
    prop_addr_of_ipv4_int;
    prop_addr_mask_idempotent;
    Alcotest.test_case "network" `Quick test_network;
    prop_network_contains_prefix;
    prop_network_masked_member;
    Alcotest.test_case "port" `Quick test_port;
    Alcotest.test_case "time and interval" `Quick test_time_interval;
    Alcotest.test_case "render counts == Printf" `Quick test_render_counts;
    Alcotest.test_case "render times == Printf" `Quick test_render_times;
    Alcotest.test_case "render IPv4 == Printf, IPv6 unchanged" `Quick test_render_addrs;
    Alcotest.test_case "render ports == Printf" `Quick test_render_ports;
    Alcotest.test_case "render IPv6 == Printf renderer" `Quick test_render_ipv6;
    Alcotest.test_case "fw_line == Printf reference" `Quick test_fw_line;
    Alcotest.test_case "hbytes basics" `Quick test_hbytes_basics;
    Alcotest.test_case "hbytes blocking/freeze" `Quick test_hbytes_blocking_and_freeze;
    Alcotest.test_case "hbytes trim" `Quick test_hbytes_trim;
    Alcotest.test_case "hbytes find/prefix" `Quick test_hbytes_find_and_prefix;
    Alcotest.test_case "hbytes unpack" `Quick test_hbytes_unpack;
    Alcotest.test_case "hbytes views" `Quick test_hbytes_views;
    Alcotest.test_case "hbytes view staleness" `Quick test_hbytes_view_staleness;
    Alcotest.test_case "hbytes trim/append memo regression" `Quick
      test_hbytes_trim_append_memo;
    prop_hbytes_view_model;
    prop_hbytes_chunking;
    prop_hbytes_sub_consistent ]
