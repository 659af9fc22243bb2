(* The wire-format substrate: checksums, protocol encode/decode roundtrips,
   pcap files, flows, and TCP reassembly (including adversarial segment
   orders). *)

open Hilti_net
open Hilti_types

let qt name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 gen prop)

let a = Addr.of_string

(* ---- Checksum ------------------------------------------------------------------- *)

let test_checksum () =
  (* RFC 1071 worked example. *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let cs = Checksum.checksum data 0 (String.length data) in
  Alcotest.(check int) "rfc1071 example" 0x220d cs;
  (* A buffer with its checksum spliced in verifies. *)
  let b = Bytes.of_string (data ^ "\x00\x00") in
  Bytes.set b 8 (Char.chr (cs lsr 8));
  Bytes.set b 9 (Char.chr (cs land 0xff));
  Alcotest.(check bool) "verifies" true (Checksum.valid (Bytes.to_string b) 0 10)

(* ---- IP/TCP/UDP roundtrips --------------------------------------------------------- *)

let test_ipv4_roundtrip () =
  let payload = "some payload" in
  let pkt = Ipv4.encode ~ttl:33 ~protocol:6 ~src:(a "1.2.3.4") ~dst:(a "5.6.7.8") payload in
  let len = String.length pkt in
  let h = Ipv4.decode_at pkt 0 len in
  Alcotest.(check string) "src" "1.2.3.4" (Addr.to_string h.Ipv4.src);
  Alcotest.(check string) "dst" "5.6.7.8" (Addr.to_string h.Ipv4.dst);
  Alcotest.(check int) "ttl" 33 h.Ipv4.ttl;
  Alcotest.(check int) "proto" 6 h.Ipv4.protocol;
  let hl = h.Ipv4.ihl * 4 in
  Alcotest.(check string) "payload" payload
    (String.sub pkt hl (Ipv4.payload_end pkt 0 len - hl));
  Alcotest.(check bool) "header checksum" true (Ipv4.checksum_valid pkt h.Ipv4.ihl)

let test_tcp_roundtrip () =
  let seg =
    Tcp.encode ~src_port:1234 ~dst_port:80 ~seq:1000l ~ack:2000l
      ~flags:(Tcp.flag_syn lor Tcp.flag_ack) ~src:(a "1.1.1.1") ~dst:(a "2.2.2.2")
      "hello"
  in
  let h = Tcp.decode_at seg 0 (String.length seg) in
  Alcotest.(check int) "sport" 1234 h.Tcp.src_port;
  Alcotest.(check int) "dport" 80 h.Tcp.dst_port;
  Alcotest.(check int32) "seq" 1000l h.Tcp.seq;
  Alcotest.(check bool) "syn" true (Tcp.has_flag h Tcp.flag_syn);
  Alcotest.(check bool) "no fin" false (Tcp.has_flag h Tcp.flag_fin);
  Alcotest.(check string) "flags string" "SA" (Tcp.flags_to_string h);
  Alcotest.(check string) "payload" "hello"
    (String.sub seg (Tcp.header_len h) (String.length seg - Tcp.header_len h))

let test_udp_roundtrip () =
  let dgram = Udp.encode ~src_port:53 ~dst_port:9999 ~src:(a "1.1.1.1") ~dst:(a "2.2.2.2") "dns" in
  let len = String.length dgram in
  let h = Udp.decode_at dgram 0 len in
  Alcotest.(check int) "sport" 53 h.Udp.src_port;
  Alcotest.(check string) "payload" "dns"
    (String.sub dgram Udp.header_len (Udp.payload_end dgram 0 len - Udp.header_len))

let test_full_packet_decode () =
  let frame =
    Packet.encode_tcp ~src:(a "10.0.0.1") ~dst:(a "10.0.0.2") ~src_port:5555
      ~dst_port:80 ~seq:7l ~ack:0l ~flags:Tcp.flag_ack "data"
  in
  match Packet.decode ~ts:Time_ns.epoch frame with
  | { Packet.transport = Packet.TCP (h, payload); _ } as pkt ->
      Alcotest.(check string) "src addr" "10.0.0.1" (Addr.to_string (Packet.src pkt));
      Alcotest.(check int) "dport" 80 h.Tcp.dst_port;
      Alcotest.(check string) "payload" "data" payload;
      let flow = Option.get (Packet.flow pkt) in
      Alcotest.(check string) "flow" "10.0.0.1:5555 > 10.0.0.2:80/tcp"
        (Flow.to_string flow)
  | _ -> Alcotest.fail "bad decode"

(* Link-layer trailer bytes (Ethernet padding) past the IP length are not
   payload, for IPv4 ([total_length]) and IPv6 ([payload_length]) alike;
   the zero-copy peek reads the same bounds. *)
let test_ip_length_bounds_payload () =
  let seg =
    Tcp.encode ~src_port:5555 ~dst_port:80 ~seq:7l ~ack:0l ~flags:Tcp.flag_ack
      ~src:(a "10.0.0.1") ~dst:(a "10.0.0.2") "data"
  in
  let v4 = Ipv4.encode ~protocol:Ipv4.proto_tcp ~src:(a "10.0.0.1") ~dst:(a "10.0.0.2") seg in
  let v6 = Ipv6.encode ~next_header:Ipv4.proto_tcp ~src:(a "2001:db8::1") ~dst:(a "2001:db8::2") seg in
  List.iter
    (fun (name, ethertype, ip) ->
      let frame = Ethernet.encode ~ethertype ip ^ "\x00\x00\x00\x00" in
      (match Packet.decode_opt ~ts:Time_ns.epoch frame with
      | Some { Packet.transport = Packet.TCP (_, payload); _ } ->
          Alcotest.(check string) (name ^ " decoded payload") "data" payload
      | _ -> Alcotest.failf "%s: no TCP decode" name);
      match Packet.peek_tcp frame with
      | Some (_, _, off, len) ->
          Alcotest.(check string) (name ^ " peeked payload") "data" (String.sub frame off len)
      | None -> Alcotest.failf "%s: no TCP peek" name)
    [ ("ipv4", Ethernet.ethertype_ipv4, v4); ("ipv6", Ethernet.ethertype_ipv6, v6) ]

(* Junk, including an IPv4 and an IPv6 Ethernet header over a truncated IP
   header, is rejected by every entry point. *)
let test_truncated_frames () =
  let eth ethertype n = Ethernet.encode ~ethertype (String.make n '\x45') in
  List.iter
    (fun s ->
      let none what = function
        | None -> ()
        | Some _ -> Alcotest.failf "%s accepted %d junk bytes" what (String.length s)
      in
      none "decode_opt" (Packet.decode_opt ~ts:Time_ns.epoch s);
      none "peek_addrs" (Packet.peek_addrs s);
      none "peek_ipv4" (Packet.peek_ipv4 s);
      none "peek_flow" (Packet.peek_flow s);
      none "peek_udp" (Packet.peek_udp s);
      none "peek_tcp" (Packet.peek_tcp s))
    [ ""; "x"; String.make 13 'x'; String.make 20 '\x00';
      eth Ethernet.ethertype_ipv4 19; eth Ethernet.ethertype_ipv6 39 ]

(* ---- Pcap ---------------------------------------------------------------------------- *)

let test_pcap_roundtrip () =
  let records =
    List.map
      (fun i ->
        let data =
          Packet.encode_udp ~src:(a "1.1.1.1") ~dst:(a "2.2.2.2") ~src_port:i
            ~dst_port:53 ("payload" ^ string_of_int i)
        in
        { Pcap.ts = Time_ns.of_secs (1000 + i); orig_len = String.length data; data })
      [ 1; 2; 3 ]
  in
  let blob = Pcap.to_string records in
  let back = Pcap.parse_string blob in
  Alcotest.(check int) "count" 3 (List.length back);
  List.iter2
    (fun r1 r2 ->
      Alcotest.(check bool) "ts" true (Time_ns.equal r1.Pcap.ts r2.Pcap.ts);
      Alcotest.(check string) "data" r1.Pcap.data r2.Pcap.data)
    records back;
  (* And through a file. *)
  let path = Filename.temp_file "hilti" ".pcap" in
  Pcap.write_file path records;
  let from_file = Pcap.read_file path in
  Sys.remove path;
  Alcotest.(check int) "file count" 3 (List.length from_file)

let test_pcap_rejects_junk () =
  match Pcap.parse_string "not a pcap file at all" with
  | exception Pcap.Bad_format _ -> ()
  | _ -> Alcotest.fail "junk accepted"

(* ---- Flows ------------------------------------------------------------------------------ *)

let test_flow_canonical () =
  let f = Flow.make ~src:(a "9.9.9.9") ~dst:(a "1.1.1.1") ~src_port:(Port.tcp 999) ~dst_port:(Port.tcp 80) in
  let c1, fwd = Flow.canonical f in
  let c2, _ = Flow.canonical (Flow.reverse f) in
  Alcotest.(check bool) "both directions same key" true (Flow.equal c1 c2);
  Alcotest.(check bool) "orientation detected" false fwd;
  Alcotest.(check int) "hash direction-insensitive" (Flow.hash f) (Flow.hash (Flow.reverse f))

let prop_flow_hash_symmetric =
  let octet = QCheck.Gen.int_range 1 254 in
  let gen =
    QCheck.Gen.(
      map
        (fun ((s, d), (sp, dp)) ->
          Flow.make ~src:(Addr.of_ipv4_octets 10 0 0 s) ~dst:(Addr.of_ipv4_octets 10 0 0 d)
            ~src_port:(Port.tcp (1024 + sp)) ~dst_port:(Port.tcp (1024 + dp)))
        (pair (pair octet octet) (pair (int_bound 5000) (int_bound 5000))))
  in
  qt "flow: hash(f) = hash(reverse f)" (QCheck.make gen)
    (fun f -> Flow.hash f = Flow.hash (Flow.reverse f))

(* ---- Reassembly ---------------------------------------------------------------------------- *)

let deliver_all segs =
  let out = Buffer.create 64 in
  let eof = ref false in
  let rs = Reassembly.create ~on_eof:(fun () -> eof := true) (Buffer.add_string out) in
  List.iter (fun (seq, syn, fin, data) -> Reassembly.segment rs ~seq ~syn ~fin data) segs;
  (Buffer.contents out, !eof, rs)

let test_reassembly_in_order () =
  let out, eof, _ =
    deliver_all
      [ (100l, true, false, ""); (101l, false, false, "hello "); (107l, false, false, "world");
        (112l, false, true, "") ]
  in
  Alcotest.(check string) "stream" "hello world" out;
  Alcotest.(check bool) "eof on fin" true eof

let test_reassembly_out_of_order () =
  let out, _, rs =
    deliver_all
      [ (100l, true, false, ""); (107l, false, false, "world"); (101l, false, false, "hello ") ]
  in
  Alcotest.(check string) "reordered stream" "hello world" out;
  Alcotest.(check bool) "counted ooo" true (Reassembly.out_of_order rs > 0)

let test_reassembly_overlap () =
  (* Overlapping retransmission: first arrival wins, overlap trimmed. *)
  let out, _, rs =
    deliver_all
      [ (100l, false, false, "abcdef"); (103l, false, false, "DEFghi") ]
  in
  Alcotest.(check string) "first wins" "abcdefghi" out;
  Alcotest.(check int) "overlap trimmed" 3 (Reassembly.overlaps rs)

let test_reassembly_duplicate () =
  let out, _, _ =
    deliver_all [ (100l, false, false, "abc"); (100l, false, false, "abc"); (103l, false, false, "def") ]
  in
  Alcotest.(check string) "dup dropped" "abcdef" out

(* Property: any delivery order of a segmented stream reassembles to the
   original bytes (sorted delivery of all data before checking). *)
let prop_reassembly_any_order =
  let gen =
    QCheck.Gen.(
      pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 60)) (int_range 1 7))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"reassembly: random segment order" ~count:200
       (QCheck.make gen)
       (fun (stream, chunk) ->
         (* Split into chunks, shuffle deterministically by QCheck's seed
            via sorting on a hash, deliver, compare. *)
         let segs = ref [] in
         let i = ref 0 in
         while !i < String.length stream do
           let len = min chunk (String.length stream - !i) in
           segs := (Int32.of_int (1000 + !i), String.sub stream !i len) :: !segs;
           i := !i + len
         done;
         let shuffled =
           List.sort
             (fun (s1, d1) (s2, d2) ->
               compare (Hashtbl.hash (s1, d1)) (Hashtbl.hash (s2, d2)))
             !segs
         in
         let out = Buffer.create 64 in
         let rs = Reassembly.create (Buffer.add_string out) in
         (* The SYN pins the initial sequence number, as on a real
            connection; only data segments arrive out of order. *)
         Reassembly.segment rs ~seq:999l ~syn:true ~fin:false "";
         List.iter (fun (seq, data) -> Reassembly.segment rs ~seq ~syn:false ~fin:false data) shuffled;
         Buffer.contents out = stream))

(* Sequence numbers wrap past 2^32: the SYN sits 8 below the wrap, so the
   second data segment straddles it and the rest lie above 0. *)
let wrap_segments () =
  let isn = 0xffff_fff8 in
  let at n = Int32.of_int ((isn + n) land 0xffff_ffff) in
  let data = [ "01234"; "56789"; "abcde"; "fghij" ] in
  ( (at 0, true, false, ""),
    List.mapi (fun k d -> (at (1 + (5 * k)), false, false, d)) data,
    (at 21, false, true, "") )

let test_reassembly_seq_wrap () =
  let syn, data, fin = wrap_segments () in
  let out, eof, rs = deliver_all ((syn :: data) @ [ fin ]) in
  Alcotest.(check string) "in order across the wrap" "0123456789abcdefghij" out;
  Alcotest.(check bool) "eof past the wrap" true eof;
  Alcotest.(check int) "delivered" 20 (Reassembly.delivered_bytes rs);
  Alcotest.(check int) "none buffered" 0 (Reassembly.out_of_order rs);
  (* The FIN first, then the data backwards: nothing is delivered, and the
     stream does not end, before the segment at the edge arrives. *)
  let out, eof, rs = deliver_all ((syn :: fin :: List.rev data)) in
  Alcotest.(check string) "reversed across the wrap" "0123456789abcdefghij" out;
  Alcotest.(check bool) "eof once complete" true eof;
  Alcotest.(check int) "three buffered" 3 (Reassembly.out_of_order rs);
  let out, eof, _ = deliver_all [ syn; fin; List.nth data 1; List.nth data 2 ] in
  Alcotest.(check string) "hole before the wrap" "" out;
  Alcotest.(check bool) "no eof with a hole" false eof

(* Property: slices fed through [segment_sub], each at a random offset
   inside padding, reassemble exactly as the same payloads fed through the
   string API — stream and counters alike — with duplicate and overlapping
   retransmits mixed in, from sequence bases below and across the wrap. *)
let prop_reassembly_slices =
  let gen =
    QCheck.Gen.(
      string_size ~gen:(char_range 'a' 'z') (int_range 1 60) >>= fun stream ->
      int_range 1 7 >>= fun chunk ->
      let n = String.length stream in
      let chunks = List.init ((n + chunk - 1) / chunk) (fun k -> (k * chunk, min chunk (n - (k * chunk)))) in
      list_size (int_bound 6)
        (int_bound (n - 1) >>= fun i -> int_range 1 (n - i) >|= fun l -> (i, l))
      >>= fun retransmits ->
      shuffle_l (chunks @ retransmits) >>= fun order ->
      list_repeat (List.length order) (pair (int_bound 9) (int_bound 9)) >>= fun pads ->
      oneofl [ 999; 0xffff_ffe0 ] >|= fun base ->
      (stream, base, List.combine order pads))
  in
  let print (stream, base, segs) =
    Printf.sprintf "%S base=%d segs=[%s]" stream base
      (String.concat "; "
         (List.map (fun ((i, l), (p, q)) -> Printf.sprintf "%d+%d pad %d/%d" i l p q) segs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"reassembly: slices == strings, with retransmits" ~count:300
       (QCheck.make ~print gen)
       (fun (stream, base, segs) ->
         let seq i = Int32.of_int ((base + 1 + i) land 0xffff_ffff) in
         let syn = Int32.of_int base in
         let a = Buffer.create 64 and b = Buffer.create 64 in
         let ra = Reassembly.create (Buffer.add_string a) in
         let rb = Reassembly.create_sub (Buffer.add_substring b) in
         Reassembly.segment ra ~seq:syn ~syn:true ~fin:false "";
         Reassembly.segment_sub rb ~seq:syn ~syn:true ~fin:false "pad" 1 0;
         List.iter
           (fun ((i, l), (p, q)) ->
             let data = String.sub stream i l in
             Reassembly.segment ra ~seq:(seq i) ~syn:false ~fin:false data;
             let padded = String.make p '#' ^ data ^ String.make q '#' in
             Reassembly.segment_sub rb ~seq:(seq i) ~syn:false ~fin:false padded p l)
           segs;
         Buffer.contents a = stream
         && Buffer.contents b = stream
         && Reassembly.delivered_bytes ra = Reassembly.delivered_bytes rb
         && Reassembly.overlaps ra = Reassembly.overlaps rb
         && Reassembly.out_of_order ra = Reassembly.out_of_order rb))

(* An in-order segment with nothing buffered is handed on in place:
   sequence tracking is unboxed, so no record, list cell or copy. *)
let test_reassembly_in_order_no_alloc () =
  let n = 1000 and len = 100 and hdr = 54 in
  let frame = String.make (hdr + len) 'x' in
  let total = ref 0 in
  let rs = Reassembly.create_sub (fun _ _ l -> total := !total + l) in
  let seqs = Array.init (n + 1) (fun i -> Int32.of_int (0xffff_0000 + (i * len))) in
  Reassembly.segment_sub rs ~seq:seqs.(0) ~syn:false ~fin:false frame hdr len;
  let before = Gc.minor_words () in
  for i = 1 to n do
    Reassembly.segment_sub rs ~seq:seqs.(i) ~syn:false ~fin:false frame hdr len
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 1,000 in-order segments" 0. words;
  Alcotest.(check int) "all delivered" ((n + 1) * len) !total

(* An address read off an IPv4 header is its record and its boxed [int64]
   (4 + 3 words); the 32 bits cross no module boundary as a boxed [int32]. *)
let test_ipv4_addr_at () =
  let hdr = Bytes.make 20 '\000' in
  Bytes.set_int32_be hdr 12 0xc0a80101l;
  Bytes.set_int32_be hdr 16 0xfffffffel;
  let hdr = Bytes.to_string hdr in
  Alcotest.(check string) "src" "192.168.1.1" (Addr.to_string (Ipv4.src_at hdr 0));
  Alcotest.(check string) "dst, high bit set" "255.255.255.254"
    (Addr.to_string (Ipv4.dst_at hdr 0));
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Ipv4.src_at hdr 0))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check (float 0.)) "minor words per address" 7. words

(* ---- Header peeks agree with the decoder ------------------------------------------------ *)

let sample_frames =
  lazy
    (let http =
       Hilti_traces.Http_gen.generate
         { Hilti_traces.Http_gen.default with sessions = 6; seed = 11 }
     in
     let dns =
       Hilti_traces.Dns_gen.generate
         { Hilti_traces.Dns_gen.default with transactions = 30; seed = 12 }
     in
     Array.of_list
       (List.map (fun (r : Pcap.record) -> r.Pcap.data)
          (http.Hilti_traces.Http_gen.records @ dns.Hilti_traces.Dns_gen.records)))

type mutation =
  | Keep
  | Total_length of int  (** IPv4 [total_length] this far off the frame's *)
  | Ihl of int  (** an IPv4 header length below 5 words *)
  | Tcp_offset of int  (** a TCP data offset, below 5 or up to 60 bytes *)
  | Ipv6 of int  (** re-framed as IPv6, [payload_length] this far off *)
  | Ethertype of int
  | Fragment of int  (** the IPv4 flags and fragment offset word *)
  | Byte of int * int  (** one header byte overwritten *)

let mutation_to_string = function
  | Keep -> "keep"
  | Total_length d -> Printf.sprintf "total_length%+d" d
  | Ihl v -> Printf.sprintf "ihl=%d" v
  | Tcp_offset v -> Printf.sprintf "tcp data offset=%d" v
  | Ipv6 d -> Printf.sprintf "ipv6 payload_length%+d" d
  | Ethertype e -> Printf.sprintf "ethertype=0x%04x" e
  | Fragment v -> Printf.sprintf "flags/fragment offset=0x%04x" v
  | Byte (i, v) -> Printf.sprintf "byte %d=0x%02x" i v

let set_u8 s i v =
  if i >= String.length s then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (v land 0xff));
    Bytes.to_string b
  end

let set_u16 s i v = set_u8 (set_u8 s i (v lsr 8)) (i + 1) v

(* The generated frames are well-formed IPv4: read their header directly,
   not through the decoder under test. *)
let ipv4_header_len f = (Char.code f.[14] land 0xf) * 4

let to_ipv6 f d =
  let ihl = ipv4_header_len f in
  let body_len = min (String.get_uint16_be f 16 - ihl) (String.length f - 14 - ihl) in
  let body = String.sub f (14 + ihl) body_len in
  let v6 off = Addr.of_ipv6_int64s 0x2001_0db8_0000_0000L (Int64.logand (Int64.of_int32 (String.get_int32_be f off)) 0xffff_ffffL) in
  let ip = Ipv6.encode ~next_header:(Char.code f.[23]) ~src:(v6 26) ~dst:(v6 30) body in
  set_u16
    (Ethernet.encode ~ethertype:Ethernet.ethertype_ipv6 ip)
    18 (max 0 (body_len + d))

let mutate f = function
  | Keep -> f
  | Total_length d -> set_u16 f 16 (max 0 (String.length f - 14 + d))
  | Ihl v -> set_u8 f 14 (0x40 lor v)
  | Tcp_offset v ->
      let o = 14 + ipv4_header_len f + 12 in
      if o >= String.length f then f
      else set_u8 f o ((v lsl 4) lor (Char.code f.[o] land 0x0f))
  | Ipv6 d -> to_ipv6 f d
  | Ethertype e -> set_u16 f 12 e
  | Fragment v -> set_u16 f 20 v
  | Byte (i, v) -> set_u8 f i v

let gen_mutation =
  QCheck.Gen.(
    frequency
      [ (1, return Keep);
        (2, map (fun d -> Total_length d) (int_range (-40) 40));
        (1, map (fun v -> Ihl v) (int_bound 4));
        (2, map (fun v -> Tcp_offset v) (oneof [ int_bound 4; int_range 6 15 ]));
        (2, map (fun d -> Ipv6 d) (int_range (-30) 30));
        (1, map (fun e -> Ethertype e) (oneofl [ 0x0806; 0x8100; 0x88cc; 0 ]));
        (1, map (fun v -> Fragment v) (oneofl [ 0x2000; 0x4000; 0x0001; 0x20b9; 0x1fff ]));
        (2, map2 (fun i v -> Byte (i, v)) (int_bound 60) (int_bound 255)) ])

(* Where [peek_tcp], [peek_udp], [peek_flow] or [peek_addrs] disagrees
   with [decode_opt] on [f], if anywhere. *)
let peek_disagreement f =
  let pkt = Packet.decode_opt ~ts:Time_ns.epoch f in
  let flow_is fl p = Option.equal Flow.equal (Some fl) (Packet.flow p) in
  let tcp =
    match (pkt, Packet.peek_tcp f) with
    | Some ({ Packet.transport = Packet.TCP (h, payload); _ } as p), Some (fl, h', off, len) ->
        flow_is fl p && h = h' && String.sub f off len = payload
    | Some { Packet.transport = Packet.TCP _; _ }, None -> false
    | _, Some _ -> false
    | _, None -> true
  in
  let udp =
    match (Packet.peek_udp f, pkt) with
    | Some (fl, off, len), Some ({ Packet.transport = Packet.UDP (_, payload); _ } as p) ->
        flow_is fl p && String.sub f off len = payload
    | Some _, _ | None, Some { Packet.transport = Packet.UDP _; _ } -> false
    | None, _ -> true
  in
  let flow =
    match (Packet.peek_flow f, Option.bind pkt Packet.flow) with
    | Some a, Some b -> Flow.equal a b
    | None, Some _ -> false
    | _, None -> true
  in
  let addrs =
    match (Packet.peek_addrs f, pkt) with
    | Some (s, d), Some p -> Addr.equal s (Packet.src p) && Addr.equal d (Packet.dst p)
    | None, Some _ -> false
    | _, None -> true
  in
  if not tcp then Some "peek_tcp"
  else if not udp then Some "peek_udp"
  else if not flow then Some "peek_flow"
  else if not addrs then Some "peek_addrs"
  else None

(* Property: on generated HTTP and DNS frames, mutated and then truncated
   at every length, [peek_tcp] and [peek_udp] are [Some] exactly when the
   decoder yields TCP or UDP (IPv4 or IPv6), with the same flow, header and
   payload bytes; [peek_flow] is the decoded packet's flow, and
   [peek_addrs] its addresses. *)
let prop_peeks_agree_with_decode =
  let frames = Lazy.force sample_frames in
  let gen = QCheck.Gen.(pair (int_bound (Array.length frames - 1)) gen_mutation) in
  let print (i, m) = Printf.sprintf "frame %d, %s" i (mutation_to_string m) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"packet: peek_tcp/udp/flow agree with decode_opt" ~count:200
       (QCheck.make ~print gen)
       (fun (i, m) ->
         let f = mutate frames.(i) m in
         for len = String.length f downto 0 do
           match peek_disagreement (String.sub f 0 len) with
           | Some what ->
               QCheck.Test.fail_reportf "%s disagrees on the %d-byte prefix" what len
           | None -> ()
         done;
         true))

(* A non-first IPv4 fragment carries the middle of a datagram, not a
   transport header: no entry point reads ports or a payload out of it,
   yet it keeps its addresses, so the firewall still decides on it.  A
   first fragment (offset 0, more-fragments set) still opens with one. *)
let test_later_fragment () =
  let frame =
    Packet.encode_udp ~src:(a "10.0.0.1") ~dst:(a "10.0.0.2") ~src_port:5353
      ~dst_port:53 "\x12\x34\x01\x00 rest of a query"
  in
  let later = set_u16 frame 20 0x20b9 and first = set_u16 frame 20 0x2000 in
  Alcotest.(check bool) "no peek_udp" true (Packet.peek_udp later = None);
  Alcotest.(check bool) "no peek_flow" true (Packet.peek_flow later = None);
  Alcotest.(check bool) "no peek_tcp" true (Packet.peek_tcp later = None);
  (match Packet.peek_addrs later with
  | Some (s, d) ->
      Alcotest.(check string) "addrs" "10.0.0.1 > 10.0.0.2"
        (Addr.to_string s ^ " > " ^ Addr.to_string d)
  | None -> Alcotest.fail "peek_addrs rejected a fragment");
  (match Packet.decode_opt ~ts:Time_ns.epoch later with
  | Some { Packet.transport = Packet.Other (17, payload); _ } ->
      Alcotest.(check string) "the whole IP payload" (String.sub frame 34 (String.length frame - 34))
        payload
  | _ -> Alcotest.fail "a later fragment is not decoded as Other");
  match Packet.peek_udp first with
  | Some (fl, _, _) ->
      Alcotest.(check string) "first fragment" "10.0.0.1:5353 > 10.0.0.2:53/udp" (Flow.to_string fl)
  | None -> Alcotest.fail "a first fragment has no UDP header"

let suite =
  [ Alcotest.test_case "internet checksum" `Quick test_checksum;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "full packet decode" `Quick test_full_packet_decode;
    Alcotest.test_case "truncated frames rejected" `Quick test_truncated_frames;
    Alcotest.test_case "ip length bounds the payload" `Quick test_ip_length_bounds_payload;
    Alcotest.test_case "ipv4 later fragments have no transport" `Quick test_later_fragment;
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap rejects junk" `Quick test_pcap_rejects_junk;
    Alcotest.test_case "flow canonicalization" `Quick test_flow_canonical;
    prop_flow_hash_symmetric;
    Alcotest.test_case "reassembly in order" `Quick test_reassembly_in_order;
    Alcotest.test_case "reassembly out of order" `Quick test_reassembly_out_of_order;
    Alcotest.test_case "reassembly overlap" `Quick test_reassembly_overlap;
    Alcotest.test_case "reassembly duplicate" `Quick test_reassembly_duplicate;
    prop_reassembly_any_order;
    Alcotest.test_case "reassembly seq wrap" `Quick test_reassembly_seq_wrap;
    prop_reassembly_slices;
    Alcotest.test_case "reassembly in order allocates nothing" `Quick
      test_reassembly_in_order_no_alloc;
    prop_peeks_agree_with_decode;
    Alcotest.test_case "ipv4 addresses box no int32" `Quick test_ipv4_addr_at ]
