(* The synthetic workload generator (the §6.1 trace substitute): determinism,
   wire-level well-formedness, and the properties the evaluation relies on. *)

open Hilti_net

let test_http_deterministic () =
  let cfg = { Hilti_traces.Http_gen.default with sessions = 10; seed = 5 } in
  let t1 = Hilti_traces.Http_gen.generate cfg in
  let t2 = Hilti_traces.Http_gen.generate cfg in
  Alcotest.(check int) "same packet count"
    (List.length t1.Hilti_traces.Http_gen.records)
    (List.length t2.Hilti_traces.Http_gen.records);
  List.iter2
    (fun (a : Pcap.record) (b : Pcap.record) ->
      Alcotest.(check string) "identical bytes" a.Pcap.data b.Pcap.data)
    t1.Hilti_traces.Http_gen.records t2.Hilti_traces.Http_gen.records

let test_http_decodes_and_is_ordered () =
  let cfg = { Hilti_traces.Http_gen.default with sessions = 20; seed = 6 } in
  let t = Hilti_traces.Http_gen.generate cfg in
  let last = ref Hilti_types.Time_ns.epoch in
  let tcp = ref 0 in
  List.iter
    (fun (r : Pcap.record) ->
      Alcotest.(check bool) "timestamps non-decreasing" true
        (Hilti_types.Time_ns.compare !last r.Pcap.ts <= 0);
      last := r.Pcap.ts;
      match Packet.decode_opt ~ts:r.Pcap.ts r.Pcap.data with
      | Some { Packet.transport = Packet.TCP _; _ } -> incr tcp
      | Some _ -> ()
      | None -> Alcotest.fail "generated undecodable frame")
    t.Hilti_traces.Http_gen.records;
  Alcotest.(check bool) "mostly TCP" true
    (!tcp = List.length t.Hilti_traces.Http_gen.records)

let test_http_ground_truth_matches_parse () =
  (* Every generated transaction is recovered by the standard HTTP parser. *)
  let cfg =
    { Hilti_traces.Http_gen.default with sessions = 20; seed = 7; reorder_prob = 0.0;
      crud_prob = 0.0 }
  in
  let t = Hilti_traces.Http_gen.generate cfg in
  let expected =
    List.fold_left
      (fun acc (_, txs) -> acc + List.length txs)
      0 t.Hilti_traces.Http_gen.transactions
  in
  let requests = ref 0 and replies = ref 0 in
  let sink =
    { Hilti_analyzers.Events.raise_event =
        (fun name _ ->
          if name = "http_request" then incr requests
          else if name = "http_reply" then incr replies);
      set_time = (fun _ -> ()) }
  in
  ignore
    (Hilti_analyzers.Driver.run_http_src ~kind:Hilti_analyzers.Driver.Http_std ~sink
       (Pcap.iosrc_of_records t.Hilti_traces.Http_gen.records));
  Alcotest.(check int) "all requests parsed" expected !requests;
  Alcotest.(check int) "all replies parsed" expected !replies

let test_dns_decodes () =
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 100; seed = 8; crud_prob = 0.0 } in
  let t = Hilti_traces.Dns_gen.generate cfg in
  let parsed = ref 0 and compression_seen = ref false in
  List.iter
    (fun (r : Pcap.record) ->
      match Packet.decode_opt ~ts:r.Pcap.ts r.Pcap.data with
      | Some { Packet.transport = Packet.UDP (_, payload); _ } -> (
          match Hilti_analyzers.Dns_std.parse payload with
          | msg ->
              incr parsed;
              if msg.Hilti_analyzers.Dns_std.is_response
                 && List.exists
                      (fun rr -> rr.Hilti_analyzers.Dns_std.rname <> "")
                      msg.Hilti_analyzers.Dns_std.answers
              then compression_seen := true
          | exception Hilti_analyzers.Dns_std.Bad_dns e ->
              Alcotest.failf "generated bad DNS: %s" e)
      | _ -> Alcotest.fail "non-UDP in DNS trace")
    t.Hilti_traces.Dns_gen.records;
  Alcotest.(check int) "all datagrams parse" (2 * 100) !parsed;
  Alcotest.(check bool) "compression pointers exercised" true !compression_seen

let test_dns_ground_truth () =
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 50; seed = 9; crud_prob = 0.0 } in
  let t = Hilti_traces.Dns_gen.generate cfg in
  List.iter
    (fun (tx : Hilti_traces.Dns_gen.transaction) ->
      let wire = Hilti_traces.Dns_gen.encode_message tx.Hilti_traces.Dns_gen.reply in
      let parsed = Hilti_analyzers.Dns_std.parse wire in
      Alcotest.(check int) "id" tx.Hilti_traces.Dns_gen.query.Hilti_traces.Dns_gen.id
        parsed.Hilti_analyzers.Dns_std.id;
      Alcotest.(check string) "qname"
        tx.Hilti_traces.Dns_gen.query.Hilti_traces.Dns_gen.qname
        parsed.Hilti_analyzers.Dns_std.qname)
    t.Hilti_traces.Dns_gen.transactions

let test_rng_weighted () =
  let rng = Hilti_traces.Rng.create 42 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let v = Hilti_traces.Rng.weighted rng [ (90, "common"); (10, "rare") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let common = Option.value ~default:0 (Hashtbl.find_opt counts "common") in
  Alcotest.(check bool) "roughly weighted" true (common > 8500 && common < 9500)

(* The generator's exact bytes: timestamps, lengths and frames of every
   record, for the default trace and for one where half the sessions are
   crud. *)
let records_digest cfg =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (r : Hilti_net.Pcap.record) ->
      Printf.bprintf b "%Ld %d " (Hilti_types.Time_ns.to_ns r.Hilti_net.Pcap.ts) r.orig_len;
      Buffer.add_string b r.data)
    (Hilti_traces.Http_gen.generate cfg).Hilti_traces.Http_gen.records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_http_pinned_digest () =
  let open Hilti_traces.Http_gen in
  Alcotest.(check string) "default trace" "f0efbbe759a135b56cbd47d3c25cb2de" (records_digest default);
  Alcotest.(check string) "crud-heavy trace" "92b2c8dd2133189b8a688a99da8e379b"
    (records_digest { default with sessions = 40; crud_prob = 0.5 })

let suite =
  [ Alcotest.test_case "http deterministic" `Quick test_http_deterministic;
    Alcotest.test_case "http ordered and decodable" `Quick test_http_decodes_and_is_ordered;
    Alcotest.test_case "http ground truth recovered" `Quick test_http_ground_truth_matches_parse;
    Alcotest.test_case "dns decodable" `Quick test_dns_decodes;
    Alcotest.test_case "dns ground truth" `Quick test_dns_ground_truth;
    Alcotest.test_case "rng weighted choice" `Quick test_rng_weighted;
    Alcotest.test_case "http records pinned" `Quick test_http_pinned_digest ]
