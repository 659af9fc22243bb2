(* The flow-sharded data plane: shard-hash symmetry (QCheck), the SPSC
   batch ring under real domain concurrency, Shard_plane's order guarantee,
   and the headline property — serial and sharded runs produce byte-identical
   logs on the DNS and firewall paths. *)

open Hilti_types
open Hilti_net
open Hilti_analyzers

let qt name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen prop)

(* ---- Shard hashing ----------------------------------------------------------- *)

let flow_gen =
  let octet = QCheck.Gen.int_range 1 254 in
  QCheck.Gen.(
    map
      (fun (((a, b), (c, d)), (sp, dp), tcp) ->
        let src = Addr.of_ipv4_octets 10 a b c in
        let dst = Addr.of_ipv4_octets 10 c d a in
        let mk = if tcp then Port.tcp else Port.udp in
        Flow.make ~src ~dst ~src_port:(mk sp) ~dst_port:(mk dp))
      (triple
         (pair (pair octet octet) (pair octet octet))
         (pair (int_range 1 65535) (int_range 1 65535))
         bool))

let test_shard_symmetric =
  qt "both directions of a flow hash to the same shard" (QCheck.make flow_gen)
    (fun flow ->
      List.for_all
        (fun shards ->
          let s = Flow.shard ~shards flow in
          s >= 0 && s < shards && Flow.shard ~shards (Flow.reverse flow) = s)
        [ 1; 2; 3; 4; 7; 8 ])

let test_host_pair_symmetric =
  qt "host-pair hash ignores direction and ports" (QCheck.make flow_gen)
    (fun flow ->
      Flow.host_pair_hash flow.Flow.src flow.Flow.dst
      = Flow.host_pair_hash flow.Flow.dst flow.Flow.src)

(* ---- Spsc_ring --------------------------------------------------------------- *)

let test_ring_stress () =
  let n = 20_000 in
  let ring = Hilti_rt.Spsc_ring.create ~capacity:4 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Hilti_rt.Spsc_ring.push ring i
        done;
        Hilti_rt.Spsc_ring.close ring)
  in
  let received = ref [] in
  let rec drain () =
    match Hilti_rt.Spsc_ring.pop ring with
    | Some v ->
        received := v :: !received;
        drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check int) "no loss" n (List.length !received);
  Alcotest.(check bool) "no reorder" true
    (List.rev !received = List.init n Fun.id)

let test_ring_close_with_pending () =
  let ring = Hilti_rt.Spsc_ring.create ~capacity:8 () in
  for i = 0 to 4 do
    Alcotest.(check bool) "push accepted" true (Hilti_rt.Spsc_ring.try_push ring i)
  done;
  Hilti_rt.Spsc_ring.close ring;
  (* Close drains, not drops: everything pushed stays poppable. *)
  for i = 0 to 4 do
    Alcotest.(check (option int))
      (Printf.sprintf "pending %d survives close" i)
      (Some i) (Hilti_rt.Spsc_ring.pop ring)
  done;
  Alcotest.(check (option int)) "then end-of-stream" None (Hilti_rt.Spsc_ring.pop ring);
  Alcotest.check_raises "push after close" Hilti_rt.Spsc_ring.Closed (fun () ->
      ignore (Hilti_rt.Spsc_ring.try_push ring 99))

let test_ring_backpressure () =
  (* Tiny ring, slow consumer: the producer must block (not drop, not
     crash) and everything still arrives in order. *)
  let n = 100 in
  let ring = Hilti_rt.Spsc_ring.create ~capacity:2 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Hilti_rt.Spsc_ring.push ring i
        done;
        Hilti_rt.Spsc_ring.close ring)
  in
  let received = ref [] in
  let rec drain () =
    if List.length !received land 7 = 0 then Domain.cpu_relax ();
    match Hilti_rt.Spsc_ring.pop ring with
    | Some v ->
        received := v :: !received;
        drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "ordered through backpressure"
    (List.init n Fun.id) (List.rev !received)

(* ---- Shard_plane ------------------------------------------------------------- *)

(* The same schedule at every shard count: [before] for every packet and
   [consume] for every result, both in global sequence order. *)
let test_plane_order () =
  let n = 1_000 in
  let packets =
    List.init n (fun i ->
        { Hilti_rt.Iosrc.ts = Time_ns.of_ns (Int64.of_int i);
          data = string_of_int i })
  in
  List.iter
    (fun shards ->
      let before_seqs = ref [] and consumed = ref [] in
      let stats =
        Hilti_par.Shard_plane.run ~shards ~batch:64 ~ring:4 ~timing:Untimed
          ~shard_of:(fun p -> int_of_string p.Hilti_rt.Iosrc.data mod shards)
          ~init:(fun sid -> sid)
          ~process:(fun _sid ~seq:_ p ->
            let i = int_of_string p.Hilti_rt.Iosrc.data in
            if i land 1 = 0 then Some i else None)
          ~before:(fun ~seq ~ts:_ -> before_seqs := seq :: !before_seqs)
          ~consume:(fun ~seq out -> consumed := (seq, out) :: !consumed)
          (Hilti_rt.Iosrc.of_list packets)
      in
      let at what = Printf.sprintf "%s at %d shards" what shards in
      Alcotest.(check int) (at "every packet observed") n
        stats.Hilti_par.Shard_plane.packets;
      Alcotest.(check (list int)) (at "before runs in global sequence order")
        (List.init n Fun.id) (List.rev !before_seqs);
      Alcotest.(check (list (pair int int)))
        (at "results consumed in sequence order")
        (List.filter_map (fun i -> if i land 1 = 0 then Some (i, i) else None)
           (List.init n Fun.id))
        (List.rev !consumed))
    [ 0; 3 ]

(* ---- Byte-identical logs: DNS ------------------------------------------------ *)

let dns_records =
  lazy
    (let cfg = { Hilti_traces.Dns_gen.default with transactions = 150; seed = 99 } in
     (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records)

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let dns_log ?jobs ?idle_timeout kind =
  let r =
    Driver.evaluate_src ~proto:(`Dns kind)
      ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
      ?jobs ?idle_timeout
      (Pcap.iosrc_of_records (Lazy.force dns_records))
  in
  Mini_bro.Bro_log.to_string r.Driver.logger "dns"

let test_dns_identical_std () =
  let serial = dns_log Driver.Dns_std in
  Alcotest.(check bool) "log is non-trivial" true (String.length serial > 1000);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "dns.log identical at %d shards" jobs)
        serial
        (dns_log ~jobs Driver.Dns_std))
    [ 1; 2; 4 ]

let test_dns_identical_pac () =
  let serial = dns_log (Driver.Dns_pac (Dns_pac.load ())) in
  Alcotest.(check string) "BinPAC++ dns.log identical at 2 shards" serial
    (dns_log ~jobs:2 (Driver.Dns_pac (Dns_pac.load ())))

let test_dns_identical_idle_timeout () =
  (* Eviction timers run on the collector in sequence order, so idle
     timeouts must not break the byte-identical guarantee either.  The
     timeout is shorter than many query->reply latencies, so connections
     really do get evicted and re-created (fresh uids) mid-trace. *)
  let idle_timeout = Interval_ns.of_msecs 10 in
  let serial = dns_log ~idle_timeout Driver.Dns_std in
  Alcotest.(check bool) "evictions fired" true
    (let r =
       Driver.evaluate_src ~proto:(`Dns Driver.Dns_std)
         ~engine_mode:Mini_bro.Bro_engine.Interpreted
         ~scripts:(Lazy.force scripts) ~idle_timeout
         (Pcap.iosrc_of_records (Lazy.force dns_records))
     in
     r.Driver.stats.Driver.evicted > 0)
  ;
  Alcotest.(check string) "dns.log identical with eviction at 2 shards" serial
    (dns_log ~jobs:2 ~idle_timeout Driver.Dns_std)

(* The Fig. 9/10 breakdown does not depend on the shard count: workers
   charge their parse passes to the parse profiler and the collector its
   event replay to the script profiler. *)
let test_dns_sharded_breakdown () =
  let r =
    Driver.evaluate_src ~proto:(`Dns Driver.Dns_std)
      ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
      ~jobs:2
      (Pcap.iosrc_of_records (Lazy.force dns_records))
  in
  Alcotest.(check bool) "parse time recorded at 2 shards" true
    (r.Driver.parse_ns > 0L);
  Alcotest.(check bool) "script time recorded at 2 shards" true
    (r.Driver.script_ns > 0L)

(* The batched zero-copy loop against the pre-batching per-packet loop:
   without eviction timers the batch-granular epoch placement must not
   change the event stream at all, so the two loops are differential
   oracles for each other (slice decode vs string decode, arena vs fresh
   records, one epoch per batch vs per packet). *)
let test_dns_batched_vs_unbatched () =
  let record_events run =
    let buf = Buffer.create 8192 in
    let sink =
      { Events.raise_event =
          (fun name args ->
            Buffer.add_string buf name;
            List.iter
              (fun v ->
                Buffer.add_char buf ' ';
                Buffer.add_string buf (Mini_bro.Bro_val.to_string v))
              args;
            Buffer.add_char buf '\n');
        set_time = (fun _ -> ()) }
    in
    ignore (run sink);
    Buffer.contents buf
  in
  let src () = Pcap.iosrc_of_records (Lazy.force dns_records) in
  let unbatched =
    record_events (fun sink ->
        Driver.run_dns_src_unbatched ~kind:Driver.Dns_std ~sink (src ()))
  in
  Alcotest.(check bool) "event stream is non-trivial" true
    (String.length unbatched > 1000);
  Alcotest.(check string) "batched loop emits the identical event stream"
    unbatched
    (record_events (fun sink ->
         Driver.run_dns_src ~kind:Driver.Dns_std ~sink (src ())));
  Alcotest.(check string) "odd batch sizes change nothing" unbatched
    (record_events (fun sink ->
         Driver.run_dns_src ~kind:Driver.Dns_std ~sink ~batch:7 (src ())))

(* ---- Byte-identical logs: firewall ------------------------------------------- *)

let fw_rules =
  Hilti_firewall.Fw_rules.parse_rules
    {|
10.3.2.1/32 10.1.0.0/16 allow
10.12.0.0/16 10.1.0.0/16 deny
10.1.6.0/24 * allow
10.1.7.0/24 * allow
|}

(* Bidirectional traffic with strictly increasing timestamps spanning the
   firewall's 300 s dynamic-rule expiry, so per-shard trace clocks and rule
   installation/expiry all get exercised. *)
let fw_frames =
  lazy
    (let t0 = Time_ns.of_secs 1_400_000_000 in
     let rng = Random.State.make [| 4711 |] in
     let pool =
       [|
         "10.3.2.1"; "10.1.44.1"; "10.12.9.9"; "10.1.6.20"; "10.1.6.21";
         "10.1.7.7"; "99.99.99.99"; "88.88.88.88"; "10.1.50.2"; "172.16.0.9";
       |]
     in
     List.init 400 (fun i ->
         let pick () = pool.(Random.State.int rng (Array.length pool)) in
         let ts = Time_ns.add t0 (Int64.of_int (i * 2_000_000_000)) in
         let src = Addr.of_string (pick ()) and dst = Addr.of_string (pick ()) in
         let frame =
           Packet.encode_udp ~src ~dst
             ~src_port:(1024 + Random.State.int rng 40000)
             ~dst_port:(1024 + Random.State.int rng 1000)
             "payload"
         in
         { Hilti_rt.Iosrc.ts; data = frame }))

let test_firewall_identical () =
  let serial = Buffer.create 4096 in
  let fw = Hilti_firewall.Fw_hilti.load fw_rules in
  let stats =
    Driver.run_firewall_src ~fw
      ~emit:(fun line ->
        Buffer.add_string serial line;
        Buffer.add_char serial '\n')
      (Hilti_rt.Iosrc.of_list (Lazy.force fw_frames))
  in
  Alcotest.(check int) "every frame decided" 400 stats.Driver.events;
  List.iter
    (fun shards ->
      let out = Buffer.create 4096 in
      let sharded_stats =
        Driver.run_firewall_sharded_src ~shards ~batch:32 ~ring:4
          ~mk_fw:(fun _ -> Hilti_firewall.Fw_hilti.load fw_rules)
          ~emit:(fun line ->
            Buffer.add_string out line;
            Buffer.add_char out '\n')
          (Hilti_rt.Iosrc.of_list (Lazy.force fw_frames))
      in
      Alcotest.(check int)
        (Printf.sprintf "all packets through %d shards" shards)
        400 sharded_stats.Driver.packets;
      Alcotest.(check string)
        (Printf.sprintf "decision log identical at %d shards" shards)
        (Buffer.contents serial) (Buffer.contents out))
    [ 1; 2; 4 ]

(* ---- Error propagation ------------------------------------------------------- *)

exception Boom

let test_plane_error_propagates () =
  let packets =
    List.init 100 (fun i ->
        { Hilti_rt.Iosrc.ts = Time_ns.of_ns (Int64.of_int i);
          data = string_of_int i })
  in
  Alcotest.check_raises "shard exception re-raised on the dispatcher" Boom
    (fun () ->
      ignore
        (Hilti_par.Shard_plane.run ~shards:2 ~batch:8 ~ring:2 ~timing:Untimed
           ~shard_of:(fun p -> int_of_string p.Hilti_rt.Iosrc.data mod 2)
           ~init:(fun sid -> sid)
           ~process:(fun sid ~seq (_ : Hilti_rt.Iosrc.packet) ->
             if sid = 1 && seq > 40 then raise Boom else Some seq)
           ~before:(fun ~seq:_ ~ts:_ -> ())
           ~consume:(fun ~seq:_ (_ : int) -> ())
           (Hilti_rt.Iosrc.of_list packets)))

let suite =
  [
    test_shard_symmetric;
    test_host_pair_symmetric;
    Alcotest.test_case "SPSC ring: cross-domain stress" `Quick test_ring_stress;
    Alcotest.test_case "SPSC ring: close with pending" `Quick
      test_ring_close_with_pending;
    Alcotest.test_case "SPSC ring: backpressure" `Quick test_ring_backpressure;
    Alcotest.test_case "Shard_plane: order preserved" `Quick test_plane_order;
    Alcotest.test_case "Shard_plane: errors propagate" `Quick
      test_plane_error_propagates;
    Alcotest.test_case "DNS logs byte-identical (std, 1/2/4 shards)" `Quick
      test_dns_identical_std;
    Alcotest.test_case "DNS logs byte-identical (BinPAC++)" `Quick
      test_dns_identical_pac;
    Alcotest.test_case "DNS parse/script breakdown at 2 shards" `Quick
      test_dns_sharded_breakdown;
    Alcotest.test_case "DNS batched loop identical to unbatched oracle" `Quick
      test_dns_batched_vs_unbatched;
    Alcotest.test_case "DNS logs byte-identical under eviction" `Quick
      test_dns_identical_idle_timeout;
    Alcotest.test_case "firewall logs byte-identical (1/2/4 shards)" `Quick
      test_firewall_identical;
  ]
