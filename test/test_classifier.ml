(* The decision-diagram classifier: hash-cons sharing invariants,
   reduction idempotence, incremental table deltas, and the three-way
   differential (linear reference == FDD == lowered HILTI bytecode under
   both generic and specialized opcodes). *)

open Hilti_types
module Fdd = Hilti_classifier.Fdd
module Acl = Hilti_classifier.Acl
module Compile = Hilti_classifier.Compile
module Table = Hilti_classifier.Table
module Lower = Hilti_classifier.Lower_fdd

(* ---- Generators over a deliberately small universe so rules overlap ---- *)

let some_nets =
  [| "10.0.0.0/8"; "10.1.0.0/16"; "10.1.7.0/24"; "192.168.1.0/24";
     "192.168.1.77/32"; "172.16.0.0/12"; "10.1.7.128/25" |]

let some_ports = [| 22; 53; 80; 443; 8080 |]

let gen_rule =
  QCheck.Gen.(
    let opt g = frequency [ (1, return None); (2, map Option.some g) ] in
    let net = map (fun i -> Network.of_string some_nets.(i)) (int_bound 6) in
    let port_range =
      oneof
        [ map (fun i -> (some_ports.(i), some_ports.(i))) (int_bound 4);
          map2
            (fun a b -> (min a b, max a b))
            (int_bound 65535) (int_bound 65535) ]
    in
    let proto = oneofl [ 1; 6; 17 ] in
    map
      (fun ((proto, src, dst), (sport, dport, action)) ->
        { Acl.proto; src; dst; sport; dport; action })
      (pair
         (triple (opt proto) (opt net) (opt net))
         (triple (opt port_range) (opt port_range) bool)))

(* Keys biased to land inside the rule universe about half the time. *)
let gen_key =
  QCheck.Gen.(
    let addr =
      oneof
        [ map
            (fun i ->
              let n = Network.of_string some_nets.(i) in
              Addr.to_ipv4_int (Network.prefix n))
            (int_bound 6);
          map (fun h -> 0x0a010700 lor (h land 0xff)) (int_bound 255);
          int_bound 0xFFFFFFFF ]
    in
    let port = oneof [ map (fun i -> some_ports.(i)) (int_bound 4); int_bound 65535 ] in
    map
      (fun ((proto, src, dst), (sport, dport)) ->
        { Fdd.proto; src; dst; sport; dport })
      (pair (triple (oneofl [ 1; 6; 17 ]) addr addr) (pair port port)))

let gen_rules = QCheck.Gen.(list_size (int_range 1 12) gen_rule)
let gen_keys = QCheck.Gen.(list_size (int_range 5 40) gen_key)

(* A TCP/UDP frame whose decoded classification key is [k] (ICMP keys get
   proto 1 via a raw IPv4 payload and classify with ports 0). *)
let frame_of_key (k : Fdd.key) =
  let src = Addr.of_ipv4_int32 (Int32.of_int k.Fdd.src) in
  let dst = Addr.of_ipv4_int32 (Int32.of_int k.Fdd.dst) in
  match k.Fdd.proto with
  | 6 ->
      Hilti_net.Packet.encode_tcp ~src ~dst ~src_port:k.Fdd.sport
        ~dst_port:k.Fdd.dport ~seq:1l ~ack:0l ~flags:Hilti_net.Tcp.flag_ack "x"
  | _ ->
      Hilti_net.Packet.encode_udp ~src ~dst ~src_port:k.Fdd.sport
        ~dst_port:k.Fdd.dport "x"

(* ---- Hash-cons sharing --------------------------------------------------- *)

let test_sharing () =
  let mgr = Fdd.create_mgr () in
  let n = Network.of_string "10.1.7.0/24" in
  let a = Compile.net_pred mgr ~base:Fdd.src_base n in
  let b = Compile.net_pred mgr ~base:Fdd.src_base n in
  Alcotest.(check bool) "structurally equal => physically equal" true (a == b);
  Alcotest.(check int) "a /24 test is a 24-node path" 24 (Fdd.size a);
  (* Rebuilding an existing predicate allocates nothing: every mk is a
     unique-table hit. *)
  let before = Fdd.live_nodes mgr in
  let c =
    Compile.net_pred mgr ~base:Fdd.src_base (Network.of_string "10.1.7.128/25")
  in
  let after_new = Fdd.live_nodes mgr in
  let _ = Compile.net_pred mgr ~base:Fdd.src_base (Network.of_string "10.1.7.128/25") in
  Alcotest.(check int) "rebuild adds zero nodes" after_new (Fdd.live_nodes mgr);
  Alcotest.(check bool) "fresh /25 did allocate" true
    (after_new > before && Fdd.size c = 25);
  (* mk with physically equal children collapses the test. *)
  let h = Fdd.leaf_true in
  Alcotest.(check bool) "mk collapses equal children" true
    (Fdd.mk mgr 3 ~hi:h ~lo:h == h);
  (* Leaves are canonical. *)
  Alcotest.(check bool) "canonical leaves" true (Fdd.leaf 1 == Fdd.leaf_true)

let test_reduction_idempotent () =
  let mgr = Fdd.create_mgr () in
  let rules =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |]) gen_rules
  in
  let a = Compile.of_rules mgr rules in
  let b = Compile.of_rules mgr rules in
  Alcotest.(check bool) "recompilation is a cache hit" true (a == b);
  (* The identity leaf-map rebuilds through mk and must come back
     physically identical (the diagram is already reduced). *)
  Alcotest.(check bool) "identity map_leaves is identity" true
    (Fdd.map_leaves mgr (fun v -> v) a == a);
  Alcotest.(check bool) "depth bounded by layout" true (Fdd.depth a <= Fdd.nvars)

(* ---- Differential: linear == FDD (QCheck) -------------------------------- *)

let test_fdd_matches_linear =
  QCheck.Test.make ~count:60 ~name:"fdd verdicts == linear reference"
    (QCheck.make
       QCheck.Gen.(triple gen_rules gen_keys bool)
       ~print:(fun (rules, _, d) ->
         Printf.sprintf "default=%b\n%s" d
           (String.concat "\n" (List.map Acl.to_string rules))))
    (fun (rules, keys, default) ->
      let mgr = Fdd.create_mgr () in
      let fdd = Compile.of_rules mgr ~default rules in
      List.for_all
        (fun k ->
          Acl.linear_match ~default rules k = (Fdd.eval fdd k = 1))
        keys)

(* ---- Differential: linear == FDD == lowered bytecode ---------------------- *)

let check_three_way ~specialize rules keys =
  let mgr = Fdd.create_mgr () in
  let fdd = Compile.of_rules mgr rules in
  let _, run = Lower.load ~specialize fdd in
  List.iter
    (fun k ->
      let expect = Acl.linear_match rules k in
      Alcotest.(check bool) "fdd == linear" expect (Fdd.eval fdd k = 1);
      Alcotest.(check bool)
        (if specialize then "bytecode (specialized) == linear"
         else "bytecode (generic) == linear")
        expect
        (run (frame_of_key k)))
    keys

let test_lowered_differential () =
  let rand = Random.State.make [| 7; 2026 |] in
  for _ = 1 to 3 do
    let rules = QCheck.Gen.generate1 ~rand gen_rules in
    let keys =
      (* Port-carrying keys only: the linear reference sees decoded TCP/UDP
         ports, and frame_of_key emits TCP for proto 6, UDP otherwise. *)
      List.map
        (fun k -> if k.Fdd.proto = 1 then { k with Fdd.proto = 17 } else k)
        (QCheck.Gen.generate1 ~rand gen_keys)
    in
    check_three_way ~specialize:false rules keys;
    check_three_way ~specialize:true rules keys
  done

let test_lowered_fail_safe () =
  let mgr = Fdd.create_mgr () in
  let fdd =
    Compile.of_rules mgr
      [ { Acl.any with Acl.dport = Some (80, 80); action = true } ]
  in
  let _, run = Lower.load fdd in
  Alcotest.(check bool) "truncated frame rejected" false (run "\x08\x00junk");
  let _, run_def = Lower.load ~default:true fdd in
  Alcotest.(check bool) "non-IPv4 takes default" true
    (run_def (String.make 14 '\x00'))

(* ---- BPF front end -------------------------------------------------------- *)

let test_bpf_frontend () =
  let mgr = Fdd.create_mgr () in
  let filter = "tcp and (dst port 80 or dst portrange 8000-8080) and src net 10.0.0.0/8" in
  let fdd = Compile.of_bpf mgr filter in
  let prog = Hilti_bpf.Bpf_vm.compile (Hilti_bpf.Bpf_expr.parse filter) in
  let rand = Random.State.make [| 99 |] in
  let keys =
    List.map
      (fun k -> if k.Fdd.proto = 1 then { k with Fdd.proto = 6 } else k)
      (QCheck.Gen.generate ~n:80 ~rand gen_key)
  in
  List.iter
    (fun k ->
      let frame = frame_of_key k in
      Alcotest.(check bool)
        "bpf vm == fdd"
        (Hilti_bpf.Bpf_vm.matches prog frame)
        (Fdd.eval fdd k = 1))
    keys

(* ---- Incremental table ----------------------------------------------------- *)

let test_table_incremental () =
  let rand = Random.State.make [| 5; 11 |] in
  let rules = QCheck.Gen.generate1 ~rand gen_rules in
  let keys = QCheck.Gen.generate ~n:30 ~rand gen_key in
  let t = Table.create rules in
  let check_agrees current =
    List.iter
      (fun k ->
        Alcotest.(check bool) "table == linear"
          (Acl.linear_match current k)
          (Table.match_key t k))
      keys
  in
  check_agrees rules;
  (* Insert at the front: highest priority. *)
  let r_new = { Acl.any with Acl.proto = Some 6; action = true } in
  let id = Table.insert ~pos:0 t r_new in
  check_agrees (r_new :: rules);
  Alcotest.(check int) "rule count up" (List.length rules + 1) (Table.rule_count t);
  Alcotest.(check bool) "remove hits" true (Table.remove t id);
  check_agrees rules;
  Alcotest.(check bool) "remove of absent id is a no-op" false (Table.remove t id)

let test_table_metrics () =
  Hilti_obs.Metrics.with_enabled true (fun () ->
      let t =
        Table.create
          [ { Acl.any with Acl.src = Some (Network.of_string "10.0.0.0/8");
              action = true } ]
      in
      ignore
        (Table.match_key t
           (Acl.key ~proto:6 ~src:(Addr.of_string "10.2.3.4")
              ~dst:(Addr.of_string "1.1.1.1") ~sport:1 ~dport:2));
      let samples = Hilti_obs.Metrics.scrape () in
      Alcotest.(check bool) "recompile counted" true
        (match Hilti_obs.Metrics.find_counter samples "classifier_recompiles_total" with
        | Some v -> v >= 1
        | None -> false);
      Alcotest.(check bool) "node gauge live" true (Table.node_count t > 0))

(* ---- Firewall glue ---------------------------------------------------------- *)

let test_fw_normalize () =
  let rules =
    Hilti_firewall.Fw_rules.parse_rules
      "10.1.0.0/16 * allow\n* 10.2.0.0/16 deny\n10.1.0.0/16 * deny\n* * allow"
  in
  Hilti_obs.Metrics.with_enabled true (fun () ->
      let kept = Hilti_firewall.Fw_rules.normalize rules in
      Alcotest.(check int) "shadowed rule dropped" 3 (List.length kept);
      let samples = Hilti_obs.Metrics.scrape () in
      Alcotest.(check bool) "shadow counter bumped" true
        (match Hilti_obs.Metrics.find_counter samples "fw_rules_shadowed_total" with
        | Some v -> v >= 1
        | None -> false);
      (* Normalization must not change verdicts. *)
      let mgr = Fdd.create_mgr () in
      let a = Compile.of_fw mgr rules and b = Compile.of_fw mgr kept in
      Alcotest.(check bool) "same diagram after normalize" true (a == b))

let test_fw_differential () =
  let rules =
    Hilti_firewall.Fw_rules.parse_rules
      "10.3.2.1/32 10.1.0.0/16 allow\n* 10.1.7.0/24 deny\n10.0.0.0/8 * allow"
  in
  let reference = Hilti_firewall.Fw_rules.reference rules in
  let mgr = Fdd.create_mgr () in
  let fdd = Compile.of_fw mgr rules in
  let addrs =
    [ "10.3.2.1"; "10.1.7.3"; "10.1.9.9"; "10.200.0.1"; "192.168.1.1"; "8.8.8.8" ]
  in
  List.iter
    (fun s ->
      List.iter
        (fun d ->
          if s <> d then begin
            let src = Addr.of_string s and dst = Addr.of_string d in
            let expect =
              Hilti_firewall.Fw_rules.static_action reference src dst
              = Hilti_firewall.Fw_rules.Allow
            in
            let k = Acl.key ~proto:6 ~src ~dst ~sport:1234 ~dport:80 in
            Alcotest.(check bool)
              (Printf.sprintf "fw %s->%s" s d)
              expect
              (Fdd.eval fdd k = 1)
          end)
        addrs)
    addrs

let suite =
  [ Alcotest.test_case "hash-cons sharing" `Quick test_sharing;
    Alcotest.test_case "reduction idempotence" `Quick test_reduction_idempotent;
    QCheck_alcotest.to_alcotest test_fdd_matches_linear;
    Alcotest.test_case "three-way differential (lowered)" `Slow
      test_lowered_differential;
    Alcotest.test_case "lowered fail-safe + default" `Quick test_lowered_fail_safe;
    Alcotest.test_case "bpf front end == bpf vm" `Quick test_bpf_frontend;
    Alcotest.test_case "incremental insert/remove" `Quick test_table_incremental;
    Alcotest.test_case "table metrics" `Quick test_table_metrics;
    Alcotest.test_case "fw normalize" `Quick test_fw_normalize;
    Alcotest.test_case "fw differential" `Quick test_fw_differential ]
