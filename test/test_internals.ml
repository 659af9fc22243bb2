(* Internal data structures and value semantics: Deque, Dynarray, VM
   values (equality, canonical keys, deep copy), the log framework, and
   the mixed-trace generator. *)

open Hilti_vm

let qt name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 gen prop)

(* ---- Deque -------------------------------------------------------------------- *)

let test_deque () =
  let d = Deque.create () in
  Alcotest.(check bool) "empty" true (Deque.is_empty d);
  Deque.push_back d 2;
  Deque.push_front d 1;
  Deque.push_back d 3;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Deque.to_list d);
  Alcotest.(check (option int)) "pop" (Some 1) (Deque.pop_front d);
  Alcotest.(check (option int)) "peek back" (Some 3) (Deque.peek_back d);
  Alcotest.(check int) "size" 2 (Deque.size d);
  Deque.clear d;
  Alcotest.(check (option int)) "cleared" None (Deque.pop_front d)

let prop_deque_mirrors_list =
  qt "deque: push_back/pop_front is a FIFO"
    QCheck.(small_list small_int)
    (fun xs ->
      let d = Deque.create () in
      List.iter (Deque.push_back d) xs;
      let out = ref [] in
      let rec drain () =
        match Deque.pop_front d with
        | Some x ->
            out := x :: !out;
            drain ()
        | None -> ()
      in
      drain ();
      List.rev !out = xs)

(* ---- Dynarray ------------------------------------------------------------------- *)

let test_dynarray () =
  let v = Dynarray.create () in
  for i = 0 to 99 do
    Dynarray.push v i
  done;
  Alcotest.(check int) "size" 100 (Dynarray.size v);
  Alcotest.(check int) "get" 57 (Dynarray.get v 57);
  Dynarray.set v 57 (-1);
  Alcotest.(check int) "set" (-1) (Dynarray.get v 57);
  Alcotest.(check int) "pop" 99 (Dynarray.pop v);
  Alcotest.(check int) "size after pop" 99 (Dynarray.size v);
  match Dynarray.get v 1000 with
  | exception Dynarray.Out_of_bounds -> ()
  | _ -> Alcotest.fail "out of bounds read"

(* ---- Value semantics ---------------------------------------------------------------- *)

let test_value_equality () =
  let open Value in
  Alcotest.(check bool) "ints" true (equal (Int 5L) (Int 5L));
  Alcotest.(check bool) "bytes by content" true
    (equal
       (Bytes (Hilti_types.Hbytes.of_string "abc"))
       (Bytes (Hilti_types.Hbytes.of_string "abc")));
  Alcotest.(check bool) "tuples" true
    (equal (Tuple [| Int 1L; String "x" |]) (Tuple [| Int 1L; String "x" |]));
  Alcotest.(check bool) "tuples differ" false
    (equal (Tuple [| Int 1L |]) (Tuple [| Int 2L |]));
  (* Heap values compare by identity. *)
  let l1 = Deque.create () and l2 = Deque.create () in
  Alcotest.(check bool) "lists by identity" false (equal (List l1) (List l2));
  Alcotest.(check bool) "same list" true (equal (List l1) (List l1))

let test_value_key_string () =
  let open Value in
  let k1 = key_string (Tuple [| Addr (Hilti_types.Addr.of_string "1.2.3.4"); Int 80L |]) in
  let k2 = key_string (Tuple [| Addr (Hilti_types.Addr.of_string "1.2.3.4"); Int 80L |]) in
  let k3 = key_string (Tuple [| Addr (Hilti_types.Addr.of_string "1.2.3.5"); Int 80L |]) in
  Alcotest.(check string) "stable" k1 k2;
  Alcotest.(check bool) "distinct" true (k1 <> k3);
  let bytes s = Bytes (Hilti_types.Hbytes.of_string s) in
  Alcotest.(check bool) "bytes elements are length-delimited" true
    (key_string (Tuple [| bytes "x\000yz"; bytes "w" |])
    <> key_string (Tuple [| bytes "x"; bytes "z\000yw" |]));
  Alcotest.(check bool) "0.1 + 0.2 and 0.3 differ" true
    (key_string (Double (0.1 +. 0.2)) <> key_string (Double 0.3));
  Alcotest.(check string) "-0.0 keys as 0.0" (key_string (Double 0.0))
    (key_string (Double (-0.0)));
  Alcotest.(check string) "all NaNs share one key" (key_string (Double Float.nan))
    (key_string (Double (-.Float.nan)));
  Alcotest.(check int) "tuple<addr,addr> key size" 36
    (String.length
       (key_string
          (Tuple
             [| Addr (Hilti_types.Addr.of_string "1.2.3.4");
                Addr (Hilti_types.Addr.of_string "::1") |])));
  match key_string (List (Deque.create ())) with
  | exception Value.Not_hashable _ -> ()
  | _ -> Alcotest.fail "list used as key"

(* The same two tuples as container keys in a compiled program: the set
   must hold them as two elements. *)
let test_value_keys_in_set () =
  let src =
    {|
module M

global ref<set<tuple<ref<bytes>, ref<bytes>>>> s

void init () {
    s = new set<tuple<ref<bytes>, ref<bytes>>>
}

void add (ref<bytes> a, ref<bytes> b) {
    set.insert s (a, b)
}

bool has (ref<bytes> a, ref<bytes> b) {
    local bool r
    r = set.exists s (a, b)
    return r
}
|}
  in
  let module H = Hilti_vm.Host_api in
  let api = H.compile [ Hilti_lang.Parser.parse_module src ] in
  let bytes s = Value.Bytes (Hilti_types.Hbytes.of_string s) in
  ignore (H.call api "M::init" []);
  ignore (H.call api "M::add" [ bytes "x\000yz"; bytes "w" ]);
  let has a b = Value.as_bool (H.call api "M::has" [ bytes a; bytes b ]) in
  Alcotest.(check bool) "inserted pair" true (has "x\000yz" "w");
  Alcotest.(check bool) "colliding pair absent" false (has "x" "z\000yw")

(* Keys agree with [Value.equal] on every hashable kind but NaN.  Each
   kind draws from a small domain, and most pairs put values of the same
   kind at the same place, so equal pairs and near misses (-0.0 and 0.0,
   an IPv4 address and its ::ffff: spelling) are common.  Strings hold
   NULs and the string and bytes tags, so unprefixed elements would
   collide. *)
let key_chars = QCheck.Gen.oneofl [ '\000'; 's'; 'y' ]

let key_kinds =
  let open QCheck.Gen in
  let module T = Hilti_types in
  let str = string_size ~gen:key_chars (int_bound 2) in
  let trimmed s =
    (* A window that does not start at offset 0 of its buffer. *)
    let h = T.Hbytes.of_string ("zz" ^ s) in
    T.Hbytes.trim_front h 2;
    h
  in
  let addr =
    oneof
      [ map (fun d -> T.Addr.of_ipv4_octets 10 0 0 d) (int_bound 1);
        map (fun lo -> T.Addr.of_ipv6_int64s 0L lo)
          (oneofl [ 1L; 0xffff_0a00_0000L; 0xffff_0a00_0001L ]) ]
  in
  let double =
    oneofl
      [ 0.0; -0.0; 0.1 +. 0.2; 0.3; 1.0; Float.succ 1.0; Float.pred 1.0;
        Float.min_float; infinity; neg_infinity ]
  in
  let i64 = map Int64.of_int (int_range (-1) 1) in
  [| return Value.Null;
     map (fun b -> Value.Bool b) bool;
     map (fun i -> Value.Int i) i64;
     map (fun i -> Value.Time (T.Time_ns.of_ns i)) i64;
     map (fun i -> Value.Interval (T.Interval_ns.of_ns i)) i64;
     map (fun d -> Value.Double d) double;
     map (fun s -> Value.String s) str;
     map2 (fun trim s -> Value.Bytes (if trim then trimmed s else T.Hbytes.of_string s)) bool str;
     map (fun a -> Value.Addr a) addr;
     map2
       (fun n p -> Value.Port (T.Port.make n p))
       (oneofl [ 53; 65535 ])
       (oneofl [ T.Port.TCP; T.Port.UDP; T.Port.ICMP ]);
     map2 (fun a l -> Value.Net (T.Network.make a l)) addr (oneofl [ 0; 32 ]);
     map3 (fun n v u -> Value.Enum (n, v, u)) (oneofl [ "E"; "E2" ]) (int_bound 1) bool;
     map2 (fun n b -> Value.Bitset (n, b)) (oneofl [ "B"; "B2" ]) i64 |]

(* A pair of values of one shape: tuples of equal arity, with scalars of
   one kind at each leaf. *)
let rec gen_key_twins depth =
  let open QCheck.Gen in
  let leaf = int_bound (Array.length key_kinds - 1) >>= fun k -> pair key_kinds.(k) key_kinds.(k) in
  if depth = 0 then leaf
  else
    frequency
      [ (2, leaf);
        ( 1,
          list_size (int_bound 3) (gen_key_twins (depth - 1)) >|= fun l ->
          let tuple f = Value.Tuple (Array.of_list (List.map f l)) in
          (tuple fst, tuple snd) ) ]

let prop_key_string_agrees_with_equal =
  let open QCheck in
  let any = Gen.map fst (gen_key_twins 2) in
  (* The same elements grouped into different tuples. *)
  let regrouped =
    Gen.map
      (fun (x, y) -> Value.(Tuple [| Tuple [| x |]; y |], Tuple [| Tuple [| x; y |] |]))
      (Gen.pair any any)
  in
  (* The same characters split differently between two elements. *)
  let resplit =
    Gen.(
      map3
        (fun (bytes, c) i j ->
          let mk s = if bytes then Value.Bytes (Hilti_types.Hbytes.of_string s) else Value.String s in
          let split k =
            let k = k mod (String.length c + 1) in
            Value.Tuple [| mk (String.sub c 0 k); mk (String.sub c k (String.length c - k)) |]
          in
          (split i, split j))
        (pair bool (string_size ~gen:key_chars (int_bound 5)))
        small_nat small_nat)
  in
  let gen =
    Gen.frequency
      [ (6, gen_key_twins 2); (2, Gen.pair any any); (1, regrouped); (1, resplit) ]
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"value: key_string a = key_string b <=> equal a b" ~count:2000
       (make ~print:(fun (a, b) -> Value.to_string a ^ " / " ^ Value.to_string b) gen)
       (fun (a, b) -> Value.key_string a = Value.key_string b = Value.equal a b))

let test_value_deep_copy () =
  let open Value in
  let d = Deque.create () in
  Deque.push_back d (Int 1L);
  let layout = make_layout "S" [ "items"; "note" ] in
  let s = new_struct layout in
  set_field s "items" (List d);
  let copy = deep_copy (Struct s) in
  Deque.push_back d (Int 2L);
  (match copy with
  | Struct s' ->
      Alcotest.(check bool) "layout shared" true (s'.layout == layout);
      (match field copy "items" with
      | Some (List d') -> Alcotest.(check int) "copy isolated" 1 (Deque.size d')
      | _ -> Alcotest.fail "field lost");
      Alcotest.(check bool) "unset stays unset" true (field copy "note" = None)
  | _ -> Alcotest.fail "copy kind");
  Alcotest.(check int) "original mutated" 2 (Deque.size d)

(* The slot layout: printing shows set fields in declaration order, and
   structs compare by identity, not by contents. *)
let test_value_struct_layout () =
  let open Value in
  let layout = make_layout "P" [ "x"; "y"; "z" ] in
  let a = new_struct layout and b = new_struct layout in
  set_field a "z" (Int 3L);
  set_field a "x" (Int 1L);
  set_field b "z" (Int 3L);
  set_field b "x" (Int 1L);
  Alcotest.(check string) "to_string" "P{x=1, z=3}" (to_string (Struct a));
  Alcotest.(check bool) "identity equal" true (equal (Struct a) (Struct a));
  Alcotest.(check bool) "same contents, different struct" false
    (equal (Struct a) (Struct b));
  Alcotest.(check (list string)) "set fields in layout order" [ "x"; "z" ]
    (List.map fst (struct_fields a));
  Alcotest.(check int) "undeclared field" (-1) (field_index layout "w")

(* ---- Log framework ------------------------------------------------------------------ *)

let test_log_columns_and_missing () =
  let l = Mini_bro.Bro_log.create () in
  Mini_bro.Bro_log.create_stream l "s" [ "a"; "b"; "c" ];
  Mini_bro.Bro_log.write l "s" [ ("c", "3"); ("a", "1") ];
  Alcotest.(check (list string)) "column order, '-' for missing" [ "1\t-\t3" ]
    (Mini_bro.Bro_log.rows l "s");
  Alcotest.(check string) "header" "#fields\ta\tb\tc"
    (List.hd (String.split_on_char '\n' (Mini_bro.Bro_log.to_string l "s")))

let test_log_disabled_still_counts () =
  let l = Mini_bro.Bro_log.create () in
  Mini_bro.Bro_log.create_stream l "s" [ "a" ];
  Mini_bro.Bro_log.set_enabled l false;
  Mini_bro.Bro_log.write l "s" [ ("a", "x") ];
  Alcotest.(check int) "counted" 1 (Mini_bro.Bro_log.row_count l "s");
  Alcotest.(check (list string)) "not stored" [] (Mini_bro.Bro_log.rows l "s")

let test_log_agreement_math () =
  let mk rows =
    let l = Mini_bro.Bro_log.create () in
    Mini_bro.Bro_log.create_stream l "s" [ "a" ];
    List.iter (fun r -> Mini_bro.Bro_log.write l "s" [ ("a", r) ]) rows;
    l
  in
  let a = mk [ "1"; "2"; "3"; "3" ] in
  let b = mk [ "2"; "3"; "4" ] in
  let agg = Mini_bro.Bro_log.compare_streams a b "s" in
  Alcotest.(check int) "norm a (deduped)" 3 agg.Mini_bro.Bro_log.normalized_a;
  Alcotest.(check int) "identical" 2 agg.Mini_bro.Bro_log.identical;
  Alcotest.(check bool) "fraction 2/3" true
    (abs_float (agg.Mini_bro.Bro_log.fraction -. (2.0 /. 3.0)) < 1e-9)

let test_log_row_writer () =
  let module L = Mini_bro.Bro_log in
  let l = L.create () in
  L.create_stream l "s" [ "a"; "b"; "c"; "d" ];
  let s = L.stream l "s" in
  Alcotest.(check int) "column index" 2 (L.column s "c");
  Alcotest.(check int) "no such column" (-1) (L.column s "zz");
  L.write_row l s (fun b i ->
      match i with
      | 0 -> L.add_field b "x\ty"
      | 1 -> ()
      | 2 -> L.add_field b ""
      | _ -> L.add_field b "p\nq\tr");
  L.write l "s" [ ("zz", "extra"); ("d", "1"); ("a", "") ];
  Alcotest.(check (list string)) "missing/empty '-', separators become spaces, extras ignored"
    [ "x y\t-\t-\tp q r"; "-\t-\t-\t1" ] (L.rows l "s");
  L.set_enabled l false;
  L.write_row l s (fun _ _ -> Alcotest.fail "rendered while disabled");
  Alcotest.(check int) "disabled rows still count" 3 (L.row_count l "s");
  Alcotest.(check int) "but are not stored" 2 (List.length (L.rows l "s"))

(* Both engines' Log::write go through the row writer: a record literal
   maps its fields to columns, with the same rendering rules. *)
let test_log_write_engines () =
  let module L = Mini_bro.Bro_log in
  let script =
    Mini_bro.Bro_parse.parse
      {|
event go(t: string) {
    Log::write("s", [$c=t, $a=1, $extra=5, $b="", $e=1.2.3.4, $f=53/udp]);
}
|}
  in
  let run mode enabled =
    let l = L.create () in
    L.create_stream l "s" [ "a"; "b"; "c"; "d"; "e"; "f" ];
    L.set_enabled l enabled;
    let e = Mini_bro.Bro_engine.load ~logger:l mode script in
    Mini_bro.Bro_engine.dispatch e "go" [ Mini_bro.Bro_val.Vstring "x\ty\nz" ];
    Mini_bro.Bro_engine.dispatch e "go" [ Mini_bro.Bro_val.Vstring "" ];
    (L.rows l "s", L.row_count l "s")
  in
  List.iter
    (fun mode ->
      Alcotest.(check (pair (list string) int)) "rows"
        ([ "1\t-\tx y z\t-\t1.2.3.4\t53/udp"; "1\t-\t-\t-\t1.2.3.4\t53/udp" ], 2)
        (run mode true);
      Alcotest.(check (pair (list string) int)) "disabled" ([], 2) (run mode false))
    [ Mini_bro.Bro_engine.Interpreted; Mini_bro.Bro_engine.Compiled ]

(* ---- Mixed traces ---------------------------------------------------------------------- *)

let test_mix_ordered_and_demuxable () =
  let records = Hilti_traces.Mix.generate Hilti_traces.Mix.default in
  let last = ref Hilti_types.Time_ns.epoch in
  let http = ref 0 and dns = ref 0 and ssh = ref 0 in
  List.iter
    (fun (r : Hilti_net.Pcap.record) ->
      Alcotest.(check bool) "ordered" true
        (Hilti_types.Time_ns.compare !last r.Hilti_net.Pcap.ts <= 0);
      last := r.Hilti_net.Pcap.ts;
      match Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data with
      | Some pkt -> (
          match Hilti_net.Packet.ports pkt with
          | Some (sp, dp) ->
              let p = min (Hilti_types.Port.number sp) (Hilti_types.Port.number dp) in
              if p = 80 then incr http
              else if p = 53 then incr dns
              else if p = 22 then incr ssh
          | None -> ())
      | None -> ())
    records;
  Alcotest.(check bool) "all three protocols present" true
    (!http > 0 && !dns > 0 && !ssh > 0)

let suite =
  [ Alcotest.test_case "deque" `Quick test_deque;
    prop_deque_mirrors_list;
    Alcotest.test_case "dynarray" `Quick test_dynarray;
    Alcotest.test_case "value equality" `Quick test_value_equality;
    Alcotest.test_case "value canonical keys" `Quick test_value_key_string;
    Alcotest.test_case "value keys in a compiled set" `Quick test_value_keys_in_set;
    prop_key_string_agrees_with_equal;
    Alcotest.test_case "value deep copy" `Quick test_value_deep_copy;
    Alcotest.test_case "value struct layout" `Quick test_value_struct_layout;
    Alcotest.test_case "log columns" `Quick test_log_columns_and_missing;
    Alcotest.test_case "log disabled counting (§6.1)" `Quick test_log_disabled_still_counts;
    Alcotest.test_case "log agreement math" `Quick test_log_agreement_math;
    Alcotest.test_case "log row writer" `Quick test_log_row_writer;
    Alcotest.test_case "log write through both engines" `Quick test_log_write_engines;
    Alcotest.test_case "mixed trace" `Quick test_mix_ordered_and_demuxable ]
