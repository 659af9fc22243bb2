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

let test_sha1_high_bytes () =
  (* Every byte value occurs, so a kernel that loads message bytes through
     a signed [char] hashes this differently from the ASCII vectors above.
     Fed from odd offsets inside a larger buffer, in chunks that straddle
     block boundaries, so one kernel call covers several blocks that start
     off a 64-byte boundary.  Expected value from sha1sum. *)
  let n = 1000 in
  let msg = String.init n (fun i -> Char.chr (((i * 7) + 3) land 255)) in
  let expected = "4231a8a50a10fa9758db8ec71fdef855b751048a" in
  Alcotest.(check string) "one-shot" expected (Sha1.digest msg);
  let c = Sha1.init () in
  List.iter
    (fun base ->
      let buf = Bytes.make (base + n + 5) '\xff' in
      Bytes.blit_string msg 0 buf base n;
      List.iter
        (fun chunk ->
          Sha1.reset c;
          let pos = ref 0 in
          while !pos < n do
            let k = min chunk (n - !pos) in
            Sha1.feed_bytes c buf (base + !pos) k;
            pos := !pos + k
          done;
          Alcotest.(check string)
            (Printf.sprintf "offset %d chunk %d" base chunk)
            expected (Sha1.finish c))
        [ 1; 63; 64; 65; 130; 1000 ])
    [ 1; 3; 13; 61 ]

(* ---- Typed converters == the [T_any] converter (QCheck) --------------------- *)

module Hv = Hilti_vm.Value

(* Structural equality of converted values: containers and structs compare
   element-wise, not by identity as [Hv.equal] does.  A struct of a
   program's layout must carry the physically same layout; a host-only
   layout (fresh per conversion) must match by name and fields. *)
let rec hilti_equal api a b =
  let program l =
    match Hilti_vm.Host_api.struct_layout api l.Hv.lname with
    | Some p -> p == l
    | None -> false
  in
  let slot_equal x y =
    if x == Hv.unset || y == Hv.unset then x == y else hilti_equal api x y
  in
  let entries m =
    List.sort (fun (k1, _) (k2, _) -> compare k1 k2) (Hilti_rt.Exp_map.to_list m)
  in
  match (a, b) with
  | Hv.Struct x, Hv.Struct y ->
      (x.Hv.layout == y.Hv.layout
      || ((not (program x.Hv.layout)) && (not (program y.Hv.layout))
         && x.Hv.layout.Hv.lname = y.Hv.layout.Hv.lname
         && x.Hv.layout.Hv.lfields = y.Hv.layout.Hv.lfields))
      && Array.for_all2 slot_equal x.Hv.slots y.Hv.slots
  | Hv.List x, Hv.List y ->
      let xs = Hilti_vm.Deque.to_list x and ys = Hilti_vm.Deque.to_list y in
      List.length xs = List.length ys && List.for_all2 (hilti_equal api) xs ys
  | Hv.Set x, Hv.Set y ->
      let xs = entries x and ys = entries y in
      List.length xs = List.length ys
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && hilti_equal api v1 v2) xs ys
  | Hv.Map x, Hv.Map y ->
      let xs = entries x and ys = entries y in
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, (a1, v1)) (k2, (a2, v2)) ->
             k1 = k2 && hilti_equal api a1 a2 && hilti_equal api v1 v2)
           xs ys
      && (match (x.Hilti_rt.Exp_map.default, y.Hilti_rt.Exp_map.default) with
         | None, None -> true
         | Some f, Some g -> hilti_equal api (snd (f "")) (snd (g ""))
         | _ -> false)
  | Hv.Double x, Hv.Double y -> Float.equal x y
  | Hv.Regexp x, Hv.Regexp y -> x == y
  | _ -> Hv.equal a b

module G = QCheck.Gen

(* Strings with the bytes that trip text encodings: NUL and tab. *)
let gen_string = G.(string_size ~gen:(oneofl [ 'a'; 'z'; '\000'; '\t'; '-' ]) (0 -- 6))

let gen_addr =
  G.(
    oneof
      [ map (fun i -> Addr.of_ipv4_int32 (Int32.of_int i)) (0 -- 0xffffff);
        map2 (fun h l -> Addr.of_ipv6_int64s (Int64.of_int h) (Int64.of_int l)) nat nat ])

let gen_scalar =
  G.(
    oneof
      [ map (fun b -> Bro_val.Vbool b) bool;
        map (fun i -> Bro_val.Vcount (Int64.of_int i)) nat;
        map (fun i -> Bro_val.Vint (Int64.of_int i)) int;
        map (fun d -> Bro_val.Vdouble d) float;
        map (fun s -> Bro_val.Vstring s) gen_string;
        map (fun a -> Bro_val.Vaddr a) gen_addr;
        map (fun n -> Bro_val.Vport (Port.udp n)) (0 -- 65535);
        map (fun a -> Bro_val.Vsubnet (Network.make a 24)) gen_addr;
        map (fun t -> Bro_val.Vtime (Time_ns.of_ns (Int64.of_int t))) nat;
        map (fun t -> Bro_val.Vinterval (Interval_ns.of_ns (Int64.of_int t))) nat;
        return Bro_val.Vvoid ])

(* A container of the [elems] that can be keys (not [Vvoid], nor a
   record holding one), each stored by [add]. *)
let keyed key_of add elems =
  let tbl = Bro_val.Keytbl.create 8 in
  List.iter
    (fun e ->
      match Bro_val.Key.hash (key_of e) with
      | _ -> add tbl e
      | exception Bro_val.Bro_error _ -> ())
    elems;
  tbl

(* A value declared [ty]: well typed most of the time; otherwise off-type
   ([Vint] for [count], a record with an extra field, of a foreign type,
   or with fields missing), which the typed converter hands to [T_any]. *)
let rec gen_value script depth (ty : Bro_ast.btype) : Bro_val.t G.t =
  let open G in
  let sub = gen_value script (depth - 1) in
  let list_of g = if depth <= 0 then return [] else list_size (0 -- 3) g in
  let typed =
    match ty with
    | T_bool -> map (fun b -> Bro_val.Vbool b) bool
    | T_count -> map (fun i -> Bro_val.Vcount (Int64.of_int i)) nat
    | T_int -> map (fun i -> Bro_val.Vint (Int64.of_int i)) int
    | T_double -> map (fun d -> Bro_val.Vdouble d) float
    | T_string -> map (fun s -> Bro_val.Vstring s) gen_string
    | T_addr -> map (fun a -> Bro_val.Vaddr a) gen_addr
    | T_port -> map (fun n -> Bro_val.Vport (Port.tcp n)) (0 -- 65535)
    | T_subnet -> map (fun a -> Bro_val.Vsubnet (Network.make a 16)) gen_addr
    | T_time -> map (fun t -> Bro_val.Vtime (Time_ns.of_ns (Int64.of_int t))) nat
    | T_interval -> map (fun t -> Bro_val.Vinterval (Interval_ns.of_ns (Int64.of_int t))) nat
    | T_pattern ->
        return (Bro_val.Vpattern ("a+", Hilti_rt.Regexp.compile_one "a+"))
    | T_void | T_any -> gen_scalar
    | T_set [ k ] ->
        map
          (fun elems ->
            Bro_val.Vset (keyed Fun.id (fun s k -> Bro_val.Keytbl.replace s k ()) elems))
          (list_of (sub k))
    | T_table ([ k ], v) ->
        map2
          (fun kvs default ->
            let entries = keyed fst (fun t (k, v) -> Bro_val.Keytbl.replace t k v) kvs in
            Bro_val.Vtable { entries; default })
          (list_of (pair (sub k) (sub v)))
          (opt (sub v))
    | T_set _ | T_table _ -> gen_scalar
    | T_vector t ->
        map (fun xs -> Bro_val.Vvector (Hilti_vm.Deque.of_list xs)) (list_of (sub t))
    | T_record n ->
        let fields = Option.value ~default:[] (Bro_ast.find_record script n) in
        let field (name, ft) =
          map2
            (fun keep v -> if keep then [ (name, v) ] else [])
            (frequency [ (5, return true); (1, return false) ])
            (frequency [ (5, sub ft); (1, return Bro_val.Vvoid) ])
        in
        map2
          (fun fs shuffle -> Bro_val.new_record n (if shuffle then List.rev fs else fs))
          (map List.concat (flatten_l (List.map field fields)))
          bool
  in
  let off_type =
    match ty with
    | T_count -> map (fun i -> Bro_val.Vint (Int64.of_int i)) nat
    | T_record _ ->
        oneof
          [ (* an extra field the layout lacks *)
            map2
              (fun r v ->
                match r with
                | Bro_val.Vrecord r ->
                    Bro_val.Vrecord
                      {
                        r with
                        rnames = Array.append r.rnames [| "extra" |];
                        rvals = Array.append r.rvals [| v |];
                      }
                | v -> v)
              typed gen_scalar;
            (* the same fields under a foreign record type *)
            map
              (function
                | Bro_val.Vrecord r -> Bro_val.Vrecord { r with rtype = "conn_id" }
                | v -> v)
              typed;
            gen_scalar ]
    | T_vector _ -> return (Bro_val.Vvector (Hilti_vm.Deque.create ()))
    | _ -> gen_scalar
  in
  frequency [ (4, typed); (1, off_type) ]

(* Every declared parameter of every handler in the bundled scripts: the
   engine's typed converter (first handler's signature) and its [T_any]
   converter build equal HILTI values. *)
let converter_cases =
  lazy
    (Array.of_list
       (List.concat_map
          (fun script ->
            match Bro_engine.load Bro_engine.Compiled script with
            | Bro_engine.Interp _ -> []
            | Bro_engine.Comp c ->
                let case (e : Bro_engine.entry) params =
                  List.mapi (fun i (_, ty) -> (script, c, ty, e.convs.(i))) params
                in
                let seen = Hashtbl.create 16 in
                List.concat_map
                  (function
                    | Bro_ast.D_event (n, params, _) when not (Hashtbl.mem seen n) ->
                        Hashtbl.replace seen n ();
                        case (Hashtbl.find c.handled n) params
                    | _ -> [])
                  script)
          [ Bro_scripts.parse_all (); Bro_scripts.parse_fib () ]))

let test_converters_agree =
  let gen st =
    let cases = Lazy.force converter_cases in
    let i = G.int_bound (Array.length cases - 1) st in
    let script, _, ty, _ = cases.(i) in
    (i, gen_value script 2 ty st)
  in
  QCheck.Test.make ~count:1000 ~name:"typed converters == T_any converter"
    (QCheck.make gen ~print:(fun (i, v) ->
         let _, _, ty, _ = (Lazy.force converter_cases).(i) in
         Bro_ast.btype_to_string ty ^ ": " ^ Bro_val.to_string v))
    (fun (i, v) ->
      let _, c, _, conv = (Lazy.force converter_cases).(i) in
      hilti_equal c.Bro_engine.api (conv v) (c.Bro_engine.any v))

(* ---- Structural set/table keys ([Bro_val.Key]) -------------------------------- *)

(* Keys from small domains, so that equal keys come up often: every kind
   that can be a key, composites of 2-3 of them, and records whose fields
   come in any order. *)
let gen_key_scalar =
  G.(
    oneof
      [ map (fun b -> Bro_val.Vbool b) bool;
        map (fun i -> Bro_val.Vcount (Int64.of_int i)) (0 -- 3);
        map (fun i -> Bro_val.Vint (Int64.of_int i)) (-1 -- 3);
        map
          (fun d -> Bro_val.Vdouble d)
          (oneofl
             [ 0.0; -0.0; 1.0; 0.1 +. 0.2; 0.3; Float.nan; -.Float.nan;
               Int64.float_of_bits 0x7ff0000000000001L ]);
        map (fun s -> Bro_val.Vstring s) (string_size ~gen:(oneofl [ 'a'; '\000' ]) (0 -- 2));
        map
          (fun (v6, i) ->
            Bro_val.Vaddr
              (if v6 then Addr.of_ipv6_int64s 0L (Int64.of_int i)
               else Addr.of_ipv4_int32 (Int32.of_int i)))
          (pair bool (0 -- 2));
        map2
          (fun tcp n -> Bro_val.Vport (if tcp then Port.tcp n else Port.udp n))
          bool (0 -- 2);
        map2
          (fun i l -> Bro_val.Vsubnet (Network.make (Addr.of_ipv4_int32 (Int32.of_int i)) l))
          (0 -- 2) (oneofl [ 24; 32 ]);
        map (fun t -> Bro_val.Vtime (Time_ns.of_ns (Int64.of_int t))) (0 -- 2);
        map (fun t -> Bro_val.Vinterval (Interval_ns.of_ns (Int64.of_int t))) (0 -- 2) ])

let rec gen_key_record depth =
  G.(
    let value = if depth <= 0 then gen_key_scalar else gen_key_elem (depth - 1) in
    map3
      (fun keep vals order ->
        let fields =
          List.filteri (fun i _ -> List.nth keep i) (List.combine [ "a"; "b"; "c" ] vals)
        in
        let order = List.filteri (fun i _ -> i < List.length fields) order in
        let fields = List.map snd (List.sort compare (List.combine order fields)) in
        Bro_val.new_record "r" fields)
      (list_repeat 3 bool) (list_repeat 3 value) (list_repeat 3 nat))

and gen_key_elem depth =
  G.(frequency [ (4, gen_key_scalar); (1, gen_key_record depth) ])

let gen_key =
  G.(
    frequency
      [ (5, gen_key_elem 1);
        ( 2,
          map
            (fun es -> Bro_val.Vvector (Hilti_vm.Deque.of_list es))
            (list_size (2 -- 3) (gen_key_elem 0)) ) ])

let vec es = Bro_val.Vvector (Hilti_vm.Deque.of_list es)

let arb_keys n = QCheck.make ~print:(QCheck.Print.list Bro_val.to_string) G.(list_repeat n gen_key)

(* An equal key of another shape: record fields reversed, [-0.0] for
   [0.0], another NaN. *)
let rec twin = function
  | Bro_val.Vrecord r ->
      Bro_val.new_record r.rtype
        (List.rev (List.combine (Array.to_list r.rnames) (List.map twin (Array.to_list r.rvals))))
  | Bro_val.Vvector d -> vec (List.map twin (Hilti_vm.Deque.to_list d))
  | Bro_val.Vdouble 0.0 -> Bro_val.Vdouble (-0.0)
  | Bro_val.Vdouble d when Float.is_nan d ->
      Bro_val.Vdouble (Int64.float_of_bits 0x7ff8000000000badL)
  | v -> v

let test_key_hash_consistent =
  QCheck.Test.make ~count:500 ~name:"Key.equal a b ==> Key.hash a = Key.hash b" (arb_keys 12)
    (fun keys ->
      let keys = keys @ List.map twin keys in
      List.for_all (fun k -> Bro_val.Key.equal k (twin k)) keys
      && List.for_all
        (fun a ->
          List.for_all
            (fun b -> (not (Bro_val.Key.equal a b)) || Bro_val.Key.hash a = Bro_val.Key.hash b)
            keys)
        keys)

(* A table driven by a script through insert, delete, [in] and index
   agrees with an association list under [Key.equal].  A composite key
   reaches the script as its elements, indexed as [t[a, b]]; [in] takes
   one value, so composites are probed by index instead. *)
type key_op = Put of Bro_val.t * int | Del of Bro_val.t | Has of Bro_val.t | Get of Bro_val.t

let key_ops_script =
  Bro_parse.parse
    {|
global t: table[count] of count;

event put(k: count, v: count) { t[k] = v; }
event put2(a: count, b: count, v: count) { t[a, b] = v; }
event put3(a: count, b: count, c: count, v: count) { t[a, b, c] = v; }
event del(k: count) { delete t[k]; }
event del2(a: count, b: count) { delete t[a, b]; }
event del3(a: count, b: count, c: count) { delete t[a, b, c]; }
event get(k: count) { print t[k]; }
event get2(a: count, b: count) { print t[a, b]; }
event get3(a: count, b: count, c: count) { print t[a, b, c]; }
event has(k: count) { print k in t; }
event size() { print |t|; }
|}

let test_key_table_model =
  let gen_op =
    G.(
      oneof
        [ map2 (fun k v -> Put (k, v)) gen_key (0 -- 9);
          map (fun k -> Del k) gen_key;
          map (fun k -> Has k) gen_key;
          map (fun k -> Get k) gen_key ])
  in
  let print_op = function
    | Put (k, v) -> Printf.sprintf "put %s %d" (Bro_val.to_string k) v
    | Del k -> "del " ^ Bro_val.to_string k
    | Has k -> "has " ^ Bro_val.to_string k
    | Get k -> "get " ^ Bro_val.to_string k
  in
  QCheck.Test.make ~count:300 ~name:"script table == association list under Key.equal"
    (QCheck.make ~print:(QCheck.Print.list print_op) G.(list_size (0 -- 40) gen_op))
    (fun ops ->
      let engine = Bro_engine.load Bro_engine.Interpreted key_ops_script in
      let out = ref "" in
      Bro_engine.set_print_sink engine (fun s -> out := s);
      let run name ?(extra = []) k =
        let name, args =
          match k with
          | Some (Bro_val.Vvector d) ->
              (name ^ string_of_int (Hilti_vm.Deque.size d), Hilti_vm.Deque.to_list d)
          | Some k -> (name, [ k ])
          | None -> (name, [])
        in
        out := "";
        match Bro_engine.dispatch engine name (args @ extra) with
        | () -> !out
        | exception Bro_val.Bro_error msg -> "error: " ^ msg
      in
      let remove k = List.filter (fun (k', _) -> not (Bro_val.Key.equal k k')) in
      let find k = List.find_opt (fun (k', _) -> Bro_val.Key.equal k k') in
      let model =
        List.fold_left
          (fun model op ->
            match op with
            | Put (k, v) ->
                ignore (run "put" (Some k) ~extra:[ Bro_val.Vcount (Int64.of_int v) ]);
                (k, v) :: remove k model
            | Del k ->
                ignore (run "del" (Some k));
                remove k model
            | Has k ->
                let has =
                  match k with
                  | Bro_val.Vvector _ -> run "get" (Some k) <> "error: no such index"
                  | _ -> run "has" (Some k) = "T"
                in
                if has <> (find k model <> None) then
                  QCheck.Test.fail_reportf "has %s" (Bro_val.to_string k);
                model
            | Get k ->
                let want =
                  match find k model with
                  | Some (_, v) -> string_of_int v
                  | None -> "error: no such index"
                in
                let got = run "get" (Some k) in
                if got <> want then
                  QCheck.Test.fail_reportf "get %s: %s, want %s" (Bro_val.to_string k) got want;
                model)
          [] ops
      in
      run "size" None = string_of_int (List.length model))

let distinct_keys a b =
  let t = Bro_val.Keytbl.create 4 in
  Bro_val.Keytbl.replace t a ();
  Bro_val.Keytbl.replace t b ();
  Bro_val.Keytbl.length t = 2

let test_key_cases () =
  let check name want a b = Alcotest.(check bool) name want (distinct_keys a b) in
  check "count 1 and int 1 are two keys" true (Bro_val.Vcount 1L) (Bro_val.Vint 1L);
  check "0.1 + 0.2 and 0.3 are two keys" true (Bro_val.Vdouble (0.1 +. 0.2)) (Bro_val.Vdouble 0.3);
  check "-0.0 and 0.0 are one key" false (Bro_val.Vdouble (-0.0)) (Bro_val.Vdouble 0.0);
  check "NaNs are one key" false (Bro_val.Vdouble Float.nan)
    (Bro_val.Vdouble (Int64.float_of_bits 0xfff0000000000123L));
  check "NUL composites are two keys" true
    (vec [ Bro_val.Vstring "x\000yz"; Bro_val.Vstring "w" ])
    (vec [ Bro_val.Vstring "x"; Bro_val.Vstring "z\000yw" ]);
  check "record field order does not matter" false
    (Bro_val.new_record "r" [ ("a", Bro_val.Vcount 1L); ("b", Bro_val.Vstring "x") ])
    (Bro_val.new_record "r" [ ("b", Bro_val.Vstring "x"); ("a", Bro_val.Vcount 1L) ])

(* Key hashing allocates nothing: 1,000 rounds over every kind of key,
   against a few words of measurement overhead. *)
let test_key_hash_no_alloc () =
  let keys =
    [ Bro_val.Vbool true; Bro_val.Vcount 7L; Bro_val.Vint (-3L); Bro_val.Vdouble 0.5;
      Bro_val.Vstring "www.example.com"; Bro_val.Vaddr (Addr.of_string "10.1.2.3");
      Bro_val.Vport (Port.udp 53); Bro_val.Vsubnet (Network.of_string "10.0.0.0/8");
      Bro_val.Vtime (Time_ns.of_ns 5L); Bro_val.Vinterval (Interval_ns.of_ns 6L);
      vec [ Bro_val.Vstring "a"; Bro_val.Vcount 1L ];
      Bro_val.new_record "r" [ ("a", Bro_val.Vcount 1L); ("b", Bro_val.Vstring "x") ] ]
  in
  let round () = List.iter (fun k -> ignore (Sys.opaque_identity (Bro_val.Key.hash k))) keys in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  if words > 16. then Alcotest.failf "hashing allocated %.0f words" words

(* A record key mutated after insert is still found under the value it
   was inserted with, and not under its new one. *)
let test_record_key_copied () =
  let script =
    Bro_parse.parse
      {|
type point: record {
    x: count;
};

global s: set[point];

event go() {
    local p = [$x = 1];
    add s[p];
    p$x = 2;
    print [$x = 1] in s, p in s, |s|;
    for (q in s)
        print q$x;
}
|}
  in
  let _, out = with_engine Bro_engine.Interpreted script (fun e -> Bro_engine.dispatch e "go" []) in
  Alcotest.(check string) "stored key unmoved" "T, F, 1\n1\n" out

let test_non_keys_raise () =
  let script =
    Bro_parse.parse
      {|
global s: set[count];
global t: table[count] of count;

event add_key(k: count) { add s[k]; }
event set_key(k: count) { t[k] = 1; }
event has_key(k: count) { print k in s; }
|}
  in
  let engine = Bro_engine.load Bro_engine.Interpreted script in
  let bad =
    [ ("pattern", Bro_val.Vpattern ("a", Hilti_rt.Regexp.compile_one "a"));
      ("set", Bro_val.Vset (Bro_val.Keytbl.create 1));
      ("table", Bro_val.Vtable { entries = Bro_val.Keytbl.create 1; default = None });
      ("void", Bro_val.Vvoid);
      ("vector", vec [ Bro_val.Vcount 1L; Bro_val.Vcount 2L ]);
      ("vector", vec [ vec [ Bro_val.Vcount 1L ]; Bro_val.Vcount 2L ]);
      ("void", Bro_val.new_record "r" [ ("a", Bro_val.Vvoid) ]) ]
  in
  List.iter
    (fun (kind, v) ->
      List.iter
        (fun ev ->
          match Bro_engine.dispatch engine ev [ v ] with
          | () -> Alcotest.failf "%s %s: no error" ev kind
          | exception Bro_val.Bro_error msg ->
              Alcotest.(check string) (ev ^ " " ^ kind) ("value not usable as key: " ^ kind) msg)
        [ "add_key"; "set_key"; "has_key" ])
    bad

let suite =
  [ Alcotest.test_case "track.bro interpreted (Fig. 8)" `Quick test_track_interp;
    Alcotest.test_case "track.bro compiled (Fig. 8)" `Quick test_track_compiled;
    Alcotest.test_case "fib agreement" `Quick test_fib_agreement;
    Alcotest.test_case "scan detector (§7)" `Quick test_scan_detector;
    Alcotest.test_case "semantics agreement" `Quick test_semantics_agree;
    Alcotest.test_case "Log::write both engines" `Quick test_log_write;
    Alcotest.test_case "sha1 vectors" `Quick test_sha1;
    Alcotest.test_case "sha1 streaming = one-shot" `Quick test_sha1_streaming;
    Alcotest.test_case "sha1 allocation" `Quick test_sha1_allocation;
    QCheck_alcotest.to_alcotest test_converters_agree;
    Alcotest.test_case "keys: kinds, doubles, composites" `Quick test_key_cases;
    Alcotest.test_case "keys: hashing allocates nothing" `Quick test_key_hash_no_alloc;
    Alcotest.test_case "keys: record keys are copied" `Quick test_record_key_copied;
    Alcotest.test_case "keys: non-keys raise" `Quick test_non_keys_raise;
    QCheck_alcotest.to_alcotest test_key_hash_consistent;
    QCheck_alcotest.to_alcotest test_key_table_model;
    Alcotest.test_case "sha1 high bytes + unaligned blocks" `Quick test_sha1_high_bytes ]
