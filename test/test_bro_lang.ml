(* Mini-Bro language details beyond the case-study scripts: literals,
   containers, records, patterns, engine-agreement on each feature. *)

open Mini_bro

let run_both ?(events = []) src =
  let script = Bro_parse.parse src in
  let run mode =
    let engine = Bro_engine.load mode script in
    let out = Buffer.create 64 in
    Bro_engine.set_print_sink engine (fun s -> Buffer.add_string out (s ^ "\n"));
    List.iter (fun (name, args) -> Bro_engine.dispatch engine name args) events;
    Bro_engine.dispatch engine "go" [];
    Buffer.contents out
  in
  let i = run Bro_engine.Interpreted in
  let c = run Bro_engine.Compiled in
  Alcotest.(check string) "engines agree" i c;
  i

let test_literals () =
  let out =
    run_both
      {|
event go() {
    print 42;
    print 1.5;
    print T, F;
    print "str";
    print 8.8.8.8;
    print 10.0.0.0/8;
    print 443/tcp;
    print 90 sec;
    print 2 min;
}
|}
  in
  Alcotest.(check string) "rendering"
    "42\n1.5\nT, F\nstr\n8.8.8.8\n10.0.0.0/8\n443/tcp\n90.000000\n120.000000\n" out

let test_arith_and_compare () =
  let out =
    run_both
      {|
event go() {
    print 7 % 3, 2 * 3 + 1, 10 - 4 / 2;
    print 3 < 5, 5 <= 5, 7 != 8;
    print "a" + "b";
}
|}
  in
  Alcotest.(check string) "values" "1, 7, 8\nT, T, T\nab\n" out

let test_sets_tables_vectors () =
  let out =
    run_both
      {|
global s: set[string];
global t: table[string] of count;
global v: vector of count;

event go() {
    add s["x"];
    add s["y"];
    add s["x"];
    print |s|;
    t["a"] = 1;
    t["b"] = 2;
    delete t["a"];
    print |t|, "b" in t, "a" !in t;
    push(v, 10);
    push(v, 20);
    print |v|, shift(v), |v|;
}
|}
  in
  Alcotest.(check string) "container behaviour" "2\n1, T, T\n2, 10, 1\n" out

let test_multi_key_table () =
  let out =
    run_both
      {|
global pairs: table[addr, port] of string;

event go() {
    pairs[1.2.3.4, 80/tcp] = "web";
    pairs[1.2.3.4, 22/tcp] = "ssh";
    print |pairs|;
    print pairs[1.2.3.4, 80/tcp];
}
|}
  in
  Alcotest.(check string) "multi-key" "2\nweb\n" out

let test_records () =
  let out =
    run_both
      {|
type point: record {
    x: count;
    y: count;
};

event go() {
    local p: point;
    p$x = 3;
    p$y = 4;
    print p$x + p$y;
    local q = [$x = 10, $y = 20];
    print q$y;
}
|}
  in
  Alcotest.(check string) "records" "7\n20\n" out

let test_functions_and_recursion () =
  let out =
    run_both
      {|
function gcd(a: count, b: count): count {
    if (b == 0)
        return a;
    return gcd(b, a % b);
}

event go() {
    print gcd(48, 18);
    print gcd(7, 13);
}
|}
  in
  Alcotest.(check string) "gcd" "6\n1\n" out

let test_for_loops () =
  let out =
    run_both
      {|
global seen: set[count];

event go() {
    add seen[3];
    add seen[1];
    add seen[2];
    local total = 0;
    for (x in seen)
        total = total + x;
    print total;
}
|}
  in
  Alcotest.(check string) "fold over set" "6\n" out

(* Doubles key by value: [0.1 + 0.2] is not [0.3], though both print as
   0.3 and their old canonical key strings were equal. *)
let test_double_keys () =
  let out =
    run_both
      {|
global t: table[double] of count;

event go() {
    t[0.1 + 0.2] = 1;
    t[0.3] = 2;
    print |t| == 2;
}
|}
  in
  Alcotest.(check string) "two keys" "T\n" out

let test_queued_events () =
  let out =
    run_both
      {|
global n: count;

event helper(k: count) {
    n = n + k;
}

event go() {
    event helper(5);
    event helper(7);
    print n;    # queued events run after the current handler
}
|}
  in
  (* The print happens before the queued events execute; both engines
     must agree on that ordering. *)
  Alcotest.(check string) "queue semantics" "0\n" out

let test_builtins () =
  let out =
    run_both
      {|
global v: vector of count;

event go() {
    print fmt("%s:%d", "host", 8080);
    print to_lower("MiXeD");
    print to_count("123");
    print cat("a", 1, T);
    print sha1("abc");
    print fmt("%d", 3.7), fmt("%f", 3), fmt("%x", 255);
    push(v, 1);
    push(v, 22);
    push(v, 333);
    print join(v, "-");
    print to_count(" 42 ");
    print cat(1.5, 8.8.8.8);
}
|}
  in
  Alcotest.(check string) "builtins"
    "host:8080\nmixed\n123\na1T\na9993e364706816aba3e25717850c26c9cd0d89d\n\
     3, 3.000000, ff\n1-22-333\n42\n1.58.8.8.8\n"
    out

(* The interpreter alone, for behaviour the compiled engine does not
   share (it rejects the script at load). *)
let run_interp ?(events = []) src =
  let engine = Bro_engine.load Bro_engine.Interpreted (Bro_parse.parse src) in
  let out = Buffer.create 64 in
  Bro_engine.set_print_sink engine (fun s -> Buffer.add_string out (s ^ "\n"));
  List.iter (fun (name, args) -> Bro_engine.dispatch engine name args) events;
  (engine, out)

let bro_error f =
  match f () with
  | () -> Alcotest.fail "expected Bro_error"
  | exception Bro_val.Bro_error msg -> msg

(* Interpreter-only: compiled scripts reject vector indexing at load. *)
let test_vector_index () =
  let src =
    {|
global v: vector of count;

event fill() {
    push(v, 10);
    push(v, 20);
    push(v, 30);
    print v[0], v[2];
}

event at(i: int) {
    print v[i];
}
|}
  in
  let engine, out = run_interp ~events:[ ("fill", []) ] src in
  Alcotest.(check string) "in range" "10, 30\n" (Buffer.contents out);
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "v[%Ld]" i) "vector index out of range"
        (bro_error (fun () -> Bro_engine.dispatch engine "at" [ Bro_val.Vint i ])))
    [ -1L; 3L; Int64.min_int ]

(* Interpreter-only: [for] visits a set in canonical key-string order
   ("c1" < "c10" < "c2"), whatever order it was filled in.  The compiled
   engine visits a HILTI set in its own order. *)
let test_for_order () =
  let _, out =
    run_interp ~events:[ ("go", []) ]
      {|
global seen: set[count];

event go() {
    add seen[33];
    add seen[2];
    add seen[10];
    add seen[1];
    add seen[200];
    for (x in seen)
        print x;
}
|}
  in
  Alcotest.(check string) "key_string order" "1\n10\n2\n200\n33\n" (Buffer.contents out)

let test_branch_local_not_visible_after () =
  let out =
    run_both
      {|
global x: count = 1;

event go() {
    if (T) {
        local x = 5;
        print x;
    }
    print x;
}
|}
  in
  Alcotest.(check string) "branch local, then the global" "5\n1\n" out

(* Interpreter-only: the compiled engine rejects an unknown identifier
   when the script is compiled. *)
let test_undefined_name_raises_when_run () =
  let engine, out =
    run_interp
      {|
event go(flag: bool) {
    if (flag) {
        local y = 1;
        print y;
    }
    print "after";
    if (flag)
        print y;
}
|}
  in
  Bro_engine.dispatch engine "go" [ Bro_val.Vbool false ];
  Alcotest.(check string) "loads and runs while the name is not reached" "after\n"
    (Buffer.contents out);
  Alcotest.(check string) "raised when the statement runs" "unknown identifier y"
    (bro_error (fun () -> Bro_engine.dispatch engine "go" [ Bro_val.Vbool true ]));
  Alcotest.(check string) "statements before it ran" "after\n1\nafter\n"
    (Buffer.contents out)

(* Interpreter-only: the compiled engine maps each local name to one
   function-wide HILTI local, so there a branch local overwrites the outer
   one (it prints 2, 3, 3). *)
let test_branch_local_shadows () =
  let _, out =
    run_interp ~events:[ ("go", []) ]
      {|
event go() {
    local a = 1;
    if (a == 1) {
        local a = 2;
        print a;
        a = 3;
        print a;
    }
    else {
        print a;
    }
    print a;
}
|}
  in
  Alcotest.(check string) "outer untouched" "2\n3\n1\n" (Buffer.contents out)

let for_src body =
  {|
global outer: vector of count;
global inner: vector of count;

event go() {
    push(outer, 1);
    push(outer, 2);
    push(inner, 10);
    push(inner, 20);
    for (i in outer) {
|} ^ body ^ {|
    }
}
|}

let test_for_iteration_bindings () =
  let out =
    run_both
      (for_src
         {|
        local n = i * 100;
        for (j in inner) {
            local m = n + j;
            print m;
        }
        print i;
|})
  in
  Alcotest.(check string) "loop variables and initialized locals" "110\n120\n1\n210\n220\n2\n"
    out;
  (* Interpreter-only: the compiled engine declares a typed local once per
     function, so without an initializer it keeps its value across
     iterations (it prints 21, 32, 1, 55, 68, 3). *)
  let _, out =
    run_interp ~events:[ ("go", []) ]
      (for_src
         {|
        local n: count;
        n = n + i;
        for (j in inner) {
            local m: count;
            m = m + j + n;
            print m;
        }
        print n;
|})
  in
  Alcotest.(check string) "typed locals start fresh each iteration"
    "11\n21\n1\n12\n22\n2\n" (Buffer.contents out)

let test_recursive_frames () =
  let out =
    run_both
      {|
function fib(n: count): count {
    if (n < 2)
        return n;
    local a = fib(n - 1);
    local b = fib(n - 2);
    return a + b;
}

event go() {
    print fib(15);
}
|}
  in
  Alcotest.(check string) "fib(15)" "610\n" out

let test_return_from_nested_blocks () =
  let out =
    run_both
      {|
global s: set[count];

function find(want: count): string {
    for (x in s) {
        if (x == want) {
            if (x > 0)
                return fmt("found %d", x);
        }
    }
    return "none";
}

event go() {
    add s[3];
    add s[7];
    print find(7);
    print find(4);
}
|}
  in
  Alcotest.(check string) "returns" "found 7\nnone\n" out

let test_parse_error_position () =
  match Bro_parse.parse "event go() { print 1 + ; }" with
  | exception Bro_parse.Parse_error (_, line) ->
      Alcotest.(check int) "line 1" 1 line
  | _ -> Alcotest.fail "bad script parsed"

(* A [for] over a composite-keyed table visits every key in both engines.
   Their orders still differ, so the lines compare as sorted sets; the
   interpreter's own order is element by element ("sa" < "sab" < "sb"),
   not by the joined text, which would put [ab, 1] before [a, 2]. *)
let test_for_composite_keys () =
  let src =
    {|
global t: table[string, count] of count;

event go() {
    t["b", 0] = 1;
    t["ab", 1] = 2;
    t["a", 2] = 3;
    for (k in t)
        print k;
}
|}
  in
  let lines mode =
    let engine = Bro_engine.load mode (Bro_parse.parse src) in
    let out = ref [] in
    Bro_engine.set_print_sink engine (fun s -> out := s :: !out);
    Bro_engine.dispatch engine "go" [];
    List.rev !out
  in
  let i = lines Bro_engine.Interpreted and c = lines Bro_engine.Compiled in
  Alcotest.(check (list string)) "same keys" (List.sort compare i) (List.sort compare c);
  Alcotest.(check int) "every key visited" 3 (List.length i);
  Alcotest.(check (list string)) "interpreter order" [ "[a,2]"; "[ab,1]"; "[b,0]" ] i

let suite =
  [ Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "arithmetic/comparison" `Quick test_arith_and_compare;
    Alcotest.test_case "sets/tables/vectors" `Quick test_sets_tables_vectors;
    Alcotest.test_case "multi-key tables" `Quick test_multi_key_table;
    Alcotest.test_case "for over composite keys" `Quick test_for_composite_keys;
    Alcotest.test_case "records" `Quick test_records;
    Alcotest.test_case "functions and recursion" `Quick test_functions_and_recursion;
    Alcotest.test_case "for loops" `Quick test_for_loops;
    Alcotest.test_case "double keys by value" `Quick test_double_keys;
    Alcotest.test_case "for order: canonical keys (interpreter)" `Quick test_for_order;
    Alcotest.test_case "queued events" `Quick test_queued_events;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "parse error positions" `Quick test_parse_error_position;
    Alcotest.test_case "vector indexing (interpreter)" `Quick test_vector_index;
    Alcotest.test_case "scope: branch local not visible after" `Quick
      test_branch_local_not_visible_after;
    Alcotest.test_case "scope: undefined name raises when run (interpreter)" `Quick
      test_undefined_name_raises_when_run;
    Alcotest.test_case "scope: branch local shadows (interpreter)" `Quick
      test_branch_local_shadows;
    Alcotest.test_case "scope: per-iteration bindings" `Quick test_for_iteration_bindings;
    Alcotest.test_case "scope: recursive frames" `Quick test_recursive_frames;
    Alcotest.test_case "scope: return from nested blocks" `Quick
      test_return_from_nested_blocks ]

(* Table expiration attributes (&read_expire), driven by network time via
   the compiled engine's timers — the capability §6.1 disables for the
   DNS comparison runs but HILTI supports natively. *)
let test_table_expiry_compiled () =
  let script =
    Bro_parse.parse
      {|
global cache: table[string] of count &read_expire=60 sec;

event put(k: string, v: count) {
    cache[k] = v;
}

event check(k: string) {
    if (k in cache)
        print fmt("%s=hit", k);
    else
        print fmt("%s=miss", k);
}
|}
  in
  let engine = Bro_engine.load Bro_engine.Compiled script in
  let out = Buffer.create 64 in
  Bro_engine.set_print_sink engine (fun s -> Buffer.add_string out (s ^ ";"));
  let at s = Hilti_types.Time_ns.of_secs s in
  Bro_engine.set_network_time engine (at 1000);
  Bro_engine.dispatch engine "put" [ Bro_val.Vstring "k"; Bro_val.Vcount 1L ];
  Bro_engine.set_network_time engine (at 1030);
  Bro_engine.dispatch engine "check" [ Bro_val.Vstring "k" ];  (* hit + refresh *)
  Bro_engine.set_network_time engine (at 1080);
  Bro_engine.dispatch engine "check" [ Bro_val.Vstring "k" ];  (* refreshed at 1030 -> hit *)
  Bro_engine.set_network_time engine (at 1300);
  Bro_engine.dispatch engine "check" [ Bro_val.Vstring "k" ];  (* idle > 60s -> miss *)
  Alcotest.(check string) "expiry honored" "k=hit;k=hit;k=miss;" (Buffer.contents out)

let suite = suite @ [ Alcotest.test_case "&read_expire via network time" `Quick test_table_expiry_compiled ]
