(* The static shard-race detector and the VM's recycled frames. *)

module Bc = Hilti_vm.Bytecode
module Value = Hilti_vm.Value
module Vm = Hilti_vm.Vm
module Racecheck = Hilti_analysis.Racecheck
module Metrics = Hilti_obs.Metrics

(* Compile a source module as the runtime would, but without the
   optimizer, so bytecode pcs line up with the program as written. *)
let compile src =
  Hilti_vm.Host_api.compile ~optimize:false [ Hilti_lang.Parser.parse_module src ]

let program api = api.Hilti_vm.Host_api.ctx.Vm.program

let fidx p name =
  match Bc.find_func p name with
  | Some i -> i
  | None -> Alcotest.failf "function %s not found" name

(* ---- Static shard-race detector ------------------------------------------- *)

let racy_src =
  {|module Racy

import Hilti

global int<64> packet_count

void init () {
    packet_count = assign 0
}

void expire_all () {
    packet_count = assign 0
}

bool check_packet (time t, addr src, addr dst) {
    local int<64> n
    local ref<callable<void>> c
    n = int.add packet_count 1
    packet_count = assign n
    c = callable.bind Racy::expire_all ()
    call Hilti::update_shared_table (src)
    return True
}
|}

let test_racecheck_flags_races () =
  let p = program (compile racy_src) in
  let races = Racecheck.check p ~shard_entries:[ "Racy::check_packet" ] in
  let rules = List.map (fun (r : Racecheck.race) -> r.Racecheck.r_rule) races in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " reported") true (List.mem rule rules))
    [ "race/global-write"; "race/timer-cross-shard"; "race/hostapi-shared" ];
  List.iter
    (fun (r : Racecheck.race) ->
      Alcotest.(check string) "races are on the packet path"
        "Racy::check_packet" r.Racecheck.r_func)
    races;
  (* Setup writes are off the packet path: without entries, no races. *)
  Alcotest.(check int) "no entries, no packet path" 0
    (List.length (Racecheck.check p ~shard_entries:[]))

let test_racecheck_flow_keyed_clean () =
  (* A global flow table mutated only under parameter-derived keys is the
     sharding contract working as intended — not a race. *)
  let src =
    {|module F

global int<64> hot
global ref<map<addr, int<64>>> seen
global ref<map<int<64>, int<64>>> stats

void setup () {
    seen = new map<addr, int<64>>
    stats = new map<int<64>, int<64>>
}

bool per_packet (addr src) {
    map.insert seen src 1
    return True
}

bool bad_packet (addr src) {
    local int<64> k
    k = int.add hot 1
    map.insert stats k 1
    return True
}
|}
  in
  let p = program (compile src) in
  Alcotest.(check int) "flow-keyed insert is clean" 0
    (List.length (Racecheck.check p ~shard_entries:[ "F::per_packet" ]));
  let races = Racecheck.check p ~shard_entries:[ "F::bad_packet" ] in
  Alcotest.(check bool) "global-keyed insert is flagged" true
    (List.exists
       (fun (r : Racecheck.race) -> r.Racecheck.r_rule = "race/global-write")
       races)

(* Deferred calls: [race/timer-cross-shard] asks whether a function that
   stores a global or calls an unaudited host function is synchronously
   reachable from the bound callee. *)
let timer_src =
  {|module T

import Hilti

global int<64> g

void wr () {
    g = assign 1
}

void calls_wr () {
    call T::wr ()
}

void rd () {
    local int<64> x
    x = int.add g 1
    call Hilti::print (x)
}

void ping () {
    call T::pong ()
}

void pong () {
    g = assign 2
    call T::ping ()
}

hook void on_fire () {
    g = assign 3
}

void runs_hook () {
    hook.run T::on_fire ()
}

void shares () {
    call Hilti::update_shared_table (1)
}

bool bind_calls_wr () {
    local ref<callable<void>> c
    c = callable.bind T::calls_wr ()
    return True
}

bool bind_rd () {
    local ref<callable<void>> c
    c = callable.bind T::rd ()
    return True
}

bool bind_ping () {
    local ref<callable<void>> c
    c = callable.bind T::ping ()
    return True
}

bool bind_runs_hook () {
    local ref<callable<void>> c
    c = callable.bind T::runs_hook ()
    return True
}

bool bind_shares () {
    local ref<callable<void>> c
    c = callable.bind T::shares ()
    return True
}
|}

let timer_rules entry =
  let p = program (compile timer_src) in
  List.map
    (fun (r : Racecheck.race) -> (r.Racecheck.r_rule, r.Racecheck.r_func))
    (Racecheck.check p ~shard_entries:[ entry ])

let timer_flagged entry = [ ("race/timer-cross-shard", entry) ]

let test_racecheck_timer_transitive () =
  Alcotest.(check (list (pair string string)))
    "binding a caller of a global writer" (timer_flagged "T::bind_calls_wr")
    (timer_rules "T::bind_calls_wr");
  Alcotest.(check (list (pair string string)))
    "binding a function whose hook body writes" (timer_flagged "T::bind_runs_hook")
    (timer_rules "T::bind_runs_hook");
  Alcotest.(check (list (pair string string)))
    "binding a global reader that prints" [] (timer_rules "T::bind_rd")

let test_racecheck_timer_recursive () =
  Alcotest.(check (list (pair string string)))
    "binding into a writing recursive pair" (timer_flagged "T::bind_ping")
    (timer_rules "T::bind_ping")

let test_racecheck_timer_unaudited_host () =
  (* The callee writes no global itself, but calls a host function
     missing from the audit list, which may write shared host state. *)
  Alcotest.(check (list (pair string string)))
    "binding a caller of an unaudited host function"
    (timer_flagged "T::bind_shares")
    (timer_rules "T::bind_shares")

(* A deferred callee that mutates a global container is a writer under the
   packet-path container rule, flow-keyed exemption included: a constant
   key names the same entry on every shard, a parameter key one flow's. *)
let gap_src =
  {|module Gap

global ref<map<int<64>, int<64>>> tbl

void setup () {
    tbl = new map<int<64>, int<64>>
}

void expire () {
    map.insert tbl 1 2
}

void expire_flow (int<64> k) {
    map.insert tbl k 2
}

bool per_packet (addr src) {
    local ref<callable<void>> c
    c = callable.bind Gap::expire ()
    return True
}

bool per_flow (int<64> k) {
    local ref<callable<void>> c
    c = callable.bind Gap::expire_flow (k)
    return True
}
|}

let test_racecheck_timer_container () =
  let p = program (compile gap_src) in
  let rules entry =
    List.map
      (fun (r : Racecheck.race) -> (r.Racecheck.r_rule, r.Racecheck.r_func))
      (Racecheck.check p ~shard_entries:[ entry ])
  in
  Alcotest.(check (list (pair string string)))
    "binding a constant-keyed map.insert on a global"
    [ ("race/timer-cross-shard", "Gap::per_packet") ]
    (rules "Gap::per_packet");
  Alcotest.(check (list (pair string string)))
    "binding a parameter-keyed map.insert on a global" [] (rules "Gap::per_flow");
  Alcotest.(check (list (pair string string)))
    "a constant-keyed map.insert on the packet path"
    [ ("race/global-write", "Gap::expire") ]
    (rules "Gap::expire")

(* ---- Recycled frames: differentials + counters ---------------------------- *)

let reuse_src =
  {|module W

int<64> leaf (int<64> a) {
    local int<64> r
    r = int.mul a a
    return r
}

int<64> f (int<64> x) {
    local int<64> a
    local int<64> b
    local int<64> c
    a = call W::leaf (x)
    b = call W::leaf (a)
    c = int.add a b
    return c
}

int<64> acc (int<64> x) {
    local int<64> s
    local bool big
    big = int.gt x 10
    if.else big add done
add:
    s = int.add s x
done:
    return s
}

int<64> lookup (int<64> key, bool guarded) {
    local ref<map<int<64>, int<64>>> m
    local int<64> v
    m = new map<int<64>, int<64>>
    map.insert m 1 100
    if.else guarded g u
g:
    try {
        v = map.get m key
        return v
    }
    catch ( ref<exception> e ) {
        return -1
    }
u:
    v = map.get m key
    return v
}
|}

(* Run [f] with the frame pools' debug poisoning on: every acquired frame
   starts with the sentinel in each register not initialized at entry and
   each register a recycled frame does not restore. *)
let with_arena_debug f =
  let saved = !Vm.arena_debug in
  Vm.arena_debug := true;
  Fun.protect ~finally:(fun () -> Vm.arena_debug := saved) f

let test_frames_differential () =
  (* One program, poisoned and clean calls interleaved so each run starts
     from the frames the previous one left: a stale register that
     recycling exposed would fail its type check or change the result. *)
  let api = compile reuse_src in
  let call x = Value.as_int (Hilti_vm.Host_api.call api "W::f" [ Value.Int x ]) in
  List.iter
    (fun x ->
      Alcotest.(check int64)
        (Printf.sprintf "f(%Ld) identical with and without poisoning" x)
        (call x) (with_arena_debug (fun () -> call x)))
    [ 0L; 3L; 5L; -7L ];
  (* [W::acc] reads its local [s] before writing it, so a recycled frame
     must restore [s] to its default, and the poison must leave it be.
     Specialized, [s] lives in the int bank, which the bank template
     restores; generic, it is a boxed register in the reset set. *)
  List.iter
    (fun api ->
      let acc x = Value.as_int (Hilti_vm.Host_api.call api "W::acc" [ Value.Int x ]) in
      List.iter
        (fun (x, want) ->
          Alcotest.(check int64) (Printf.sprintf "acc(%Ld)" x) want (acc x);
          Alcotest.(check int64)
            (Printf.sprintf "acc(%Ld) poisoned" x)
            want
            (with_arena_debug (fun () -> acc x)))
        [ (20L, 20L); (30L, 30L); (5L, 0L); (11L, 11L) ])
    [ api;
      Hilti_vm.Host_api.compile ~optimize:false ~specialize:false
        [ Hilti_lang.Parser.parse_module reuse_src ] ];
  (* A host call passing no argument binds the parameter to its default,
     not to the previous activation's argument. *)
  let leaf args = Value.as_int (Hilti_vm.Host_api.call api "W::leaf" args) in
  Alcotest.(check int64) "leaf(7)" 49L (leaf [ Value.Int 7L ]);
  Alcotest.(check int64) "leaf() sees the default" 0L (leaf []);
    (* [W::lookup] returns from inside a [try]: the next activation, in the
     same recycled frame, must not inherit its handler. *)
  let lookup key guarded =
    match Hilti_vm.Host_api.call api "W::lookup" [ Value.Int key; Value.Bool guarded ] with
    | v -> Ok (Value.as_int v)
    | exception Value.Hilti_error e -> Error e.Value.ename
  in
  Alcotest.(check bool) "return from inside try" true (lookup 1L true = Ok 100L);
  Alcotest.(check bool) "unguarded miss raises" true (Result.is_error (lookup 2L false));
  Alcotest.(check bool) "guarded miss is caught" true (lookup 2L true = Ok (-1L));
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value Vm.m_frames_reused in
      for _ = 1 to 4 do
        ignore (call 5L)
      done;
      let after = Metrics.counter_value Vm.m_frames_reused in
      Alcotest.(check bool) "frames_reused counter advanced" true
        (after > before))

(* A recursive function: every level of the recursion is live at once, so
   each needs its own frame, and the frames it leaves on the free list
   serve the next descent. *)
let rec_src =
  {|module Rec

int<64> fib (int<64> n) {
    local bool small
    local int<64> m
    local int<64> a
    local int<64> b
    local int<64> r
    small = int.lt n 2
    if.else small base step
base:
    return n
step:
    m = int.sub n 1
    a = call Rec::fib (m)
    m = int.sub n 2
    b = call Rec::fib (m)
    r = int.add a b
    return r
}
|}

let test_frames_recursion () =
  let api = compile rec_src in
  let fib n = Value.as_int (Hilti_vm.Host_api.call api "Rec::fib" [ Value.Int n ]) in
  let rec expect n = if n < 2L then n else Int64.add (expect (Int64.sub n 1L)) (expect (Int64.sub n 2L)) in
  List.iter
    (fun n ->
      Alcotest.(check int64) (Printf.sprintf "fib(%Ld) clean" n) (expect n) (fib n);
      Alcotest.(check int64)
        (Printf.sprintf "fib(%Ld) poisoned" n)
        (expect n)
        (with_arena_debug (fun () -> fib n)))
    [ 0L; 1L; 2L; 7L; 15L ];
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value Vm.m_frames_reused in
      ignore (fib 10L);
      let after = Metrics.counter_value Vm.m_frames_reused in
      (* fib(10) makes 177 activations; all but the first descent's ten
         fresh frames could be recycled. *)
      Alcotest.(check bool) "recursive calls recycle frames" true (after - before >= 150))

(* A yielding callee: while one activation is parked at its yield, it
   keeps its frames off the free lists, so an overlapping activation runs
   in other frames.  Built through the IR builder because the surface
   language has no yield statement. *)
let build_susp_module () =
  let m = Module_ir.create "S" in
  let b =
    Builder.func m "S::slow" ~params:[ ("x", Htype.Int 64) ]
      ~result:(Htype.Int 64)
  in
  let r =
    Builder.emit b (Htype.Int 64) "int.mul" [ Instr.Local "x"; Instr.Local "x" ]
  in
  Builder.instr b "yield" [];
  Builder.return_result b r;
  let b2 =
    Builder.func m "S::drive" ~params:[ ("x", Htype.Int 64) ]
      ~result:(Htype.Int 64)
  in
  let t = Builder.tmp b2 (Htype.Int 64) in
  Builder.call b2 ~target:t "S::slow" [ Instr.Local "x" ];
  Builder.return_result b2 (Instr.Local t);
  m

let test_frames_suspend_overlap () =
  let module H = Hilti_vm.Host_api in
  let api = H.compile ~optimize:false [ build_susp_module () ] in
  let drive x =
    let run = H.call_fiber api (H.func api "S::drive") [ Value.Int x ] in
    ignore (H.resume run);
    Value.as_int (H.result_exn run)
  in
  (* run1 parks inside S::slow holding its frames... *)
  let run1 = H.call_fiber api (H.func api "S::drive") [ Value.Int 3L ] in
  Alcotest.(check bool) "run1 parked" false (H.finished run1);
  (* ...while run2's overlapping activation runs in frames of its own. *)
  let run2 = H.call_fiber api (H.func api "S::drive") [ Value.Int 4L ] in
  Alcotest.(check bool) "run2 parked" false (H.finished run2);
  ignore (H.resume run1);
  ignore (H.resume run2);
  Alcotest.(check int64) "run1 result intact across overlap" 9L
    (Value.as_int (H.result_exn run1));
  Alcotest.(check int64) "run2 result intact across overlap" 16L
    (Value.as_int (H.result_exn run2));
  (* A parked activation costs later ones no allocation: they recycle
     frames exactly as they would with nothing parked. *)
  let n = 200 in
  let words_per_activation () =
    ignore (drive 1L);
    let before = Gc.minor_words () in
    for x = 1 to n do
      ignore (drive (Int64.of_int x))
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let unparked = words_per_activation () in
  let blocker = H.call_fiber api (H.func api "S::drive") [ Value.Int 6L ] in
  let parked = words_per_activation () in
  ignore (H.resume blocker);
  Alcotest.(check int64) "blocker result" 36L (Value.as_int (H.result_exn blocker));
  if parked > unparked then
    Alcotest.failf "parked overlap allocates %.1f words/activation, unparked %.1f" parked
      unparked;
  (* A fiber dropped while parked never returns its frames; later
     activations build or recycle others and stay correct. *)
  (let dropped = H.call_fiber api (H.func api "S::drive") [ Value.Int 5L ] in
   Alcotest.(check bool) "dropped run parked" false (H.finished dropped));
  for x = 1 to 20 do
    Alcotest.(check int64) "activation after a dropped fiber" (Int64.of_int (x * x))
      (with_arena_debug (fun () -> drive (Int64.of_int x)))
  done

let test_frames_poison_fires () =
  (* The differentials above only mean something if poisoning is
     observable.  Take a constant-pool register — initialized at entry,
     read by the call below — and pretend the verifier had proven it a
     temporary ([entry_init] false): a poisoned frame then hands the
     poison to the callee, which must fail or compute something else. *)
  let src =
    {|module K

int<64> sq (int<64> a) {
    local int<64> r
    r = int.mul a a
    return r
}

int<64> f (int<64> x) {
    local int<64> a
    local int<64> b
    a = call K::sq (3)
    b = int.add a x
    return b
}
|}
  in
  let api = compile src in
  let p = program api in
  let f = p.Bc.funcs.(fidx p "K::f") in
  let r = ref (-1) in
  Array.iteri
    (fun i v -> if i >= f.Bc.nparams && v = Value.Int 3L then r := i)
    f.Bc.reg_defaults;
  Alcotest.(check bool) "constant register found" true (!r >= 0);
  f.Bc.entry_init.(!r) <- false;
  let run () =
    match Hilti_vm.Host_api.call api "K::f" [ Value.Int 1L ] with
    | v -> Ok (Value.as_int v)
    | exception Value.Hilti_error e -> Error e.Value.ename
  in
  Alcotest.(check bool) "clean without poisoning" true (run () = Ok 10L);
  with_arena_debug (fun () ->
      for _ = 1 to 2 do
        Alcotest.(check bool) "poisoned read fails or diverges" true
          (run () <> Ok 10L)
      done)

(* ---- Parses parked mid-unpack ------------------------------------------------ *)

(* Feed every input to its own incremental session of [unit_name], one
   byte per session per round, then finish them all: each [unpack] and
   [read] short of input parks its fiber with the parse position in its
   frame's int bank, while the other sessions' activations run.  The units,
   rendered field by field. *)
let parse_bytewise parser ~unit_name inputs =
  let module R = Binpacxx.Runtime in
  let sessions = List.map (fun input -> (R.session parser ~unit_name, input)) inputs in
  let longest = List.fold_left (fun m i -> max m (String.length i)) 0 inputs in
  for k = 0 to longest - 1 do
    List.iter
      (fun (s, input) -> if k < String.length input then ignore (R.feed_sub s input k 1))
      sessions
  done;
  List.map
    (fun (s, _) ->
      match R.finish s with
      | R.Done v -> Value.to_string v
      | R.Blocked -> "blocked"
      | R.Failed m -> "failed: " ^ m)
    sessions

let dns_messages () =
  let cfg = { Hilti_traces.Dns_gen.default with transactions = 12; seed = 5 } in
  List.filter_map
    (fun (r : Hilti_net.Pcap.record) ->
      match Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data with
      | Some pkt -> Some (Hilti_net.Packet.payload pkt)
      | None -> None)
    (Hilti_traces.Dns_gen.generate cfg).Hilti_traces.Dns_gen.records

let mqtt_streams () =
  let module M = Hilti_traces.Mqtt_gen in
  [ M.connect ~client_id:"sensor-7" ~keepalive:60
    ^ M.subscribe ~msgid:3 [ ("home/temp", 1); ("factory/#", 0) ]
    ^ M.publish ~topic:"home/temp" ~qos:1 ~msgid:9 "21.5"
    ^ M.puback ~msgid:4 ^ M.pingreq ^ M.disconnect;
    M.connack ~retcode:0 ^ M.suback ~msgid:3 [ 1; 0 ]
    ^ M.publish ~topic:"factory/line1" ~qos:0 ~msgid:0 (String.make 300 'x')
    ^ M.pingresp ]

let test_parse_suspends_mid_unpack () =
  let module R = Binpacxx.Runtime in
  List.iter
    (fun (name, grammar, unit_name, inputs) ->
      let generic = R.load ~specialize:false grammar and spec = R.load grammar in
      let whole =
        List.map (fun i -> Value.to_string (R.parse_string generic ~unit_name i)) inputs
      in
      let check what got =
        List.iteri
          (fun k (w, g) ->
            Alcotest.(check string) (Printf.sprintf "%s #%d: %s" name k what) w g)
          (List.combine whole got)
      in
      check "generic, bytewise" (parse_bytewise generic ~unit_name inputs);
      check "specialized, bytewise" (parse_bytewise spec ~unit_name inputs);
      check "specialized, bytewise, poisoned frames"
        (with_arena_debug (fun () -> parse_bytewise spec ~unit_name inputs));
      check "specialized, bytewise, after poisoning" (parse_bytewise spec ~unit_name inputs))
    [ ("dns", Binpacxx.Grammars.parse_dns (), "Message", dns_messages ());
      ("mqtt", Binpacxx.Grammars.parse_mqtt (), "Packets", mqtt_streams ()) ]

let suite =
  [ Alcotest.test_case "racecheck: racy fixture" `Quick test_racecheck_flags_races;
    Alcotest.test_case "racecheck: flow-keyed exemption" `Quick test_racecheck_flow_keyed_clean;
    Alcotest.test_case "racecheck: transitive timer write" `Quick test_racecheck_timer_transitive;
    Alcotest.test_case "racecheck: recursive timer target" `Quick test_racecheck_timer_recursive;
    Alcotest.test_case "racecheck: unaudited host in timer target" `Quick
      test_racecheck_timer_unaudited_host;
    Alcotest.test_case "racecheck: container write in timer target" `Quick
      test_racecheck_timer_container;
    Alcotest.test_case "frame reuse: differential" `Quick test_frames_differential;
    Alcotest.test_case "frame reuse: recursion" `Quick test_frames_recursion;
    Alcotest.test_case "frame reuse: suspend overlap" `Quick test_frames_suspend_overlap;
    Alcotest.test_case "frame reuse: poison detection fires" `Quick test_frames_poison_fires;
    Alcotest.test_case "frame reuse: parses parked mid-unpack" `Quick
      test_parse_suspends_mid_unpack ]
