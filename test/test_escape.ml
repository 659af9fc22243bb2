(* Interprocedural effect summaries, the analysis-licensed frame arena,
   and the static shard-race detector. *)

module Bc = Hilti_vm.Bytecode
module Value = Hilti_vm.Value
module Vm = Hilti_vm.Vm
module Summary = Hilti_vm.Summary
module Racecheck = Hilti_analysis.Racecheck
module Metrics = Hilti_obs.Metrics

(* Compile a source module as the runtime would, but without the
   optimizer, so bytecode pcs line up with the program as written. *)
let compile ?(frame_reuse = true) src =
  Hilti_vm.Host_api.compile ~optimize:false ~frame_reuse
    [ Hilti_lang.Parser.parse_module src ]

let program api = api.Hilti_vm.Host_api.ctx.Vm.program

let fidx p name =
  match Bc.find_func p name with
  | Some i -> i
  | None -> Alcotest.failf "function %s not found" name

(* ---- Effect summaries --------------------------------------------------- *)

let summary_src =
  {|module S

import Hilti

global int<64> g

void wr () {
    g = assign 1
}

void caller () {
    call S::wr ()
}

int<64> rd () {
    local int<64> x
    x = int.add g 0
    return x
}

void printer () {
    call Hilti::print ("hi")
}
|}

let test_summary_effects () =
  let p = program (compile summary_src) in
  let s = Summary.compute p in
  let total name = s.Summary.total.(fidx p name) in
  Alcotest.(check bool) "wr writes g" false
    (Summary.IntSet.is_empty (total "S::wr").Summary.writes_globals);
  (* The write is transitive through the call, but not local to caller. *)
  Alcotest.(check bool) "caller inherits the write" false
    (Summary.IntSet.is_empty (total "S::caller").Summary.writes_globals);
  Alcotest.(check bool) "caller's own effects are clean" true
    (Summary.IntSet.is_empty
       s.Summary.local.(fidx p "S::caller").Summary.writes_globals);
  Alcotest.(check bool) "rd reads g" false
    (Summary.IntSet.is_empty (total "S::rd").Summary.reads_globals);
  Alcotest.(check bool) "rd writes nothing" true
    (Summary.IntSet.is_empty (total "S::rd").Summary.writes_globals);
  let pr = total "S::printer" in
  Alcotest.(check bool) "print audited as io" true pr.Summary.does_io;
  Alcotest.(check bool) "print is in the audit table" false pr.Summary.unknown_host

let test_summary_recursion () =
  let src =
    {|module R

void a () {
    call R::b ()
}

void b () {
    call R::a ()
}

void leaf () {
    local int<64> x
    x = assign 1
}
|}
  in
  let p = program (compile src) in
  let s = Summary.compute p in
  Alcotest.(check bool) "a is (mutually) recursive" true
    s.Summary.recursive.(fidx p "R::a");
  Alcotest.(check bool) "b is (mutually) recursive" true
    s.Summary.recursive.(fidx p "R::b");
  Alcotest.(check bool) "leaf is not recursive" false
    s.Summary.recursive.(fidx p "R::leaf");
  Alcotest.(check bool) "recursive functions get no reuse licence" false
    (Summary.reusable s (fidx p "R::a"));
  Alcotest.(check bool) "leaf gets a reuse licence" true
    (Summary.reusable s (fidx p "R::leaf"))

(* ---- The frame-reuse licence on hand-built bytecode ---------------------- *)

let mk_func ?(name = "t") ?(nparams = 0) ?(nregs = 4) code =
  let n = max nregs 1 in
  let init = Array.make n false in
  for i = 0 to nparams - 1 do
    init.(i) <- true
  done;
  {
    Bc.name;
    nparams;
    nregs;
    code = Array.of_list code;
    returns_value = true;
    exported = false;
    reg_defaults = Array.make n Value.Null;
    entry_init = init;
    typing = [||];
    spec = None;
  }

let mk_prog funcs =
  let funcs = Array.of_list funcs in
  let func_index = Hashtbl.create 8 in
  Array.iteri (fun i (f : Bc.func) -> Hashtbl.replace func_index f.Bc.name i) funcs;
  {
    Bc.funcs;
    func_index;
    globals = [||];
    global_defaults = [||];
    global_index = Hashtbl.create 8;
    hooks = Hashtbl.create 8;
    layouts = Hashtbl.create 8;
    host_names = [||];
    verified = false;
    specialized = false;
    reuse = [||];
    reuse_susp = [||];
  }

let test_reuse_licence_rules () =
  (* Index order below: 0 pure, 1 self-recursive, 2 yielding, 3 calls the
     yielder, 4 indirect call. *)
  let p =
    mk_prog
      [ mk_func ~name:"pure" [ Bc.Const (0, Value.Int 1L); Bc.Ret 0 ];
        mk_func ~name:"self" [ Bc.Call (1, [||], 0); Bc.Ret 0 ];
        mk_func ~name:"yields"
          [ Bc.Yield; Bc.Const (0, Value.Int 1L); Bc.Ret 0 ];
        mk_func ~name:"calls_yielder" [ Bc.Call (2, [||], 0); Bc.Ret 0 ];
        mk_func ~name:"indirect"
          [ Bc.Const (0, Value.Null); Bc.Prim (Bc.P_callable_call, [| 0 |], 1);
            Bc.Ret 1 ] ]
  in
  let s = Summary.license_frame_reuse p in
  let lic name = p.Bc.reuse.(fidx p name) in
  Alcotest.(check bool) "pure function licensed" true (lic "pure");
  Alcotest.(check bool) "self-recursion refused" false (lic "self");
  Alcotest.(check bool) "suspension refused" false (lic "yields");
  Alcotest.(check bool) "suspension refused transitively" false
    (lic "calls_yielder");
  Alcotest.(check bool) "indirect call refused" false (lic "indirect");
  Alcotest.(check bool) "summary reports yields as suspending" true
    s.Summary.total.(fidx p "yields").Summary.may_suspend;
  (* The suspend-tolerant class: exactly the yielders that meet every
     other condition, and disjoint from the strict licence. *)
  let lic_s name = p.Bc.reuse_susp.(fidx p name) in
  Alcotest.(check bool) "yielder gets the suspend licence" true (lic_s "yields");
  Alcotest.(check bool) "transitive yielder gets the suspend licence" true
    (lic_s "calls_yielder");
  Alcotest.(check bool) "pure function not in the suspend class" false
    (lic_s "pure");
  Alcotest.(check bool) "self-recursion refused in the suspend class" false
    (lic_s "self");
  Alcotest.(check bool) "indirect call refused in the suspend class" false
    (lic_s "indirect");
  Array.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "licence classes disjoint for %s" f.Bc.name)
        false
        (p.Bc.reuse.(i) && p.Bc.reuse_susp.(i)))
    p.Bc.funcs

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

(* ---- Frame reuse: differential + counters --------------------------------- *)

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
|}

(* Run [f] with the frame arena's debug poisoning on: every reused frame
   starts with the sentinel in each register not initialized at entry. *)
let with_arena_debug f =
  let saved = !Vm.arena_debug in
  Vm.arena_debug := true;
  Fun.protect ~finally:(fun () -> Vm.arena_debug := saved) f

let test_frame_reuse_differential () =
  (* Reuse runs poisoned: a stale register that reuse exposed would fail
     its type check or change the result. *)
  let run frame_reuse x =
    let api = compile ~frame_reuse reuse_src in
    let call () = Value.as_int (Hilti_vm.Host_api.call api "W::f" [ Value.Int x ]) in
    if frame_reuse then with_arena_debug call else call ()
  in
  List.iter
    (fun x ->
      Alcotest.(check int64)
        (Printf.sprintf "f(%Ld) identical with and without reuse" x)
        (run false x) (run true x))
    [ 0L; 3L; 5L; -7L ];
  (* The licence is actually granted and exercised. *)
  let api = compile reuse_src in
  let p = program api in
  Alcotest.(check bool) "leaf licensed" true (p.Bc.reuse.(fidx p "W::leaf"));
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value Vm.m_frames_reused in
      for _ = 1 to 4 do
        ignore (Hilti_vm.Host_api.call api "W::f" [ Value.Int 5L ])
      done;
      let after = Metrics.counter_value Vm.m_frames_reused in
      Alcotest.(check bool) "frames_reused counter advanced" true
        (after > before))

(* Suspend-tolerant reuse: a yielding callee is served from the arena;
   while one activation is parked at its yield, a second activation of the
   same function observes the busy slot, copies, and the copy is metered
   by [vm_frame_suspend_copies].  Built through the IR builder because the
   surface language has no yield statement. *)
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

let test_frame_reuse_suspend_overlap () =
  let api = Hilti_vm.Host_api.compile ~optimize:false [ build_susp_module () ] in
  let p = program api in
  Alcotest.(check bool) "yielding callee in the suspend class" true
    (p.Bc.reuse_susp.(fidx p "S::slow"));
  Alcotest.(check bool) "yielding callee not strictly licensed" false
    (p.Bc.reuse.(fidx p "S::slow"));
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value Vm.m_frame_suspend_copies in
      (* run1 parks inside S::slow holding the arena slot busy... *)
      let run1 = Hilti_vm.Host_api.call_fiber api "S::drive" [ Value.Int 3L ] in
      Alcotest.(check bool) "run1 parked" false (Hilti_vm.Host_api.finished run1);
      (* ...so run2's overlapping activation must take the copy path. *)
      let run2 = Hilti_vm.Host_api.call_fiber api "S::drive" [ Value.Int 4L ] in
      Alcotest.(check bool) "run2 parked" false (Hilti_vm.Host_api.finished run2);
      let after = Metrics.counter_value Vm.m_frame_suspend_copies in
      Alcotest.(check bool) "suspend-copy fallback metered" true (after > before);
      ignore (Hilti_vm.Host_api.resume run1);
      ignore (Hilti_vm.Host_api.resume run2);
      Alcotest.(check int64) "run1 result intact across overlap" 9L
        (Value.as_int (Hilti_vm.Host_api.result_exn run1));
      Alcotest.(check int64) "run2 result intact across overlap" 16L
        (Value.as_int (Hilti_vm.Host_api.result_exn run2)))

let test_frame_reuse_poison_fires () =
  (* The differential above only means something if poisoning is
     observable.  Take a constant-pool register — initialized at entry,
     read by the call below — and pretend the verifier had proven it a
     temporary ([entry_init] false): a reused frame then hands the
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
  Alcotest.(check bool) "K::f licensed" true p.Bc.reuse.(fidx p "K::f");
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

let suite =
  [ Alcotest.test_case "summary: effect vectors" `Quick test_summary_effects;
    Alcotest.test_case "summary: recursion" `Quick test_summary_recursion;
    Alcotest.test_case "summary: reuse licence rules" `Quick test_reuse_licence_rules;
    Alcotest.test_case "racecheck: racy fixture" `Quick test_racecheck_flags_races;
    Alcotest.test_case "racecheck: flow-keyed exemption" `Quick test_racecheck_flow_keyed_clean;
    Alcotest.test_case "frame reuse: differential" `Quick test_frame_reuse_differential;
    Alcotest.test_case "frame reuse: suspend overlap copies" `Quick
      test_frame_reuse_suspend_overlap;
    Alcotest.test_case "frame reuse: poison detection fires" `Quick test_frame_reuse_poison_fires ]
