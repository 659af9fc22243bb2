(* The HILTI runtime library (§3.2/§5): fibers, timers, expiring
   containers, channels, classifier, regexp engine, hooks, scheduler. *)

open Hilti_rt
open Hilti_types

let qt name gen prop = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 gen prop)

(* ---- Fibers ------------------------------------------------------------------ *)

let test_fiber_basic () =
  let log = ref [] in
  let f =
    Fiber.create (fun () ->
        log := "a" :: !log;
        Fiber.yield ();
        log := "b" :: !log;
        42)
  in
  Alcotest.(check bool) "suspends" true (Fiber.resume f = Fiber.Suspended);
  Alcotest.(check (list string)) "first half" [ "a" ] (List.rev !log);
  (match Fiber.resume f with
  | Fiber.Done v -> Alcotest.(check int) "result" 42 v
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check (list string)) "both halves" [ "a"; "b" ] (List.rev !log);
  match Fiber.resume f with
  | exception Fiber.Not_resumable -> ()
  | _ -> Alcotest.fail "resumed a finished fiber"

let test_fiber_failure () =
  let f = Fiber.create (fun () -> failwith "boom") in
  match Fiber.resume f with
  | Fiber.Failed (Failure msg) -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected failure to propagate"

let test_fiber_many_interleaved () =
  (* Many fibers multiplexed like per-session parsers (§3.2). *)
  let n = 50 in
  let outputs = Array.make n 0 in
  let fibers =
    Array.init n (fun i ->
        Fiber.create (fun () ->
            outputs.(i) <- outputs.(i) + 1;
            Fiber.yield ();
            outputs.(i) <- outputs.(i) + 10;
            Fiber.yield ();
            outputs.(i) <- outputs.(i) + 100))
  in
  Array.iter (fun f -> ignore (Fiber.resume f)) fibers;
  Array.iter (fun f -> ignore (Fiber.resume f)) fibers;
  Array.iter (fun f -> ignore (Fiber.resume f)) fibers;
  Array.iter (fun v -> Alcotest.(check int) "each completed" 111 v) outputs

let test_fiber_cancel () =
  let cleaned = ref false in
  let f =
    Fiber.create (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Fiber.yield ();
            ()))
  in
  ignore (Fiber.resume f);
  Fiber.cancel f;
  Alcotest.(check bool) "finalizer ran on cancel" true !cleaned

(* ---- Timers ------------------------------------------------------------------- *)

let test_timer_ordering () =
  let mgr = Timer_mgr.create () in
  let log = ref [] in
  let at secs = Time_ns.of_secs secs in
  List.iter
    (fun (label, t) ->
      ignore (Timer_mgr.schedule mgr (Timer.create (fun () -> log := label :: !log)) (at t)))
    [ ("c", 30); ("a", 10); ("d", 40); ("b", 20) ];
  Alcotest.(check int) "two fire" 2 (Timer_mgr.advance mgr (at 25));
  Alcotest.(check (list string)) "in time order" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "rest fire" 2 (Timer_mgr.advance mgr (at 100));
  Alcotest.(check (list string)) "all in order" [ "a"; "b"; "c"; "d" ] (List.rev !log)

let test_timer_cancel () =
  let mgr = Timer_mgr.create () in
  let fired = ref false in
  let t = Timer.create (fun () -> fired := true) in
  Timer_mgr.schedule mgr t (Time_ns.of_secs 10);
  Timer.cancel t;
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 20));
  Alcotest.(check bool) "canceled timer silent" false !fired

let test_timer_no_time_travel () =
  let mgr = Timer_mgr.create () in
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 100));
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 50));
  Alcotest.(check string) "clock monotone" "100.000000"
    (Time_ns.to_string (Timer_mgr.current mgr))

let prop_timer_fire_order =
  qt "timers fire in schedule order regardless of insertion order"
    QCheck.(small_list (int_range 1 1000))
    (fun times ->
      let mgr = Timer_mgr.create () in
      let log = ref [] in
      List.iter
        (fun t ->
          ignore
            (Timer_mgr.schedule mgr (Timer.create (fun () -> log := t :: !log))
               (Time_ns.of_secs t)))
        times;
      ignore (Timer_mgr.advance mgr (Time_ns.of_secs 10_000));
      List.rev !log = List.stable_sort compare times)

(* ---- Expiring containers --------------------------------------------------------- *)

let test_exp_map_policies () =
  let mgr = Timer_mgr.create () in
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 0));
  let m : (string, int) Exp_map.t = Exp_map.create () in
  Exp_map.set_timeout m (Expire.Create (Interval_ns.of_secs 10)) mgr;
  Exp_map.insert m "k" 1;
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 5));
  Alcotest.(check bool) "alive at 5" true (Exp_map.mem m "k");
  (* Create policy: access does not refresh. *)
  ignore (Exp_map.find_opt m "k");
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 11));
  Alcotest.(check bool) "expired at 11" false (Exp_map.mem m "k")

let test_exp_map_access_refresh () =
  let mgr = Timer_mgr.create () in
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 0));
  let m : (string, int) Exp_map.t = Exp_map.create () in
  Exp_map.set_timeout m (Expire.Access (Interval_ns.of_secs 10)) mgr;
  Exp_map.insert m "k" 1;
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 8));
  ignore (Exp_map.find_opt m "k");  (* refresh *)
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 15));
  Alcotest.(check bool) "refreshed entry alive at 15" true (Exp_map.mem m "k");
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 30));
  Alcotest.(check bool) "idle entry gone at 30" false (Exp_map.mem m "k")

let test_exp_map_default () =
  let m : (string, int ref) Exp_map.t = Exp_map.create () in
  Exp_map.set_default m (fun _ -> ref 0);
  (match Exp_map.find_opt m "x" with
  | Some r -> incr r
  | None -> Alcotest.fail "default not materialized");
  (match Exp_map.find_opt m "x" with
  | Some r -> Alcotest.(check int) "same instance" 1 !r
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "size" 1 (Exp_map.size m)

(* ---- Channels ---------------------------------------------------------------------- *)

let test_channel_fifo () =
  let c = Channel.create () in
  List.iter (fun i -> assert (Channel.try_write c i)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ]
    (List.filter_map (fun _ -> Channel.try_read c) [ (); (); () ]);
  Alcotest.(check bool) "drained" true (Channel.try_read c = None)

let test_channel_capacity () =
  let c = Channel.create ~capacity:2 () in
  Alcotest.(check bool) "w1" true (Channel.try_write c 1);
  Alcotest.(check bool) "w2" true (Channel.try_write c 2);
  Alcotest.(check bool) "w3 full" false (Channel.try_write c 3);
  ignore (Channel.try_read c);
  Alcotest.(check bool) "room again" true (Channel.try_write c 3)

(* ---- Classifier ---------------------------------------------------------------------- *)

let mk_rules engine rules =
  let c = Classifier.create ~engine 2 in
  List.iteri
    (fun i (src, dst, v) ->
      let field = function
        | "*" -> Classifier.wildcard
        | s -> Classifier.field_of_network (Network.of_string s)
      in
      Classifier.add c ~priority:(-i) [| field src; field dst |] v)
    rules;
  Classifier.compile c;
  c

let lookup c src dst =
  Classifier.get c
    [| Classifier.key_of_addr (Addr.of_string src);
       Classifier.key_of_addr (Addr.of_string dst) |]

let fig5_rules =
  [ ("10.3.2.1/32", "10.1.0.0/16", "allow");
    ("10.12.0.0/16", "10.1.0.0/16", "deny");
    ("10.1.6.0/24", "*", "allow");
    ("10.1.7.0/24", "*", "allow") ]

let test_classifier_first_match () =
  List.iter
    (fun engine ->
      let c = mk_rules engine fig5_rules in
      Alcotest.(check (option string)) "rule 1" (Some "allow") (lookup c "10.3.2.1" "10.1.5.5");
      Alcotest.(check (option string)) "rule 2" (Some "deny") (lookup c "10.12.0.1" "10.1.5.5");
      Alcotest.(check (option string)) "wildcard dst" (Some "allow") (lookup c "10.1.7.9" "99.9.9.9");
      Alcotest.(check (option string)) "no match" None (lookup c "8.8.8.8" "9.9.9.9"))
    [ Classifier.List_scan; Classifier.Trie ]

let test_classifier_priority_overlap () =
  (* Overlapping rules: the most recently... no — highest priority wins,
     ties to earlier insertion (first-match). *)
  List.iter
    (fun engine ->
      let c = Classifier.create ~engine 1 in
      let f s = [| Classifier.field_of_network (Network.of_string s) |] in
      Classifier.add c ~priority:0 (f "10.0.0.0/8") "broad";
      Classifier.add c ~priority:1 (f "10.1.0.0/16") "specific";
      Classifier.compile c;
      Alcotest.(check (option string)) "priority wins" (Some "specific")
        (Classifier.get c [| Classifier.key_of_addr (Addr.of_string "10.1.2.3") |]);
      Alcotest.(check (option string)) "fallback" (Some "broad")
        (Classifier.get c [| Classifier.key_of_addr (Addr.of_string "10.9.2.3") |]))
    [ Classifier.List_scan; Classifier.Trie ]

(* Property: both engines agree on random rule sets and keys. *)
let prop_classifier_engines_agree =
  let octet = QCheck.Gen.int_range 0 255 in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 20)
           (pair (pair octet (int_range 0 24)) (pair octet (int_range 0 24))))
        (list_size (int_range 1 30) (pair octet octet)))
  in
  qt "classifier: list and trie engines agree" (QCheck.make gen)
    (fun (rules, keys) ->
      let build engine =
        let c = Classifier.create ~engine 2 in
        List.iteri
          (fun i ((o1, l1), (o2, l2)) ->
            let net o l = Classifier.field_of_network
                (Network.make (Addr.of_ipv4_octets 10 o 0 0) (min 32 (8 + l)))
            in
            Classifier.add c ~priority:(-i) [| net o1 l1; net o2 l2 |] i)
          rules;
        Classifier.compile c;
        c
      in
      let cl = build Classifier.List_scan and ct = build Classifier.Trie in
      List.for_all
        (fun (a, b) ->
          let key o = Classifier.key_of_addr (Addr.of_ipv4_octets 10 o 3 4) in
          Classifier.get cl [| key a; key b |] = Classifier.get ct [| key a; key b |])
        keys)

(* ---- Regexp engine ----------------------------------------------------------------------- *)

let test_regexp_syntax () =
  let cases =
    [ ("[0-9]+", "12345", true);
      ("[0-9]+", "x", false);
      ("abc|def", "def", true);
      ("a(bc)*d", "abcbcd", true);
      ("a(bc)*d", "ad", true);
      ("[^ \\t\\r\\n]+", "token", true);
      ("\\r?\\n", "\n", true);
      ("\\r?\\n", "\r\n", true);
      ("HTTP\\/", "HTTP/", true);
      ("a{2,3}", "aa", true);
      ("a{2,3}", "a", false);
      ("\\d+\\.\\d+", "1.1", true);
      ("[a-f0-9]{2}", "af", true) ]
  in
  List.iter
    (fun (pattern, input, expect) ->
      let re = Regexp.compile_one pattern in
      Alcotest.(check bool)
        (Printf.sprintf "/%s/ vs %S" pattern input)
        expect
        (Regexp.match_full re input
        || match Regexp.match_anchored re input ~pos:0 with
           | Some (_, len) -> len = String.length input
           | None -> false))
    cases

let test_regexp_longest_match () =
  let re = Regexp.compile_one "[0-9]+" in
  match Regexp.match_anchored re "123abc" ~pos:0 with
  | Some (0, 3) -> ()
  | Some (id, len) -> Alcotest.failf "got id=%d len=%d" id len
  | None -> Alcotest.fail "no match"

let test_regexp_multi_pattern () =
  (* Lower pattern ids win ties (§3.2 simultaneous matching). *)
  let re = Regexp.compile [ "GET"; "G[A-Z]+"; "POST" ] in
  (match Regexp.match_anchored re "GET /" ~pos:0 with
  | Some (0, 3) -> ()
  | other ->
      Alcotest.failf "expected (0,3), got %s"
        (match other with Some (i, l) -> Printf.sprintf "(%d,%d)" i l | None -> "none"));
  match Regexp.match_anchored re "POST /" ~pos:0 with
  | Some (2, 4) -> ()
  | _ -> Alcotest.fail "expected pattern 2"

let test_regexp_incremental () =
  let re = Regexp.compile_one "ab+c" in
  let m = Regexp.matcher re in
  ignore (Regexp.feed m "ab" 0 2);
  Alcotest.(check bool) "undecided" true (Regexp.result m ~final:false = Regexp.Need_more);
  ignore (Regexp.feed m "bbc" 0 3);
  (match Regexp.result m ~final:false with
  | Regexp.Match (0, 5) -> ()
  | _ -> Alcotest.fail "expected match of length 5");
  (* Negative: dead immediately on mismatch. *)
  let m2 = Regexp.matcher re in
  ignore (Regexp.feed m2 "xy" 0 2);
  Alcotest.(check bool) "dead" true (Regexp.is_dead m2);
  Alcotest.(check bool) "no match" true (Regexp.result m2 ~final:false = Regexp.No_match)

(* Property: incremental feeding over arbitrary chunk boundaries agrees
   with whole-string matching. *)
let prop_regexp_incremental_equiv =
  let gen =
    QCheck.Gen.(
      pair
        (oneofl [ "[ab]+c"; "a|bb"; "x[0-9]*y"; "(ab|cd)+"; "a.c" ])
        (pair (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'x'; 'y'; '1' ]) (int_range 0 12))
           (int_range 1 5)))
  in
  qt "regexp: chunked = whole" (QCheck.make gen)
    (fun (pattern, (input, chunk)) ->
      let re = Regexp.compile_one pattern in
      let whole =
        let m = Regexp.matcher re in
        ignore (Regexp.feed m input 0 (String.length input));
        Regexp.result m ~final:true
      in
      let chunked =
        let m = Regexp.matcher re in
        let i = ref 0 in
        while !i < String.length input do
          let len = min chunk (String.length input - !i) in
          ignore (Regexp.feed m input !i len);
          i := !i + len
        done;
        Regexp.result m ~final:true
      in
      whole = chunked)

(* ---- Scheduler -------------------------------------------------------------------------------- *)

let test_scheduler_fifo_per_thread () =
  let s = Scheduler.create () in
  let log = ref [] in
  Scheduler.schedule s 1L (fun () -> log := "1a" :: !log);
  Scheduler.schedule s 1L (fun () -> log := "1b" :: !log);
  Scheduler.schedule s 2L (fun () -> log := "2a" :: !log);
  Scheduler.run s;
  let order = List.rev !log in
  (* FIFO within thread 1. *)
  let i1a = Option.get (List.find_index (( = ) "1a") order) in
  let i1b = Option.get (List.find_index (( = ) "1b") order) in
  Alcotest.(check bool) "fifo within thread" true (i1a < i1b);
  Alcotest.(check int) "all ran" 3 (List.length order)

let test_scheduler_jobs_spawn_jobs () =
  let s = Scheduler.create () in
  let count = ref 0 in
  let rec job depth () =
    incr count;
    if depth < 5 then Scheduler.schedule s (Int64.of_int depth) (job (depth + 1))
  in
  Scheduler.schedule s 0L (job 0);
  Scheduler.run s;
  Alcotest.(check int) "chain of spawned jobs" 6 !count

let test_scheduler_command_queue () =
  let s = Scheduler.create () in
  let log = ref [] in
  Scheduler.command s (fun () -> log := "cmd" :: !log);
  Scheduler.schedule s 5L (fun () -> log := "job" :: !log);
  Scheduler.run s;
  (* Commands are serialized ahead of per-thread work in each round. *)
  Alcotest.(check (list string)) "command first" [ "cmd"; "job" ] (List.rev !log)

(* ---- QCheck: Channel under real domains ------------------------------------- *)

let channel_stress =
  QCheck.Test.make ~count:15 ~name:"channel: no lost or duplicated messages across domains"
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 8) (int_range 0 60))
    (fun (producers, consumers, capacity, per_producer) ->
      let chan = Hilti_rt.Channel.create ~capacity () in
      let total = producers * per_producer in
      let consumed = Atomic.make 0 in
      let over_capacity = Atomic.make false in
      let prod p =
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              while not (Hilti_rt.Channel.try_write chan (p, i)) do
                Domain.cpu_relax ()
              done
            done)
      in
      let cons _ =
        Domain.spawn (fun () ->
            let got = ref [] in
            let rec loop () =
              if Hilti_rt.Channel.size chan > capacity then
                Atomic.set over_capacity true;
              match Hilti_rt.Channel.try_read chan with
              | Some v ->
                  got := v :: !got;
                  Atomic.incr consumed;
                  loop ()
              | None ->
                  if Atomic.get consumed < total then begin
                    Domain.cpu_relax ();
                    loop ()
                  end
            in
            loop ();
            !got)
      in
      let ps = List.init producers prod in
      let cs = List.init consumers cons in
      List.iter Domain.join ps;
      let received = List.concat_map Domain.join cs in
      let expected =
        List.concat_map
          (fun p -> List.init per_producer (fun i -> (p, i)))
          (List.init producers Fun.id)
      in
      List.sort compare received = List.sort compare expected
      && (not (Atomic.get over_capacity))
      && Hilti_rt.Channel.is_empty chan)

(* ---- Profiler exclusive accounting -------------------------------------------------------------- *)

let test_profiler_exclusive () =
  Profiler.reset_all ();
  let busy ms =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < ms /. 1000. do
      ()
    done
  in
  let naive_outer = Profiler.create "naive_outer"
  and outer = Profiler.create "outer"
  and inner = Profiler.create "inner" in
  (* Control: plain nesting makes the outer window include the inner. *)
  Profiler.time naive_outer (fun () ->
      busy 3.;
      Profiler.time (Profiler.create "naive_inner") (fun () -> busy 5.));
  (* Exclusive: the inner window is carved out of the outer. *)
  Profiler.time outer (fun () ->
      busy 3.;
      Profiler.time_exclusive inner (fun () -> busy 5.));
  let ms p = Int64.to_float (Profiler.wall_ns p) /. 1e6 in
  let naive = ms naive_outer and outer = ms outer and inner = ms inner in
  Alcotest.(check bool)
    (Printf.sprintf "exclusive outer (%.1fms) < nested outer (%.1fms), inner=%.1fms"
       outer naive inner)
    true
    (inner >= 4.0 && outer < naive -. 2.0);
  Profiler.reset_all ()

let suite =
  [ Alcotest.test_case "fiber basics" `Quick test_fiber_basic;
    Alcotest.test_case "fiber failure" `Quick test_fiber_failure;
    Alcotest.test_case "fiber multiplexing" `Quick test_fiber_many_interleaved;
    Alcotest.test_case "fiber cancel" `Quick test_fiber_cancel;
    Alcotest.test_case "timer ordering" `Quick test_timer_ordering;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "timer monotone clock" `Quick test_timer_no_time_travel;
    prop_timer_fire_order;
    Alcotest.test_case "exp_map create policy" `Quick test_exp_map_policies;
    Alcotest.test_case "exp_map access refresh" `Quick test_exp_map_access_refresh;
    Alcotest.test_case "exp_map default" `Quick test_exp_map_default;
    Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
    Alcotest.test_case "channel capacity" `Quick test_channel_capacity;
    Alcotest.test_case "classifier first match (Fig. 5 rules)" `Quick test_classifier_first_match;
    Alcotest.test_case "classifier priority" `Quick test_classifier_priority_overlap;
    prop_classifier_engines_agree;
    Alcotest.test_case "regexp syntax" `Quick test_regexp_syntax;
    Alcotest.test_case "regexp longest match" `Quick test_regexp_longest_match;
    Alcotest.test_case "regexp multi-pattern ids" `Quick test_regexp_multi_pattern;
    Alcotest.test_case "regexp incremental" `Quick test_regexp_incremental;
    prop_regexp_incremental_equiv;
    Alcotest.test_case "scheduler fifo" `Quick test_scheduler_fifo_per_thread;
    Alcotest.test_case "scheduler spawned jobs" `Quick test_scheduler_jobs_spawn_jobs;
    Alcotest.test_case "scheduler command queue" `Quick test_scheduler_command_queue;
    Alcotest.test_case "profiler exclusive accounting" `Quick test_profiler_exclusive;
    QCheck_alcotest.to_alcotest channel_stress ]
