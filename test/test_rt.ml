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
  let m : int Exp_map.t = Exp_map.create () in
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
  let m : int Exp_map.t = Exp_map.create () in
  Exp_map.set_timeout m (Expire.Access (Interval_ns.of_secs 10)) mgr;
  Exp_map.insert m "k" 1;
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 8));
  ignore (Exp_map.find_opt m "k");  (* refresh *)
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 15));
  Alcotest.(check bool) "refreshed entry alive at 15" true (Exp_map.mem m "k");
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 30));
  Alcotest.(check bool) "idle entry gone at 30" false (Exp_map.mem m "k")

let test_exp_map_default () =
  let m : int ref Exp_map.t = Exp_map.create () in
  Exp_map.set_default m (fun _ -> ref 0);
  (match Exp_map.find_opt m "x" with
  | Some r -> incr r
  | None -> Alcotest.fail "default not materialized");
  (match Exp_map.find_opt m "x" with
  | Some r -> Alcotest.(check int) "same instance" 1 !r
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "size" 1 (Exp_map.size m)

(* A key removed (or cleared) and inserted again must not inherit the old
   entry's timer: the new entry lives its own full lifetime, and eviction
   reports the new value. *)
let stale_timer_case strategy ~drop () =
  let mgr = Timer_mgr.create () in
  let m : string Exp_map.t = Exp_map.create () in
  Exp_map.set_timeout m (strategy (Interval_ns.of_secs 10)) mgr;
  let expired = ref [] in
  Exp_map.set_on_expire m (fun k v -> expired := (k, v) :: !expired);
  Exp_map.insert m "k" "old";
  drop m;
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 5));
  Exp_map.insert m "k" "new";
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 10));
  Alcotest.(check bool) "re-inserted entry alive at 10" true (Exp_map.mem m "k");
  Alcotest.(check (list (pair string string))) "nothing evicted at 10" [] !expired;
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 15));
  Alcotest.(check bool) "re-inserted entry gone at 15" false (Exp_map.mem m "k");
  Alcotest.(check (list (pair string string)))
    "eviction reports the new value" [ ("k", "new") ] !expired;
  Alcotest.(check int) "no timer left" 0 (Timer_mgr.pending mgr)

let test_exp_map_stale_timer () =
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun (how, drop) ->
          try stale_timer_case strategy ~drop ()
          with e ->
            Alcotest.failf "%s after %s: %s" name how (Printexc.to_string e))
        [ ("remove", fun m -> Exp_map.remove m "k"); ("clear", Exp_map.clear) ])
    [ ("access", fun i -> Expire.Access i);
      ("write", fun i -> Expire.Write i);
      ("create", fun i -> Expire.Create i) ]

(* Refreshing moves a deadline: one key refreshed 100k times keeps one
   timer, and a refresh allocates nothing. *)
let test_exp_map_bounded_refresh () =
  let mgr = Timer_mgr.create () in
  let m : int Exp_map.t = Exp_map.create () in
  Exp_map.set_timeout m (Expire.Access (Interval_ns.of_secs 10)) mgr;
  Exp_map.insert m "k" 1;
  ignore (Exp_map.mem_touch m "k");
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (Exp_map.mem_touch m "k"))
  done;
  Alcotest.(check (float 0.)) "minor words over 100k refreshes" 0.
    (Gc.minor_words () -. w0);
  Alcotest.(check int) "one pending timer" 1 (Timer_mgr.pending mgr);
  (* With the clock moving 1 ms per refresh the timer fires early every
     10 s and re-arms; the entry stays, still with one timer. *)
  for i = 1 to 100_000 do
    ignore (Timer_mgr.advance mgr (Time_ns.of_ns (Int64.of_int (i * 1_000_000))));
    ignore (Exp_map.find_opt m "k")
  done;
  Alcotest.(check int) "one pending timer after 100 s" 1 (Timer_mgr.pending mgr);
  Alcotest.(check bool) "entry alive" true (Exp_map.mem m "k");
  ignore (Timer_mgr.advance mgr (Time_ns.of_secs 110));
  Alcotest.(check bool) "entry gone 10 s after the last refresh" false (Exp_map.mem m "k");
  Alcotest.(check int) "no timer left" 0 (Timer_mgr.pending mgr)

(* Every operation of [Exp_map] against a naive model that keeps one
   deadline per key and expires, on each advance, every key whose
   deadline has passed, in deadline order. *)
type exp_op =
  | Insert of int * int
  | Add_fresh of int * int
  | Find of int
  | Touch of int
  | Remove of int
  | Clear
  | Advance of int

let show_exp_op = function
  | Insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | Add_fresh (k, v) -> Printf.sprintf "add_fresh %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Touch k -> Printf.sprintf "touch %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"
  | Advance d -> Printf.sprintf "advance %d" d

let exp_op_gen =
  let open QCheck.Gen in
  let key = int_range 0 4 and value = int_range 0 99 in
  frequency
    [ (4, map2 (fun k v -> Insert (k, v)) key value);
      (2, map2 (fun k v -> Add_fresh (k, v)) key value);
      (3, map (fun k -> Find k) key);
      (3, map (fun k -> Touch k) key);
      (2, map (fun k -> Remove k) key);
      (1, return Clear);
      (5, map (fun d -> Advance d) (int_range 0 7)) ]

let timeout = 5

let run_exp_model (strategy : Expire.strategy) ops =
  let ns s = Int64.mul (Int64.of_int s) 1_000_000_000L in
  let mgr = Timer_mgr.create () in
  let m : int Exp_map.t = Exp_map.create () in
  if strategy <> Expire.Never then Exp_map.set_timeout m strategy mgr;
  let got = ref [] in
  Exp_map.set_on_expire m (fun k v -> got := (int_of_string k, v) :: !got);
  let key = string_of_int in
  (* The model: key -> (value, deadline in seconds). *)
  let model : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let now = ref 0 in
  let expires = strategy <> Expire.Never in
  let fresh k v = Hashtbl.replace model k (v, !now + timeout) in
  let refresh k by =
    match Hashtbl.find_opt model k with
    | Some (v, _) when by strategy -> Hashtbl.replace model k (v, !now + timeout)
    | _ -> ()
  in
  let fail op fmt = Printf.ksprintf (fun s -> failwith (show_exp_op op ^ ": " ^ s)) fmt in
  List.iter
    (fun op ->
      (match op with
      | Insert (k, v) ->
          Exp_map.insert m (key k) v;
          if Hashtbl.mem model k then begin
            let _, d = Hashtbl.find model k in
            Hashtbl.replace model k (v, d);
            refresh k Expire.refreshed_by_write
          end
          else fresh k v
      | Add_fresh (k, v) ->
          (* Precondition: the key is absent; present keys go through
             [insert]'s write path instead. *)
          if Hashtbl.mem model k then begin
            Exp_map.insert m (key k) v;
            let _, d = Hashtbl.find model k in
            Hashtbl.replace model k (v, d);
            refresh k Expire.refreshed_by_write
          end
          else begin
            Exp_map.add_fresh m (key k) v;
            fresh k v
          end
      | Find k ->
          let r = Exp_map.find_opt m (key k) in
          let expect = Option.map fst (Hashtbl.find_opt model k) in
          if r <> expect then fail op "find_opt disagrees";
          refresh k Expire.refreshed_by_read
      | Touch k ->
          let r = Exp_map.mem_touch m (key k) in
          if r <> Hashtbl.mem model k then fail op "mem_touch disagrees";
          refresh k Expire.refreshed_by_read
      | Remove k ->
          Exp_map.remove m (key k);
          Hashtbl.remove model k
      | Clear ->
          Exp_map.clear m;
          Hashtbl.reset model
      | Advance d ->
          now := !now + d;
          got := [];
          ignore (Timer_mgr.advance mgr (Time_ns.of_ns (ns !now)));
          let due =
            if expires then
              Hashtbl.fold
                (fun k (v, dl) acc -> if dl <= !now then (dl, (k, v)) :: acc else acc)
                model []
            else []
          in
          List.iter (fun (_, (k, _)) -> Hashtbl.remove model k) due;
          (* Compare deadline by deadline; a tie is compared as a set. *)
          let rec check got = function
            | [] -> if got <> [] then fail op "extra evictions"
            | (dl, _) :: _ as due ->
                let same, rest = List.partition (fun (d, _) -> d = dl) due in
                let n = List.length same in
                if List.length got < n then fail op "missing evictions at %d" dl;
                let head = List.filteri (fun i _ -> i < n) got
                and tail = List.filteri (fun i _ -> i >= n) got in
                if List.sort compare head <> List.sort compare (List.map snd same) then
                  fail op "evictions at %d disagree" dl;
                check tail rest
          in
          check (List.rev !got) (List.sort compare due));
      for k = 0 to 4 do
        if Exp_map.mem m (key k) <> Hashtbl.mem model k then
          fail op "membership of %d disagrees" k
      done;
      if Exp_map.size m <> Hashtbl.length model then fail op "size disagrees";
      let timers = if expires then Hashtbl.length model else 0 in
      if Timer_mgr.pending mgr <> timers then
        fail op "%d pending timers for %d entries" (Timer_mgr.pending mgr) timers)
    ops;
  true

let prop_exp_map_model =
  let strategies =
    [ Expire.Never;
      Expire.Create (Interval_ns.of_secs timeout);
      Expire.Access (Interval_ns.of_secs timeout);
      Expire.Write (Interval_ns.of_secs timeout) ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"exp_map == one-deadline-per-key model, all strategies" ~count:300
       (QCheck.make
          ~print:(fun (s, ops) ->
            Expire.to_string s ^ ": " ^ String.concat "; " (List.map show_exp_op ops))
          QCheck.Gen.(pair (oneofl strategies) (list_size (int_range 1 60) exp_op_gen)))
       (fun (s, ops) -> run_exp_model s ops))

(* The order contract: [Exp_map.fold] visits entries in the order of a
   stdlib [(string, int) Hashtbl.t] fed the same inserts, removes, clears
   and expiries, while up to 200 keys push a 16-bucket map through three
   doublings.  Every log that follows table order rests on it. *)
type wide_op =
  | W_insert of int * int
  | W_add_fresh of int * int
  | W_remove of int
  | W_clear
  | W_advance of int

let show_wide_op = function
  | W_insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | W_add_fresh (k, v) -> Printf.sprintf "add_fresh %d %d" k v
  | W_remove k -> Printf.sprintf "remove %d" k
  | W_clear -> "clear"
  | W_advance d -> Printf.sprintf "advance %d" d

let run_wide_order ops =
  let mgr = Timer_mgr.create () in
  let m : int Exp_map.t = Exp_map.create ~size:16 () in
  Exp_map.set_timeout m (Expire.Create (Interval_ns.of_secs 60)) mgr;
  let h : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Exp_map.set_on_expire m (fun k _ -> Hashtbl.remove h k);
  let key k = "key-" ^ string_of_int k in
  let now = ref 0 in
  let entries fold t = fold (fun k v acc -> (k, v) :: acc) t [] in
  List.iter
    (fun op ->
      (match op with
      | W_insert (k, v) ->
          Exp_map.insert m (key k) v;
          Hashtbl.replace h (key k) v
      | W_add_fresh (k, v) ->
          if Hashtbl.mem h (key k) then Exp_map.insert m (key k) v
          else Exp_map.add_fresh m (key k) v;
          Hashtbl.replace h (key k) v
      | W_remove k ->
          Exp_map.remove m (key k);
          Hashtbl.remove h (key k)
      | W_clear ->
          Exp_map.clear m;
          Hashtbl.reset h
      | W_advance d ->
          now := !now + d;
          ignore (Timer_mgr.advance mgr (Time_ns.of_secs !now)));
      if entries Exp_map.fold m <> entries Hashtbl.fold h then
        failwith (show_wide_op op ^ ": fold order differs from Hashtbl's"))
    ops;
  true

let test_exp_map_order_resizes () =
  let inserts = List.init 200 (fun k -> W_insert (k, k)) in
  let removes = List.init 100 (fun k -> W_remove (2 * k)) in
  ignore
    (run_wide_order
       (inserts @ removes @ [ W_clear ] @ inserts @ [ W_advance 61 ] @ List.rev inserts))

let prop_exp_map_order =
  let open QCheck.Gen in
  let key = int_range 0 199 and value = int_range 0 99 in
  let op =
    frequency
      [ (30, map2 (fun k v -> W_insert (k, v)) key value);
        (10, map2 (fun k v -> W_add_fresh (k, v)) key value);
        (8, map (fun k -> W_remove k) key);
        (1, return W_clear);
        (6, map (fun d -> W_advance d) (int_range 0 3)) ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"exp_map fold order == stdlib Hashtbl order, across resizes"
       ~count:100
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_wide_op ops))
          (list_size (int_range 100 600) op))
       run_wide_order)

(* [Timer_mgr.cancel] takes a timer out of the queue at once; the others
   still fire in time order. *)
let prop_timer_cancel_eager =
  qt "canceled timers leave the queue, the rest fire in order"
    QCheck.(small_list (pair (int_range 1 1000) bool))
    (fun specs ->
      let mgr = Timer_mgr.create () in
      let log = ref [] in
      let timers =
        List.map
          (fun (t, cancel) ->
            let timer = Timer.create (fun () -> log := t :: !log) in
            Timer_mgr.schedule mgr timer (Time_ns.of_secs t);
            (timer, cancel))
          specs
      in
      List.iter (fun (timer, cancel) -> if cancel then Timer_mgr.cancel mgr timer) timers;
      let kept = List.filter_map (fun (t, c) -> if c then None else Some t) specs in
      Timer_mgr.pending mgr = List.length kept
      && (ignore (Timer_mgr.advance mgr (Time_ns.of_secs 10_000));
          List.rev !log = List.stable_sort compare kept))

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

let mk_rules rules =
  let c = Classifier.create 2 in
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
  let c = mk_rules fig5_rules in
  Alcotest.(check (option string)) "rule 1" (Some "allow") (lookup c "10.3.2.1" "10.1.5.5");
  Alcotest.(check (option string)) "rule 2" (Some "deny") (lookup c "10.12.0.1" "10.1.5.5");
  Alcotest.(check (option string)) "wildcard dst" (Some "allow") (lookup c "10.1.7.9" "99.9.9.9");
  Alcotest.(check (option string)) "no match" None (lookup c "8.8.8.8" "9.9.9.9")

let test_classifier_priority_overlap () =
  (* Overlapping rules: the highest priority wins, ties to earlier
     insertion (first-match). *)
  let c = Classifier.create 1 in
  let f s = [| Classifier.field_of_network (Network.of_string s) |] in
  Classifier.add c ~priority:0 (f "10.0.0.0/8") "broad";
  Classifier.add c ~priority:1 (f "10.1.0.0/16") "specific";
  Classifier.compile c;
  Alcotest.(check (option string)) "priority wins" (Some "specific")
    (Classifier.get c [| Classifier.key_of_addr (Addr.of_string "10.1.2.3") |]);
  Alcotest.(check (option string)) "fallback" (Some "broad")
    (Classifier.get c [| Classifier.key_of_addr (Addr.of_string "10.9.2.3") |])

(* Property: the classifier agrees with a reference model written against
   [Network.contains], not the engine's bit-prefix [field_matches]: the
   answer is the highest-priority rule covering both keys, and among equal
   priorities the one added first.  Addresses come from a 128-address
   universe so that /0-/32 prefixes, wildcards and priority ties overlap.
   Each also appears in its IPv6 spelling [::ffff:a.b.c.d], with IPv6
   rules up to [::/0]: a rule of one family never covers a key of the
   other. *)
let prop_classifier_reference_model =
  let open QCheck.Gen in
  let v4 =
    map
      (fun (a, (b, c, d)) -> Addr.of_ipv4_octets a b c d)
      (pair (oneofl [ 10; 192 ]) (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
  in
  let mapped a =
    Addr.of_ipv6_int64s 0L
      (Int64.logor 0xffff_0000_0000L (Int64.of_int (Addr.to_ipv4_int a)))
  in
  let addr = frequency [ (3, v4); (1, map mapped v4) ] in
  let net =
    frequency
      [ (2, return None);
        (4, map (fun (a, l) -> Some (Network.make a l)) (pair v4 (int_range 0 32)));
        (1, map (fun (a, l) -> Some (Network.make (mapped a) (96 + l))) (pair v4 (int_range 0 32)));
        (1, map (fun l -> Some (Network.make (Addr.of_string "::") l)) (oneofl [ 0; 8; 64 ])) ]
  in
  let rule = triple net net (int_range 0 2) in
  (* Raw prefix fields: any [plen] from 0 to the data's whole length, and
     keys of every length, mostly sharing the data's leading bytes and
     differing from them in at most one bit. *)
  let byte = oneofl [ '\x00'; '\x0f'; '\x80'; '\xa5'; '\xff' ] in
  let raw =
    int_range 0 5 >>= fun len ->
    string_size ~gen:byte (return len) >>= fun data ->
    int_range 0 (8 * len) >>= fun plen ->
    int_range 0 6 >>= fun klen ->
    string_size ~gen:char (return klen) >>= fun tail ->
    opt (int_range 0 (max 0 ((8 * klen) - 1))) >|= fun flip ->
    let key = Bytes.init klen (fun i -> if i < len then data.[i] else tail.[i]) in
    (match flip with
    | Some b when klen > 0 ->
        let c = Char.code (Bytes.get key (b / 8)) lxor (0x80 lsr (b mod 8)) in
        Bytes.set key (b / 8) (Char.chr c)
    | _ -> ());
    (data, plen, Bytes.to_string key)
  in
  let gen =
    triple
      (list_size (int_range 1 12) rule)
      (list_size (int_range 1 20) (pair addr addr))
      (list_size (int_range 1 20) raw)
  in
  let print (rules, keys, raws) =
    let net = function None -> "*" | Some n -> Network.to_string n in
    String.concat "; "
      (List.map (fun (s, d, p) -> Printf.sprintf "%s %s pri %d" (net s) (net d) p) rules)
    ^ " | keys "
    ^ String.concat ", "
        (List.map (fun (a, b) -> Addr.to_string a ^ ">" ^ Addr.to_string b) keys)
    ^ " | raw "
    ^ String.concat ", "
        (List.map
           (fun (data, plen, key) -> Printf.sprintf "%S/%d ~ %S" data plen key)
           raws)
  in
  (* Bit by bit: the first [plen] bits of [key] equal those of [data]. *)
  let bit s i = (Char.code s.[i / 8] lsr (7 - (i mod 8))) land 1 in
  let prefix_matches data plen key =
    8 * String.length key >= plen
    && List.for_all (fun i -> bit data i = bit key i) (List.init plen Fun.id)
  in
  qt "classifier: first match == reference model" (QCheck.make ~print gen)
    (fun (rules, keys, raws) ->
      List.for_all
        (fun (data, plen, key) ->
          Classifier.field_matches (Classifier.field_of_string ~plen data) key
          = prefix_matches data plen key)
        raws
      &&
      let c = Classifier.create 2 in
      let field = function
        | None -> Classifier.wildcard
        | Some n -> Classifier.field_of_network n
      in
      List.iteri
        (fun i (s, d, priority) -> Classifier.add c ~priority [| field s; field d |] i)
        rules;
      Classifier.compile c;
      let model a b =
        let covers n x = match n with None -> true | Some n -> Network.contains n x in
        let best, _ =
          List.fold_left
            (fun (best, i) (s, d, p) ->
              let best =
                match best with
                | Some (_, bp) when p <= bp -> best
                | _ when covers s a && covers d b -> Some (i, p)
                | _ -> best
              in
              (best, i + 1))
            (None, 0) rules
        in
        Option.map fst best
      in
      List.for_all
        (fun (a, b) ->
          Classifier.get c [| Classifier.key_of_addr a; Classifier.key_of_addr b |]
          = model a b)
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

(* A time advance fires the due timers of every virtual thread, thread by
   thread in id order and by deadline within a thread, whatever order the
   threads were created in; a timer not yet due waits. *)
let test_scheduler_timer_order () =
  let s = Scheduler.create () in
  let log = ref [] in
  let at tid ns name =
    Timer_mgr.schedule (Scheduler.timers_for s tid)
      (Timer.create (fun () -> log := name :: !log))
      (Hilti_types.Time_ns.of_ns ns)
  in
  at 7L 30L "7a";
  at 7L 10L "7b";
  at 2L 20L "2a";
  at 40L 5L "40a";
  at 40L 25L "40b";
  at 2L 100L "2b";
  Scheduler.advance_time s (Hilti_types.Time_ns.of_ns 50L);
  Alcotest.(check (list string))
    "due timers, by thread id then deadline" [ "2a"; "7b"; "7a"; "40a"; "40b" ] (List.rev !log);
  log := [];
  Scheduler.advance_time s (Hilti_types.Time_ns.of_ns 100L);
  Alcotest.(check (list string)) "the late timer" [ "2b" ] !log

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
    prop_classifier_reference_model;
    Alcotest.test_case "regexp syntax" `Quick test_regexp_syntax;
    Alcotest.test_case "regexp longest match" `Quick test_regexp_longest_match;
    Alcotest.test_case "regexp multi-pattern ids" `Quick test_regexp_multi_pattern;
    Alcotest.test_case "regexp incremental" `Quick test_regexp_incremental;
    prop_regexp_incremental_equiv;
    Alcotest.test_case "scheduler fifo" `Quick test_scheduler_fifo_per_thread;
    Alcotest.test_case "scheduler spawned jobs" `Quick test_scheduler_jobs_spawn_jobs;
    Alcotest.test_case "scheduler command queue" `Quick test_scheduler_command_queue;
    Alcotest.test_case "scheduler fires due timers in thread-id order" `Quick
      test_scheduler_timer_order;
    Alcotest.test_case "profiler exclusive accounting" `Quick test_profiler_exclusive;
    QCheck_alcotest.to_alcotest channel_stress;
    Alcotest.test_case "exp_map: re-inserted key does not inherit the old timer" `Quick
      test_exp_map_stale_timer;
    Alcotest.test_case "exp_map: refreshes keep one timer and allocate nothing" `Quick
      test_exp_map_bounded_refresh;
    prop_exp_map_model;
    Alcotest.test_case "exp_map: fold order == Hashtbl order across resizes" `Quick
      test_exp_map_order_resizes;
    prop_exp_map_order;
    prop_timer_cancel_eager ]
