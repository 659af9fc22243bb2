(* Hilti_par: virtual threads on OCaml 5 domains.

   Covers the engine's actor invariants (per-thread FIFO, drain to
   quiescence, error propagation), parallel determinism of the firewall
   and DNS-analyzer workloads against the cooperative scheduler
   (order-insensitive multiset compare, per the no-shared-state semantics
   of §3.2), and a QCheck stress test of Hilti_rt.Channel under real
   domains. *)

open Hilti_types
module Vm = Hilti_vm.Vm
module Value = Hilti_vm.Value
module Host_api = Hilti_vm.Host_api
module Engine = Hilti_par.Engine

(* A minimal compiled program: engine unit tests only need a VM context to
   hang host-side jobs off. *)
let trivial_api () =
  let m = Module_ir.create "T" in
  let b = Builder.func m "T::noop" ~exported:true ~params:[] ~result:Htype.Void in
  Builder.return_ b;
  Host_api.compile [ m ]

let with_engine ~domains f =
  let api = trivial_api () in
  let eng = Engine.attach api.Host_api.ctx ~domains in
  Fun.protect ~finally:(fun () -> Engine.detach eng) (fun () -> f api)

(* ---- Engine unit tests ----------------------------------------------------- *)

let test_fifo_per_thread () =
  with_engine ~domains:2 (fun api ->
      let lock = Mutex.create () in
      let order = ref [] in
      for i = 0 to 199 do
        Host_api.schedule_host api 7L ~label:"seq" (fun _ctx ->
            Mutex.protect lock (fun () -> order := i :: !order))
      done;
      Host_api.run_scheduler api;
      Alcotest.(check (list int))
        "jobs on one virtual thread run FIFO" (List.init 200 Fun.id)
        (List.rev !order))

let test_all_jobs_run () =
  with_engine ~domains:3 (fun api ->
      let lock = Mutex.create () in
      let counts = Hashtbl.create 8 in
      let per_thread = 50 and nthreads = 8 in
      for tid = 0 to nthreads - 1 do
        for _ = 1 to per_thread do
          Host_api.schedule_host api (Int64.of_int tid) ~label:"count"
            (fun ctx ->
              (* schedule_host must present the job's own thread id. *)
              assert (ctx.Vm.current_thread = Int64.of_int tid);
              Mutex.protect lock (fun () ->
                  let c =
                    Option.value ~default:0 (Hashtbl.find_opt counts tid)
                  in
                  Hashtbl.replace counts tid (c + 1)))
        done
      done;
      Host_api.run_scheduler api;
      for tid = 0 to nthreads - 1 do
        Alcotest.(check (option int))
          (Printf.sprintf "all jobs of vthread %d ran" tid)
          (Some per_thread)
          (Hashtbl.find_opt counts tid)
      done;
      let stats = Host_api.scheduler_stats api in
      Alcotest.(check int)
        "stats count scheduled jobs" (per_thread * nthreads)
        stats.Hilti_rt.Scheduler.total_jobs;
      Alcotest.(check int) "stats count vthreads" nthreads
        stats.Hilti_rt.Scheduler.vthreads)

let test_jobs_schedule_jobs () =
  with_engine ~domains:2 (fun api ->
      let ran = Atomic.make 0 in
      (* Binary fan-out: each job at depth < 5 schedules two children on
         neighbouring virtual threads; drain must chase the full tree. *)
      let rec fanout tid depth =
        Host_api.schedule_host api tid ~label:"fanout" (fun _ctx ->
            Atomic.incr ran;
            if depth < 5 then begin
              fanout (Int64.add tid 1L) (depth + 1);
              fanout (Int64.add tid 2L) (depth + 1)
            end)
      in
      fanout 0L 0;
      Host_api.run_scheduler api;
      Alcotest.(check int) "every spawned job ran" 63 (Atomic.get ran))

let test_error_propagates () =
  with_engine ~domains:2 (fun api ->
      Host_api.schedule_host api 1L ~label:"boom" (fun _ctx ->
          failwith "job exploded");
      Alcotest.check_raises "job failure re-raised at drain"
        (Failure "job exploded") (fun () -> Host_api.run_scheduler api))

let test_commands_drained () =
  with_engine ~domains:2 (fun api ->
      let hit = ref false in
      Host_api.schedule_host api 3L ~label:"submit-cmd" (fun ctx ->
          Hilti_rt.Scheduler.command ctx.Vm.scheduler (fun () -> hit := true));
      Host_api.run_scheduler api;
      Alcotest.(check bool)
        "serialized command ran during drain" true !hit)

let test_detach_restores_cooperative () =
  let api = trivial_api () in
  let eng = Engine.attach api.Host_api.ctx ~domains:2 in
  Host_api.schedule_host api 1L ~label:"par" (fun _ -> ());
  Host_api.run_scheduler api;
  Engine.detach eng;
  let ran = ref false in
  Host_api.schedule_host api 1L ~label:"coop" (fun _ -> ran := true);
  Host_api.run_scheduler api;
  Alcotest.(check bool) "scheduler works cooperatively after detach" true !ran

(* ---- Parallel determinism: firewall ----------------------------------------- *)

let fw_rules =
  Hilti_firewall.Fw_rules.parse_rules
    {|
10.3.2.1/32 10.1.0.0/16 allow
10.12.0.0/16 10.1.0.0/16 deny
10.1.6.0/24 * allow
10.1.7.0/24 * allow
|}

let t0 = Time_ns.of_secs 1_400_000_000

(* A reproducible packet mix: rule hits, dynamic reverse traffic, misses;
   timestamps strictly increasing so per-thread time stays monotonic. *)
let fw_packets =
  let rng = Random.State.make [| 4711 |] in
  let pool =
    [|
      "10.3.2.1"; "10.1.44.1"; "10.12.9.9"; "10.1.6.20"; "10.1.6.21";
      "10.1.7.7"; "99.99.99.99"; "88.88.88.88"; "10.1.50.2"; "172.16.0.9";
    |]
  in
  List.init 300 (fun i ->
      let pick () = pool.(Random.State.int rng (Array.length pool)) in
      let ts = Time_ns.add t0 (Int64.of_int (i * 2_000_000_000)) in
      (ts, Addr.of_string (pick ()), Addr.of_string (pick ())))

(* Flow affinity: both directions of a pair land on the same virtual
   thread (the paper's hash-scheduling scheme), so dynamic reverse rules
   stay visible to the thread that installed them. *)
let fw_thread ~threads src dst =
  let a = Addr.to_string src and b = Addr.to_string dst in
  let key = if a <= b then (a, b) else (b, a) in
  Hilti_rt.Scheduler.thread_for_hash ~threads (Hashtbl.hash key)

(* Run the sharded firewall workload; [domains = 0] means cooperative. *)
let run_firewall ~domains =
  let m = Hilti_firewall.Fw_hilti.compile_module fw_rules in
  let api = Host_api.compile [ m ] in
  let eng =
    if domains = 0 then None else Some (Engine.attach api.Host_api.ctx ~domains)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Engine.detach eng)
    (fun () ->
      let threads = 4 in
      for tid = 0 to threads - 1 do
        Host_api.schedule api (Int64.of_int tid) "Firewall::init_classifier" []
      done;
      Host_api.run_scheduler api;
      let lock = Mutex.create () in
      let verdicts = ref [] in
      List.iter
        (fun (ts, src, dst) ->
          let tid = fw_thread ~threads src dst in
          Host_api.schedule_host api tid ~label:"match" (fun ctx ->
              let v =
                Vm.call ctx "Firewall::match_packet"
                  [ Value.Time ts; Value.Addr src; Value.Addr dst ]
              in
              Mutex.protect lock (fun () ->
                  verdicts :=
                    (tid, Addr.to_string src, Addr.to_string dst,
                     Value.as_bool v)
                    :: !verdicts)))
        fw_packets;
      Host_api.run_scheduler api;
      List.sort compare !verdicts)

let test_firewall_determinism () =
  let coop = run_firewall ~domains:0 in
  Alcotest.(check int) "all packets got a verdict" (List.length fw_packets)
    (List.length coop);
  List.iter
    (fun domains ->
      let par = run_firewall ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "%d-domain verdicts match cooperative" domains)
        true (par = coop))
    [ 1; 2; 4 ]

(* ---- Parallel determinism: DNS analyzer ------------------------------------- *)

(* Parse one datagram and report the DNS id back to the host (same shape
   as the §6.6 bench harness). *)
let dns_wrapper_module () =
  let m = Module_ir.create "Par" in
  Module_ir.add_func m
    {
      Module_ir.fname = "Par::record";
      params = [ ("id", Htype.Int 64) ];
      result = Htype.Void;
      locals = [];
      blocks = [];
      cc = Module_ir.Cc_c;
      hook_priority = 0;
      exported = true;
    };
  let b =
    Builder.func m "Par::parse_one" ~exported:true
      ~params:[ ("pkt", Htype.Ref Htype.Bytes) ]
      ~result:Htype.Void
  in
  let exc = Builder.local b "e" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "bad"; Instr.Local exc ];
  let it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.begin" [ Instr.Local "pkt" ] in
  let itl = Builder.local b "it" (Htype.Iter Htype.Bytes) in
  Builder.instr b ~target:itl "assign" [ it ];
  let t =
    Builder.emit b
      (Htype.Tuple [ Htype.Any; Htype.Iter Htype.Bytes ])
      "call"
      [ Instr.Fname "DNS::parse_Message";
        Instr.Tuple_op [ Instr.Local itl; Instr.Local itl ] ]
  in
  let st =
    Builder.emit b (Htype.Ref (Htype.Struct "DNS::Message")) "tuple.get"
      [ t; Builder.const_int 0 ]
  in
  let id = Builder.emit b (Htype.Int 64) "struct.get" [ st; Instr.Member "id" ] in
  Builder.call b "Par::record" [ id ];
  Builder.return_ b;
  Builder.set_block b "bad";
  Builder.return_ b;
  m

let dns_datagrams =
  lazy
    (let cfg =
       { Hilti_traces.Dns_gen.default with transactions = 150; seed = 31337 }
     in
     let trace = Hilti_traces.Dns_gen.generate cfg in
     List.filter_map
       (fun (r : Hilti_net.Pcap.record) ->
         match
           Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts
             r.Hilti_net.Pcap.data
         with
         | Some pkt -> (
             match
               (Hilti_net.Packet.flow pkt, pkt.Hilti_net.Packet.transport)
             with
             | Some flow, Hilti_net.Packet.UDP (_, payload) ->
                 Some (Hilti_net.Flow.hash flow, payload)
             | _ -> None)
         | None -> None)
       trace.Hilti_traces.Dns_gen.records)

(* Shard the DNS trace over [threads] virtual threads; [domains = 0] means
   cooperative.  Returns the sorted list of parsed DNS transaction ids. *)
let run_dns ~domains =
  let dns_m = Binpacxx.Codegen.compile (Binpacxx.Grammars.parse_dns ()) in
  let api = Host_api.compile [ dns_m; dns_wrapper_module () ] in
  let eng =
    if domains = 0 then None else Some (Engine.attach api.Host_api.ctx ~domains)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Engine.detach eng)
    (fun () ->
      let threads = 4 in
      let lock = Mutex.create () in
      let recorded = ref [] in
      Host_api.register_ctx api "Par::record" (fun ctx args ->
          (match args with
          | [ Value.Int id ] ->
              let tid = ctx.Vm.current_thread in
              Mutex.protect lock (fun () -> recorded := (tid, id) :: !recorded)
          | _ -> ());
          Value.Null);
      for tid = 0 to threads - 1 do
        Host_api.schedule api (Int64.of_int tid) "DNS::init" []
      done;
      List.iter
        (fun (hash, payload) ->
          let tid = Hilti_rt.Scheduler.thread_for_hash ~threads hash in
          let b = Hbytes.of_string payload in
          Hbytes.freeze b;
          Host_api.schedule api tid "Par::parse_one" [ Value.Bytes b ])
        (Lazy.force dns_datagrams);
      Host_api.run_scheduler api;
      List.sort compare !recorded)

let test_dns_determinism () =
  let coop = run_dns ~domains:0 in
  Alcotest.(check bool) "cooperative run parsed messages" true (coop <> []);
  List.iter
    (fun domains ->
      let par = run_dns ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "%d-domain DNS ids match cooperative" domains)
        true (par = coop))
    [ 1; 2; 4 ]

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

let suite =
  [
    Alcotest.test_case "engine: per-thread FIFO" `Quick test_fifo_per_thread;
    Alcotest.test_case "engine: all jobs run, stats" `Quick test_all_jobs_run;
    Alcotest.test_case "engine: jobs scheduling jobs" `Quick
      test_jobs_schedule_jobs;
    Alcotest.test_case "engine: job failure propagates" `Quick
      test_error_propagates;
    Alcotest.test_case "engine: serialized commands" `Quick
      test_commands_drained;
    Alcotest.test_case "engine: detach restores cooperative" `Quick
      test_detach_restores_cooperative;
    Alcotest.test_case "determinism: firewall 1/2/4 domains" `Slow
      test_firewall_determinism;
    Alcotest.test_case "determinism: DNS analyzer 1/2/4 domains" `Slow
      test_dns_determinism;
    QCheck_alcotest.to_alcotest channel_stress;
  ]
