(** Differential oracles: run one fuzz case through two independent
    implementations and compare what they observed.

    Implementations come in two families:
    - hand-written baseline vs BinPAC++ parser (mqtt, ftp, dns) — the
      §6.4 cross-parser differential;
    - the same BinPAC++ grammar as generic and as specialized bytecode
      on the VM — a compiler/VM differential.

    Each run yields an {!outcome}: the serialized event stream (the
    common currency both analyzer families emit), per-flow fates
    ("ok"/"reject" per parser incarnation), plus crash and hang flags.
    A crash is any failure escaping the Parse_failed/Hilti_error
    contract; a hang is a parse exceeding the VM step budget. *)

module E = Hilti_analyzers.Events
module R = Binpacxx.Runtime

type outcome = {
  events : string list;  (** serialized events, in feed order *)
  fates : string list;  (** per flow incarnation: "fN.I ok" / "fN.I reject" *)
  crash : string option;
  hang : bool;
}

type impl = { iname : string; run : Mutate.case -> outcome }

(** [agree] returns a human-readable description of the first
    disagreement, or None.  Crashes and hangs are handled by the engine
    before [agree] is consulted. *)
type pair = {
  pname : string;
  proto : Shape.proto;
  left : impl;
  right : impl;
  agree : outcome -> outcome -> string option;
}

exception Crashed of string
exception Hung

(* ---- Event serialization ----------------------------------------------------- *)

let mqtt_ev = function
  | E.M_connect c ->
      Printf.sprintf "connect id=%S proto=%S ver=%d ka=%d" c.E.client_id c.E.proto
        c.E.version c.E.keepalive
  | E.M_connack rc -> Printf.sprintf "connack %d" rc
  | E.M_publish p ->
      Printf.sprintf "publish topic=%S qos=%d len=%d" p.E.topic p.E.qos p.E.payload_len
  | E.M_subscribe s ->
      Printf.sprintf "subscribe id=%d [%s]" s.E.s_msgid
        (String.concat ";"
           (List.map (fun (t, q) -> Printf.sprintf "%S/%d" t q) s.E.topics))
  | E.M_suback id -> Printf.sprintf "suback %d" id
  | E.M_disconnect -> "disconnect"
  | E.M_other p -> Printf.sprintf "other %d" p

let ftp_ev = function
  | E.F_request r -> Printf.sprintf "req %S %S" r.E.cmd r.E.arg
  | E.F_reply r -> Printf.sprintf "rep %d %S" r.E.code r.E.msg

let dns_req (r : E.dns_request) =
  Printf.sprintf "req id=%d q=%S qt=%d" r.E.q_id r.E.query r.E.qtype

let dns_rep (r : E.dns_reply) =
  Printf.sprintf "rep id=%d rc=%d ans=[%s] ttls=[%s]" r.E.r_id r.E.rcode
    (String.concat ";" (List.map (fun a -> Printf.sprintf "%S" a) r.E.answers))
    (String.concat ";" (List.map string_of_int r.E.ttls))

(* ---- The streaming harness --------------------------------------------------- *)

(* One parser incarnation for one flow. [p_feed] returns (Some fate) as
   soon as the parser terminates — cleanly or with a grammar-level
   reject — after which the harness stops feeding that incarnation. *)
type stream_parser = {
  p_feed : string -> string option;
  p_eof : unit -> string;
}

(** Drive a case through per-flow incremental parsers: chunks interleave
    round-robin across flows; eviction points end the flow's parser and
    start a fresh incarnation (the driver's idle-timeout behavior). *)
let run_streams ~(mk : flow:int -> label:string -> push:(string -> unit) -> stream_parser)
    (case : Mutate.case) : outcome =
  let events = ref [] and fates = ref [] in
  let push line = events := line :: !events in
  let nf = Array.length case.Mutate.streams in
  let chunks = Array.init nf (fun f -> Array.of_list (Mutate.chunks case f)) in
  let inc = Array.make nf 0 in
  let label f = Printf.sprintf "f%d.%d" f inc.(f) in
  let fate f st = fates := (label f ^ " " ^ st) :: !fates in
  let parsers = Array.init nf (fun f -> Some (mk ~flow:f ~label:(label f) ~push)) in
  let finish () =
    {
      events = List.rev !events;
      fates = List.rev !fates;
      crash = None;
      hang = false;
    }
  in
  try
    let max_chunks = Array.fold_left (fun a c -> max a (Array.length c)) 0 chunks in
    for k = 0 to max_chunks - 1 do
      for f = 0 to nf - 1 do
        if k < Array.length chunks.(f) then begin
          (match parsers.(f) with
          | Some p -> (
              match p.p_feed chunks.(f).(k) with
              | Some st ->
                  fate f st;
                  parsers.(f) <- None
              | None -> ())
          | None -> ());
          if List.mem (f, k) case.Mutate.evicts && k < Array.length chunks.(f) - 1
          then begin
            (* Idle-timeout eviction: flush the current session, then a
               fresh one picks up the remaining bytes. *)
            (match parsers.(f) with
            | Some p -> fate f (p.p_eof ())
            | None -> ());
            inc.(f) <- inc.(f) + 1;
            parsers.(f) <- Some (mk ~flow:f ~label:(label f) ~push)
          end
        end
      done
    done;
    for f = 0 to nf - 1 do
      match parsers.(f) with
      | Some p -> fate f (p.p_eof ())
      | None -> ()
    done;
    finish ()
  with
  | Crashed m -> { (finish ()) with crash = Some m }
  | Hung -> { (finish ()) with hang = true }
  | e -> { (finish ()) with crash = Some (Printexc.to_string e) }

(* ---- BinPAC++ status classification ------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  n > 0 && go 0

let is_uncaught msg = String.length msg >= 9 && String.sub msg 0 9 = "uncaught:"

(* Blocked -> keep feeding; grammar-level failure -> clean reject; a raw
   exception that escaped the contract -> crash (or hang, when it is the
   VM step-budget kill). *)
let classify_status = function
  | R.Blocked -> None
  | R.Done _ -> Some "ok"
  | R.Failed msg when is_uncaught msg ->
      if contains ~needle:"Step_budget_exceeded" msg then raise Hung
      else raise (Crashed msg)
  | R.Failed _ -> Some "reject"

let eof_fate status =
  match classify_status status with Some st -> st | None -> "reject"

let dispatch_tag ~specialize = if specialize then "spec" else "generic"

(* ---- MQTT implementations ---------------------------------------------------- *)

module Mstd = Hilti_analyzers.Mqtt_std
module Mpac = Hilti_analyzers.Mqtt_pac

let mqtt_std () : impl =
  {
    iname = "mqtt-std";
    run =
      run_streams ~mk:(fun ~flow:_ ~label ~push ->
          let t = Mstd.create ~on_packet:(fun ev -> push (label ^ " " ^ mqtt_ev ev)) in
          let fate_opt () =
            match Mstd.failed t with Some _ -> Some "reject" | None -> None
          in
          {
            p_feed =
              (fun b ->
                Mstd.feed t b;
                fate_opt ());
            p_eof =
              (fun () ->
                Mstd.eof t;
                match Mstd.failed t with Some _ -> "reject" | None -> "ok");
          });
  }

let mqtt_pac ~specialize ~step_budget () : impl =
  let t = Mpac.load ~specialize () in
  let api = t.R.api in
  {
    iname = "mqtt-pac-" ^ dispatch_tag ~specialize;
    run =
      (fun case ->
        Hilti_vm.Host_api.set_step_budget api step_budget;
        Fun.protect
          ~finally:(fun () -> Hilti_vm.Host_api.clear_step_budget api)
          (fun () ->
            run_streams case ~mk:(fun ~flow:_ ~label ~push ->
                let ss =
                  Mpac.session t ~on_packet:(fun ev ->
                      push (label ^ " " ^ mqtt_ev ev))
                in
                {
                  p_feed = (fun b -> classify_status (R.feed ss b));
                  p_eof = (fun () -> eof_fate (R.finish ss));
                })));
  }

(* ---- FTP implementations ----------------------------------------------------- *)

module Fstd = Hilti_analyzers.Ftp_std
module Fpac = Hilti_analyzers.Ftp_pac

(* Flow role: even flow indices carry commands, odd ones replies. *)
let ftp_is_command flow = flow mod 2 = 0

let ftp_std () : impl =
  {
    iname = "ftp-std";
    run =
      run_streams ~mk:(fun ~flow ~label ~push ->
          let t =
            Fstd.create ~is_command:(ftp_is_command flow)
              ~on_event:(fun ev -> push (label ^ " " ^ ftp_ev ev))
          in
          let fate_opt () =
            match Fstd.failed t with Some _ -> Some "reject" | None -> None
          in
          {
            p_feed =
              (fun b ->
                Fstd.feed t b;
                fate_opt ());
            p_eof =
              (fun () ->
                Fstd.eof t;
                match Fstd.failed t with Some _ -> "reject" | None -> "ok");
          });
  }

let ftp_pac ~specialize ~step_budget () : impl =
  let t = Fpac.load ~specialize () in
  let api = t.R.api in
  {
    iname = "ftp-pac-" ^ dispatch_tag ~specialize;
    run =
      (fun case ->
        Hilti_vm.Host_api.set_step_budget api step_budget;
        Fun.protect
          ~finally:(fun () -> Hilti_vm.Host_api.clear_step_budget api)
          (fun () ->
            run_streams case ~mk:(fun ~flow ~label ~push ->
                let ss =
                  Fpac.session t ~is_command:(ftp_is_command flow)
                    ~on_event:(fun ev -> push (label ^ " " ^ ftp_ev ev))
                in
                {
                  p_feed = (fun b -> classify_status (R.feed ss b));
                  p_eof = (fun () -> eof_fate (R.finish ss));
                })));
  }

(* ---- DNS implementations ----------------------------------------------------- *)

module Dstd = Hilti_analyzers.Dns_std
module Dpac = Hilti_analyzers.Dns_pac

(* DNS is datagram-oriented: every feed chunk is parsed as one
   standalone datagram, so a Chunk mutation splits a datagram in two. *)
let run_datagrams ~(parse : string -> string) (case : Mutate.case) : outcome =
  let events = ref [] in
  let finish () =
    { events = List.rev !events; fates = []; crash = None; hang = false }
  in
  try
    Array.iteri
      (fun f _ ->
        List.iteri
          (fun i d -> events := Printf.sprintf "f%d.%d %s" f i (parse d) :: !events)
          (Mutate.chunks case f))
      case.Mutate.streams;
    finish ()
  with
  | Crashed m -> { (finish ()) with crash = Some m }
  | Hung -> { (finish ()) with hang = true }
  | e -> { (finish ()) with crash = Some (Printexc.to_string e) }

let dns_std () : impl =
  {
    iname = "dns-std";
    run =
      run_datagrams ~parse:(fun d ->
          match Dstd.parse d with
          | msg ->
              if msg.Dstd.is_response then dns_rep (Dstd.to_reply msg)
              else dns_req (Dstd.to_request msg)
          | exception Dstd.Bad_dns _ -> "reject"
          | exception e -> raise (Crashed (Printexc.to_string e)));
  }

let dns_pac ~specialize ~step_budget () : impl =
  let t = Dpac.load ~specialize () in
  let api = t.Dpac.parser.R.api in
  {
    iname = "dns-pac-" ^ dispatch_tag ~specialize;
    run =
      (fun case ->
        Hilti_vm.Host_api.set_step_budget api step_budget;
        Fun.protect
          ~finally:(fun () -> Hilti_vm.Host_api.clear_step_budget api)
          (fun () ->
            run_datagrams case ~parse:(fun d ->
                match Dpac.parse t d with
                | Dpac.Request rq -> dns_req rq
                | Dpac.Reply rp -> dns_rep rp
                | Dpac.Not_dns -> "reject"
                | exception Hilti_vm.Vm.Step_budget_exceeded -> raise Hung
                | exception e -> raise (Crashed (Printexc.to_string e)))));
  }

(* ---- Comparison -------------------------------------------------------------- *)

let first_diff tag la lb =
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | [], y :: _ -> Some (Printf.sprintf "%s %d: <none> <> %s" tag i y)
    | x :: _, [] -> Some (Printf.sprintf "%s %d: %s <> <none>" tag i x)
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) xs ys
        else Some (Printf.sprintf "%s %d: %s <> %s" tag i x y)
  in
  go 0 la lb

(* Fates are compared as a set (sorted by their unique labels): the two
   sides must agree on each incarnation's fate, but WHEN a parser gave
   up — mid-stream vs at eof — may differ by a chunk without being a
   semantic divergence. *)
let exact a b =
  match first_diff "event" a.events b.events with
  | Some d -> Some d
  | None ->
      first_diff "fate" (List.sort compare a.fates) (List.sort compare b.fates)

(* The §6.4-normalized DNS comparison: the standard and BinPAC++ parsers
   are documented to differ on answer rendering (TXT strings) and on how
   eagerly they reject crud, so replies compare on (id, rcode) only and
   a reject on either side is tolerated.  Requests still compare in
   full. *)
let dns_relax line =
  let rec find i =
    if i + 5 > String.length line then None
    else if String.sub line i 5 = " ans=" then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub line 0 i | None -> line

let is_reject line =
  let n = String.length line in
  n >= 6 && String.sub line (n - 6) 6 = "reject"

let dns_relaxed a b =
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | [], y :: _ -> Some (Printf.sprintf "datagram %d: <none> <> %s" i y)
    | x :: _, [] -> Some (Printf.sprintf "datagram %d: %s <> <none>" i x)
    | x :: xs, y :: ys ->
        if is_reject x || is_reject y then go (i + 1) xs ys
        else if String.equal (dns_relax x) (dns_relax y) then go (i + 1) xs ys
        else Some (Printf.sprintf "datagram %d: %s <> %s" i (dns_relax x) (dns_relax y))
  in
  go 0 a.events b.events

(* ---- The shipped pair set ---------------------------------------------------- *)

let default_step_budget = 2_000_000

(* Grammar compilation is the expensive part of pair construction, so
   the shipped pair set is described first and only the selected pairs
   are built. *)
let pair_specs : (string * Shape.proto * (int -> pair)) list =
  [
    ( "mqtt/std-pac", Shape.Mqtt,
      fun step_budget ->
        { pname = "mqtt/std-pac"; proto = Shape.Mqtt; left = mqtt_std ();
          right = mqtt_pac ~specialize:false ~step_budget ();
          agree = exact } );
    ( "mqtt/dispatch", Shape.Mqtt,
      fun step_budget ->
        { pname = "mqtt/dispatch"; proto = Shape.Mqtt;
          left = mqtt_pac ~specialize:false ~step_budget ();
          right = mqtt_pac ~specialize:true ~step_budget ();
          agree = exact } );
    ( "ftp/std-pac", Shape.Ftp,
      fun step_budget ->
        { pname = "ftp/std-pac"; proto = Shape.Ftp; left = ftp_std ();
          right = ftp_pac ~specialize:false ~step_budget ();
          agree = exact } );
    ( "ftp/dispatch", Shape.Ftp,
      fun step_budget ->
        { pname = "ftp/dispatch"; proto = Shape.Ftp;
          left = ftp_pac ~specialize:false ~step_budget ();
          right = ftp_pac ~specialize:true ~step_budget ();
          agree = exact } );
    ( "dns/std-pac", Shape.Dns,
      fun step_budget ->
        { pname = "dns/std-pac"; proto = Shape.Dns; left = dns_std ();
          right = dns_pac ~specialize:true ~step_budget (); agree = dns_relaxed } );
    ( "dns/dispatch", Shape.Dns,
      fun step_budget ->
        { pname = "dns/dispatch"; proto = Shape.Dns;
          left = dns_pac ~specialize:false ~step_budget ();
          right = dns_pac ~specialize:true ~step_budget (); agree = exact } );
  ]

(** The full shipped pair set: cross-parser differentials for MQTT, FTP
    and DNS, plus generic-vs-specialized VM dispatch differentials for
    each grammar. *)
let pairs ?(step_budget = default_step_budget) () : pair list =
  List.map (fun (_, _, mk) -> mk step_budget) pair_specs

(** The pairs touching one protocol (both its cross-parser and its
    dispatch differential). *)
let pairs_for ?(step_budget = default_step_budget) (p : Shape.proto) : pair list =
  List.filter_map
    (fun (_, proto, mk) -> if proto = p then Some (mk step_budget) else None)
    pair_specs
