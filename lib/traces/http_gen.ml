(** Synthetic full-payload HTTP traffic (the stand-in for the paper's 30 GB
    UC Berkeley port-80 trace, §6.1).

    Generates complete TCP connections — handshake, one or more
    request/reply transactions, teardown — with realistic message variety:
    a method/status mix, identity and chunked bodies, several MIME types,
    "206 Partial Content" responses (the known source of parser
    disagreement in Table 2), keep-alive and close connections, and
    optional wire-level "crud": segment reordering and junk connections
    that are not HTTP at all. *)

open Hilti_types
open Hilti_net

type config = {
  sessions : int;            (** number of TCP connections *)
  seed : int;
  start_ts : Time_ns.t;
  clients : int;             (** distinct client addresses *)
  servers : int;             (** distinct server addresses *)
  max_requests : int;        (** per connection *)
  mss : int;
  reorder_prob : float;      (** probability a flight of segments is shuffled *)
  crud_prob : float;         (** probability a connection carries non-HTTP junk *)
}

let default =
  {
    sessions = 200;
    seed = 0xbe11;
    start_ts = Time_ns.of_secs 1_400_000_000;
    clients = 40;
    servers = 12;
    max_requests = 4;
    mss = 1400;
    reorder_prob = 0.03;
    crud_prob = 0.01;
  }

(* ---- Message material ------------------------------------------------------ *)

let methods = [ (70, "GET"); (20, "POST"); (7, "HEAD"); (3, "PUT") ]

(* "Partial Content" is kept rare: 206 sessions are the main source of
   Table 2's parser disagreements (§6.4). *)
let statuses =
  [ (71, (200, "OK"));
    (10, (404, "Not Found"));
    (8, (304, "Not Modified"));
    (6, (302, "Found"));
    (2, (206, "Partial Content"));
    (3, (500, "Internal Server Error")) ]

let mime_types =
  [| "text/html"; "text/plain"; "image/png"; "image/jpeg";
     "application/json"; "application/javascript"; "text/css";
     "application/octet-stream" |]

let path_segments = [| "index"; "img"; "api"; "static"; "data"; "download"; "page" |]

let extensions = [| ".html"; ".png"; ".js"; ".css"; ".json"; "" |]

let gen_uri rng =
  let depth = 1 + Rng.int rng 3 in
  let parts =
    List.init depth (fun _ ->
        if Rng.bool rng then Rng.choose rng path_segments else Rng.label rng ~lo:3 ~hi:8)
  in
  let ext = Rng.choose rng extensions in
  let query = if Rng.chance rng 0.2 then "?id=" ^ string_of_int (Rng.int rng 10000) else "" in
  "/" ^ String.concat "/" parts ^ ext ^ query

let gen_body rng size =
  String.init size (fun i ->
      if i mod 64 = 63 then '\n'
      else Char.chr (32 + ((Rng.int rng 95 + i) mod 95)))

(* ---- One HTTP transaction -------------------------------------------------- *)

type transaction = {
  meth : string;
  uri : string;
  host : string;
  status : int;
  reason : string;
  mime : string option;
  request_body : string;
  response_body : string;
  chunked : bool;
  range_of : int option;  (** total size when the reply is a 206 slice *)
}

let gen_transaction rng ~host =
  let meth = Rng.weighted rng methods in
  let status, reason = Rng.weighted rng statuses in
  let request_body =
    if meth = "POST" || meth = "PUT" then gen_body rng (Rng.size rng ~lo:10 ~hi:600)
    else ""
  in
  let has_body = status <> 304 && status <> 302 && meth <> "HEAD" in
  let mime = if has_body then Some (Rng.choose rng mime_types) else None in
  let body_size =
    if not has_body then 0
    else if status = 206 then Rng.size rng ~lo:100 ~hi:2000
    else Rng.size rng ~lo:20 ~hi:8000
  in
  let response_body = if has_body then gen_body rng body_size else "" in
  let chunked = has_body && status = 200 && Rng.chance rng 0.25 in
  let range_of = if status = 206 then Some (body_size * 3) else None in
  { meth; uri = gen_uri rng; host; status; reason; mime; request_body;
    response_body; chunked; range_of }

let render_request t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" t.meth t.uri);
  Buffer.add_string buf (Printf.sprintf "Host: %s\r\n" t.host);
  Buffer.add_string buf (Printf.sprintf "User-Agent: %s\r\n" "Mozilla/5.0 (X11; Linux x86_64)");
  Buffer.add_string buf "Accept: */*\r\n";
  if String.length t.request_body > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf "Content-Length: %d\r\n" (String.length t.request_body));
    Buffer.add_string buf "Content-Type: application/x-www-form-urlencoded\r\n"
  end;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf t.request_body;
  Buffer.contents buf

let render_response t ~keep_alive =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" t.status t.reason);
  Buffer.add_string buf "Server: nginx/1.4.7\r\n";
  (match t.mime with
  | Some m -> Buffer.add_string buf (Printf.sprintf "Content-Type: %s\r\n" m)
  | None -> ());
  (match t.range_of with
  | Some total ->
      Buffer.add_string buf
        (Printf.sprintf "Content-Range: bytes 0-%d/%d"
           (String.length t.response_body - 1) total);
      Buffer.add_string buf "\r\n"
  | None -> ());
  if not keep_alive then Buffer.add_string buf "Connection: close\r\n";
  if t.chunked then begin
    Buffer.add_string buf "Transfer-Encoding: chunked\r\n\r\n";
    (* Split the body into a few chunks. *)
    let body = t.response_body in
    let n = String.length body in
    let rec chunks off =
      if off >= n then Buffer.add_string buf "0\r\n\r\n"
      else begin
        let len = min (max 1 (n / 3)) (n - off) in
        Buffer.add_string buf (Printf.sprintf "%x\r\n" len);
        Buffer.add_string buf (String.sub body off len);
        Buffer.add_string buf "\r\n";
        chunks (off + len)
      end
    in
    chunks 0
  end
  else begin
    Buffer.add_string buf
      (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length t.response_body));
    Buffer.add_string buf t.response_body
  end;
  Buffer.contents buf

(* ---- TCP session assembly --------------------------------------------------- *)

type endpoints = Tcp_session.endpoints = {
  client : Addr.t;
  server : Addr.t;
  cport : int;
  sport : int;
}

type session_packets = Pcap.record list

(** Generate one complete HTTP connection; returns packets and the
    transactions it carried (ground truth for validation). *)
let gen_session rng cfg ~ts_ref ~ep : session_packets * transaction list =
  let host = Printf.sprintf "%s.example.com" (Rng.label rng ~lo:3 ~hi:10) in
  let nreq = 1 + Rng.int rng cfg.max_requests in
  let txs = List.init nreq (fun _ -> gen_transaction rng ~host) in
  let s = Tcp_session.create rng ~mss:cfg.mss ~reorder_prob:cfg.reorder_prob ~ts_ref ~ep in
  Tcp_session.handshake s;
  List.iteri
    (fun i tx ->
      Tcp_session.send s ~from_client:true (render_request tx);
      Tcp_session.send s ~from_client:false (render_response tx ~keep_alive:(i < nreq - 1)))
    txs;
  Tcp_session.teardown s;
  (Tcp_session.packets s, txs)

(* A connection on port 80 that is not HTTP ("crud", §2). *)
let gen_crud_session rng cfg ~ts_ref ~ep : session_packets =
  let junk = Rng.label rng ~lo:20 ~hi:200 ^ "\x00\x01\x02\xff" in
  let s =
    Tcp_session.create_unanswered rng ~mss:cfg.mss ~reorder_prob:cfg.reorder_prob ~ts_ref ~ep
  in
  Tcp_session.send s ~from_client:true junk;
  Tcp_session.packets s

type trace = {
  records : Pcap.record list;
  transactions : (endpoints * transaction list) list;  (** ground truth *)
}

let client_addr i = Addr.of_ipv4_octets 10 1 (i / 250) (1 + (i mod 250))
let server_addr i = Addr.of_ipv4_octets 192 168 (i / 250) (1 + (i mod 250))

(* Mean spacing between session starts: sessions overlap like live traffic
   (several in flight at once) while arrivals stay monotone, so a bounded
   reorder window suffices to interleave them in timestamp order. *)
let mean_gap_ns = 1_500_000

(** The session-by-session producer both [generate] and [iosrc] consume:
    every call yields one connection's packets (and its ground-truth
    transactions, [None] for crud), drawing from a single sequential RNG so
    list and streaming traces are identical. *)
let session_stream (cfg : config) :
    unit -> (session_packets * (endpoints * transaction list) option) option =
  let rng = Rng.create cfg.seed in
  let arrival = ref cfg.start_ts in
  let i = ref 0 in
  fun () ->
    if !i >= cfg.sessions then None
    else begin
      let idx = !i in
      incr i;
      let ep =
        {
          client = client_addr (Rng.int rng cfg.clients);
          server = server_addr (Rng.int rng cfg.servers);
          cport = 29000 + ((idx * 13) mod 30000);
          sport = 80;
        }
      in
      arrival := Time_ns.add !arrival (Int64.of_int (Rng.int rng (2 * mean_gap_ns)));
      let ts_ref = ref !arrival in
      if Rng.chance rng cfg.crud_prob then
        Some (gen_crud_session rng cfg ~ts_ref ~ep, None)
      else
        let pkts, session_txs = gen_session rng cfg ~ts_ref ~ep in
        Some (pkts, Some (ep, session_txs))
    end

(** Synthesize packets on demand as an [Iosrc.t]: memory stays bounded by
    the reorder [window] instead of the trace length.  The default window
    spans ~55ms of arrivals — several times the longest session — so the
    merged stream matches the sorted list exactly. *)
let iosrc ?(window = 512) (cfg : config) : Hilti_rt.Iosrc.t =
  let next = session_stream cfg in
  Gen_stream.iosrc ~kind:"synthetic-http" ~window (fun () ->
      Option.map fst (next ()))

(** Generate a full trace per [config].  Sessions start at staggered
    offsets and their packets are merged in timestamp order, so many
    connections are in flight simultaneously — exercising concurrent
    per-session state exactly like live traffic. *)
let generate (cfg : config) : trace =
  let next = session_stream cfg in
  let records = ref [] and txs = ref [] in
  let rec go () =
    match next () with
    | None -> ()
    | Some (pkts, session_txs) ->
        records := List.rev_append pkts !records;
        (match session_txs with Some t -> txs := t :: !txs | None -> ());
        go ()
  in
  go ();
  let by_ts (a : Pcap.record) (b : Pcap.record) = Time_ns.compare a.Pcap.ts b.Pcap.ts in
  { records = List.stable_sort by_ts (List.rev !records);
    transactions = List.rev !txs }
