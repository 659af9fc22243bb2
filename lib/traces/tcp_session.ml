(** Shared TCP-connection assembly for the synthetic protocol generators
    (HTTP, MQTT, FTP): handshake, MSS-chopped data flights with optional
    reordering, teardown. *)

open Hilti_types
open Hilti_net

type endpoints = {
  client : Addr.t;
  server : Addr.t;
  cport : int;
  sport : int;
}

(** One in-progress connection: tracks both directions' sequence numbers
    and accumulates packets in wire order. *)
type t = {
  rng : Rng.t;
  mss : int;
  reorder_prob : float;
  ep : endpoints;
  ts_ref : Time_ns.t ref;
  mutable cseq : int32;
  mutable sseq : int32;
  mutable packets : Pcap.record list;  (* reversed *)
}

let client_isn rng = Int32.of_int (1000 + Rng.int rng 1_000_000)

let create rng ~mss ~reorder_prob ~ts_ref ~ep =
  let cseq = client_isn rng in
  let sseq = Int32.of_int (5000 + Rng.int rng 1_000_000) in
  { rng; mss; reorder_prob; ep; ts_ref; cseq; sseq; packets = [] }

let step t ival = t.ts_ref := Time_ns.add !(t.ts_ref) (Int64.of_int ival)

let bare t ~from_client ~seq ~ack ~flags =
  let ep = t.ep in
  let src, dst, sp, dp =
    if from_client then (ep.client, ep.server, ep.cport, ep.sport)
    else (ep.server, ep.client, ep.sport, ep.cport)
  in
  let frame =
    Packet.encode_tcp ~src ~dst ~src_port:sp ~dst_port:dp ~seq ~ack ~flags ""
  in
  t.packets <-
    { Pcap.ts = !(t.ts_ref); orig_len = String.length frame; data = frame }
    :: t.packets

let handshake t =
  step t 100_000;
  bare t ~from_client:true ~seq:t.cseq ~ack:0l ~flags:Tcp.flag_syn;
  step t 80_000;
  bare t ~from_client:false ~seq:t.sseq ~ack:(Int32.add t.cseq 1l)
    ~flags:(Tcp.flag_syn lor Tcp.flag_ack);
  step t 60_000;
  bare t ~from_client:true ~seq:(Int32.add t.cseq 1l)
    ~ack:(Int32.add t.sseq 1l) ~flags:Tcp.flag_ack;
  t.cseq <- Int32.add t.cseq 1l;
  t.sseq <- Int32.add t.sseq 1l

(** A connection whose client sends a SYN at the current time and then
    data that nothing answers, as junk on a server port does: only the
    client's sequence number is drawn, and the client's data acks 1. *)
let create_unanswered rng ~mss ~reorder_prob ~ts_ref ~ep =
  let isn = client_isn rng in
  let t =
    { rng; mss; reorder_prob; ep; ts_ref; cseq = Int32.add isn 1l; sseq = 1l; packets = [] }
  in
  bare t ~from_client:true ~seq:isn ~ack:0l ~flags:Tcp.flag_syn;
  t

(** Send [data] in one direction, chopped at MSS; a flight is occasionally
    reordered (contents swapped, capture timestamps kept ascending) to
    exercise reassembly. *)
let send t ~from_client data =
  if data <> "" then begin
    let ep = t.ep in
    let src, dst, sp, dp =
      if from_client then (ep.client, ep.server, ep.cport, ep.sport)
      else (ep.server, ep.client, ep.sport, ep.cport)
    in
    let seq = if from_client then t.cseq else t.sseq in
    let ack = if from_client then t.sseq else t.cseq in
    let n = String.length data in
    let segs = ref [] in
    let off = ref 0 in
    while !off < n do
      let len = min t.mss (n - !off) in
      let frame =
        Packet.encode_tcp ~src ~dst ~src_port:sp ~dst_port:dp
          ~seq:(Int32.add seq (Int32.of_int !off))
          ~ack
          ~flags:(Tcp.flag_ack lor Tcp.flag_psh)
          (String.sub data !off len)
      in
      step t (50_000 + Rng.int t.rng 400_000);
      segs :=
        { Pcap.ts = !(t.ts_ref); orig_len = String.length frame; data = frame }
        :: !segs;
      off := !off + len
    done;
    let segs = List.rev !segs in
    let segs =
      if List.length segs > 1 && Rng.chance t.rng t.reorder_prob then
        match segs with
        | a :: b :: rest ->
            { b with Pcap.ts = a.Pcap.ts } :: { a with Pcap.ts = b.Pcap.ts } :: rest
        | _ -> segs
      else segs
    in
    t.packets <- List.rev_append segs t.packets;
    if from_client then t.cseq <- Int32.add t.cseq (Int32.of_int n)
    else t.sseq <- Int32.add t.sseq (Int32.of_int n)
  end

let teardown t =
  step t 120_000;
  bare t ~from_client:true ~seq:t.cseq ~ack:t.sseq
    ~flags:(Tcp.flag_fin lor Tcp.flag_ack);
  step t 60_000;
  bare t ~from_client:false ~seq:t.sseq ~ack:(Int32.add t.cseq 1l)
    ~flags:(Tcp.flag_fin lor Tcp.flag_ack);
  step t 40_000;
  bare t ~from_client:true ~seq:(Int32.add t.cseq 1l)
    ~ack:(Int32.add t.sseq 1l) ~flags:Tcp.flag_ack

(** The accumulated packets, in wire order. *)
let packets t = List.rev t.packets
