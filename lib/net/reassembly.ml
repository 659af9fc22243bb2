(** TCP stream reassembly.

    One reassembler per flow direction: it tracks the next expected sequence
    number, buffers out-of-order segments, trims overlaps (first-arrival
    wins, the policy of most IDS reassemblers), and delivers contiguous
    payload to a callback in order.  SYN consumes one sequence number; FIN
    marks end-of-stream and triggers the [on_eof] callback once all data up
    to the FIN has been delivered. *)

type seg = { seq : int32; data : string }

type t = {
  deliver : string -> unit;
  on_eof : unit -> unit;
  mutable next_seq : int32 option;  (* None until SYN / first segment *)
  mutable pending : seg list;       (* out-of-order, sorted by seq *)
  mutable fin_seq : int32 option;   (* sequence number *after* last byte *)
  mutable eof_signaled : bool;
  mutable delivered_bytes : int;
  mutable out_of_order : int;       (* stat: segments buffered *)
  mutable overlaps : int;           (* stat: overlapping bytes trimmed *)
}

let create ?(on_eof = fun () -> ()) deliver =
  {
    deliver;
    on_eof;
    next_seq = None;
    pending = [];
    fin_seq = None;
    eof_signaled = false;
    delivered_bytes = 0;
    out_of_order = 0;
    overlaps = 0;
  }

let delivered_bytes t = t.delivered_bytes
let out_of_order t = t.out_of_order
let overlaps t = t.overlaps

(* Sequence-number arithmetic modulo 2^32. *)
let seq_add (s : int32) n = Int32.add s (Int32.of_int n)
let seq_diff (a : int32) (b : int32) = Int32.to_int (Int32.sub a b)

let maybe_eof t =
  if not t.eof_signaled then
    match (t.fin_seq, t.next_seq) with
    | Some f, Some n when seq_diff n f >= 0 ->
        t.eof_signaled <- true;
        t.on_eof ()
    | _ -> ()

let rec flush t =
  match (t.pending, t.next_seq) with
  | seg :: rest, Some next ->
      let gap = seq_diff seg.seq next in
      if gap > 0 then ()  (* still a hole *)
      else begin
        t.pending <- rest;
        let skip = -gap in
        if skip < String.length seg.data then begin
          let fresh = String.sub seg.data skip (String.length seg.data - skip) in
          if skip > 0 then t.overlaps <- t.overlaps + skip;
          t.next_seq <- Some (seq_add seg.seq (String.length seg.data));
          t.delivered_bytes <- t.delivered_bytes + String.length fresh;
          t.deliver fresh
        end
        else if String.length seg.data > 0 then
          t.overlaps <- t.overlaps + String.length seg.data;
        flush t
      end
  | _ -> ()

let insert_sorted t seg =
  let rec go = function
    | [] -> [ seg ]
    | s :: rest as all ->
        if seq_diff seg.seq s.seq < 0 then seg :: all else s :: go rest
  in
  t.pending <- go t.pending

(** Feed one TCP segment (header flags + payload at absolute [seq]). *)
let segment t ~(seq : int32) ~syn ~fin data =
  (* Establish the initial sequence number. *)
  (match t.next_seq with
  | None -> t.next_seq <- Some (if syn then seq_add seq 1 else seq)
  | Some _ -> ());
  let payload_seq = if syn then seq_add seq 1 else seq in
  if fin then begin
    let fin_at = seq_add payload_seq (String.length data) in
    match t.fin_seq with
    | None -> t.fin_seq <- Some fin_at
    | Some _ -> ()
  end;
  if String.length data > 0 then begin
    (match t.next_seq with
    | Some next when seq_diff payload_seq next > 0 -> t.out_of_order <- t.out_of_order + 1
    | _ -> ());
    insert_sorted t { seq = payload_seq; data }
  end;
  flush t;
  maybe_eof t

(** Declare the stream over regardless of FIN (e.g. RST or trace end). *)
let finish t =
  if not t.eof_signaled then begin
    t.eof_signaled <- true;
    t.on_eof ()
  end
