(** TCP stream reassembly.

    One reassembler per flow direction: it tracks the next expected sequence
    number, buffers out-of-order segments, trims overlaps (first-arrival
    wins, the policy of most IDS reassemblers), and delivers contiguous
    payload to a callback in order.  SYN consumes one sequence number; FIN
    marks end-of-stream and triggers the [on_eof] callback once all data up
    to the FIN has been delivered. *)

(* Sequence numbers are native ints modulo 2^32, so tracking them
   allocates nothing; [unset] marks "no SYN / first segment yet" and "no
   FIN yet". *)
let unset = -1

type seg = { seq : int; data : string }  (* a buffered out-of-order copy *)

type t = {
  deliver : string -> int -> int -> unit;  (* a slice of the stream *)
  on_eof : unit -> unit;
  mutable next_seq : int;           (* [unset] until SYN / first segment *)
  mutable pending : seg list;       (* out-of-order, sorted by seq *)
  mutable fin_seq : int;            (* sequence number *after* last byte *)
  mutable eof_signaled : bool;
  mutable delivered_bytes : int;
  mutable out_of_order : int;       (* stat: segments buffered *)
  mutable overlaps : int;           (* stat: overlapping bytes trimmed *)
}

(** A reassembler that hands [deliver s off len] each contiguous slice of
    the stream, in order.  The slice may lie inside a segment's captured
    frame, so a callback that keeps the bytes copies them. *)
let create_sub ?(on_eof = fun () -> ()) deliver =
  {
    deliver;
    on_eof;
    next_seq = unset;
    pending = [];
    fin_seq = unset;
    eof_signaled = false;
    delivered_bytes = 0;
    out_of_order = 0;
    overlaps = 0;
  }

(* [s.[off, off + len)] as a string of its own, copied unless it is all of [s]. *)
let own_string s off len = if off = 0 && len = String.length s then s else String.sub s off len

(** {!create_sub} for a callback that takes each slice as a string of its
    own. *)
let create ?on_eof deliver = create_sub ?on_eof (fun s off len -> deliver (own_string s off len))

let delivered_bytes t = t.delivered_bytes
let out_of_order t = t.out_of_order
let overlaps t = t.overlaps

(* Sequence-number arithmetic modulo 2^32; [seq_diff] is the signed 32-bit
   distance from [b] to [a]. *)
let seq_add s n = (s + n) land 0xffffffff

let seq_diff a b =
  let d = (a - b) land 0xffffffff in
  if d land 0x80000000 <> 0 then d - 0x100000000 else d

let maybe_eof t =
  if
    (not t.eof_signaled) && t.fin_seq <> unset && t.next_seq <> unset
    && seq_diff t.next_seq t.fin_seq >= 0
  then begin
    t.eof_signaled <- true;
    t.on_eof ()
  end

(* Deliver the part of the segment [s.[off, off + len)] at [seq] that lies
   past [next_seq]; [seq] is at or before [next_seq].  Bytes already
   delivered are trimmed and counted as overlap (first arrival wins). *)
let deliver_from t seq s off len =
  let skip = - seq_diff seq t.next_seq in
  if skip < len then begin
    if skip > 0 then t.overlaps <- t.overlaps + skip;
    t.next_seq <- seq_add seq len;
    t.delivered_bytes <- t.delivered_bytes + (len - skip);
    t.deliver s (off + skip) (len - skip)
  end
  else if len > 0 then t.overlaps <- t.overlaps + len

let rec flush t =
  match t.pending with
  | seg :: rest when seq_diff seg.seq t.next_seq <= 0 ->
      t.pending <- rest;
      deliver_from t seg.seq seg.data 0 (String.length seg.data);
      flush t
  | _ -> ()  (* empty, or still a hole *)

let insert_sorted t seg =
  let rec go = function
    | [] -> [ seg ]
    | s :: rest as all ->
        if seq_diff seg.seq s.seq < 0 then seg :: all else s :: go rest
  in
  t.pending <- go t.pending

(* Whether a segment at [seq] would sort ahead of every buffered one. *)
let sorts_first t seq =
  match t.pending with [] -> true | s :: _ -> seq_diff seq s.seq < 0

(** Feed one TCP segment (header flags + payload at absolute [seq]) whose
    payload is [s.[off, off + len)].  A segment that reaches the stream's
    edge is delivered in place (no copy, no allocation); one that arrives
    ahead of a hole is copied once and buffered. *)
let segment_sub t ~(seq : int32) ~syn ~fin s off len =
  let seq = Int32.to_int seq land 0xffffffff in
  let payload_seq = if syn then seq_add seq 1 else seq in
  (* Establish the initial sequence number. *)
  if t.next_seq = unset then t.next_seq <- payload_seq;
  if fin && t.fin_seq = unset then t.fin_seq <- seq_add payload_seq len;
  if len > 0 then begin
    let gap = seq_diff payload_seq t.next_seq in
    if gap > 0 then t.out_of_order <- t.out_of_order + 1;
    if gap <= 0 && sorts_first t payload_seq then deliver_from t payload_seq s off len
    else insert_sorted t { seq = payload_seq; data = own_string s off len }
  end;
  flush t;
  maybe_eof t

(** {!segment_sub} over a whole payload string. *)
let segment t ~seq ~syn ~fin data = segment_sub t ~seq ~syn ~fin data 0 (String.length data)

(** Declare the stream over regardless of FIN (e.g. RST or trace end). *)
let finish t =
  if not t.eof_signaled then begin
    t.eof_signaled <- true;
    t.on_eof ()
  end
