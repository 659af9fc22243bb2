(** The libpcap trace-file format (classic pcap, microsecond resolution,
    little-endian, LINKTYPE_ETHERNET).

    Reading is incremental: a {!reader} pulls records one at a time from a
    refill function (a file, channel, or in-memory string served in chunks)
    through a bounded internal buffer, so memory stays O(snaplen) rather than
    O(trace size).  [parse_string]/[read_file] remain as thin compat shims
    that collect a reader into a list.  Writing mirrors this with a
    {!writer} that emits records as they are produced. *)

open Hilti_types

let magic = 0xa1b2c3d4
let linktype_ethernet = 1

(* Upper bound on a plausible capture length; larger values mean a corrupt
   or hostile header and must not drive allocation. *)
let max_caplen = 256 * 1024

type record = { ts : Time_ns.t; orig_len : int; data : string }

exception Bad_format of string

(** Hook for non-fatal diagnostics (truncated tail in lax mode).  Tests
    capture it; the default mirrors tcpdump's warning on stderr. *)
let warn = ref (fun msg -> Printf.eprintf "pcap: warning: %s\n%!" msg)

let m_records = Hilti_obs.Metrics.counter "pcap_records_read" ~help:"Pcap records decoded"

let m_bytes =
  Hilti_obs.Metrics.counter "pcap_bytes_read" ~help:"Captured payload bytes decoded from pcap"

let m_truncations =
  Hilti_obs.Metrics.counter "pcap_truncation_warnings"
    ~help:"Truncated-tail warnings from lax pcap readers"

(* ---- Writing -------------------------------------------------------------- *)

let encode_global_header ?(snaplen = 65535) () =
  let b = Bytes.create 24 in
  Wire.set_u32l b 0 magic;
  (* version 2.4, as little-endian u16 pairs *)
  Bytes.set b 4 '\x02';
  Bytes.set b 5 '\x00';
  Bytes.set b 6 '\x04';
  Bytes.set b 7 '\x00';
  Wire.set_u32l b 8 0;   (* thiszone *)
  Wire.set_u32l b 12 0;  (* sigfigs *)
  Wire.set_u32l b 16 snaplen;
  Wire.set_u32l b 20 linktype_ethernet;
  Bytes.to_string b

let encode_record r =
  let ns = Time_ns.to_ns r.ts in
  let sec = Int64.to_int (Int64.div ns 1_000_000_000L) in
  let usec = Int64.to_int (Int64.div (Int64.rem ns 1_000_000_000L) 1000L) in
  let b = Bytes.create (16 + String.length r.data) in
  Wire.set_u32l b 0 sec;
  Wire.set_u32l b 4 usec;
  Wire.set_u32l b 8 (String.length r.data);
  Wire.set_u32l b 12 r.orig_len;
  Bytes.blit_string r.data 0 b 16 (String.length r.data);
  Bytes.to_string b

(** Streaming writer: the global header is emitted on creation, records as
    they are written.  [emit] receives encoded byte runs in order. *)
type writer = {
  emit : string -> unit;
  w_close : unit -> unit;
  w_snaplen : int;
  mutable written : int;
}

let writer_of_sink ?(snaplen = 65535) ?(close = fun () -> ()) emit =
  emit (encode_global_header ~snaplen ());
  { emit; w_close = close; w_snaplen = snaplen; written = 0 }

let open_writer ?snaplen path =
  let oc = open_out_bin path in
  writer_of_sink ?snaplen ~close:(fun () -> close_out oc) (fun s ->
      output_string oc s)

let write_record w r =
  if String.length r.data > w.w_snaplen then
    raise (Bad_format "record longer than snaplen");
  w.emit (encode_record r);
  w.written <- w.written + 1

let close_writer w = w.w_close ()

(** Serialize a full trace to a string (the contents of a .pcap file). *)
let to_string records =
  let buf = Buffer.create 4096 in
  let w = writer_of_sink (Buffer.add_string buf) in
  List.iter (write_record w) records;
  close_writer w;
  Buffer.contents buf

let write_file path records =
  let w = open_writer path in
  Fun.protect
    ~finally:(fun () -> close_writer w)
    (fun () -> List.iter (write_record w) records)

(* ---- Incremental reading -------------------------------------------------- *)

(** A pull-based pcap reader.  [refill buf pos len] reads at most [len]
    bytes into [buf] at [pos] and returns how many were read (0 = EOF);
    the internal buffer holds at most one in-flight record plus header,
    i.e. O(snaplen), independent of trace length. *)
type reader = {
  refill : Bytes.t -> int -> int -> int;
  r_close : unit -> unit;
  strict : bool;
  mutable buf : Bytes.t;
  mutable pos : int;  (* consumed prefix of [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable snaplen : int;
  mutable header_seen : bool;
  mutable at_eof : bool;
}

let reader_of_refill ?(strict = false) ?(close = fun () -> ()) refill =
  {
    refill;
    r_close = close;
    strict;
    buf = Bytes.create 65536;
    pos = 0;
    len = 0;
    snaplen = 0;
    header_seen = false;
    at_eof = false;
  }

let reader_of_channel ?strict ?(close_channel = false) ic =
  reader_of_refill ?strict
    ~close:(fun () -> if close_channel then close_in ic)
    (fun b pos len -> input ic b pos len)

let open_file_reader ?strict path =
  reader_of_channel ?strict ~close_channel:true (open_in_bin path)

(** In-memory reader serving at most [chunk] bytes per refill call, so tests
    can force chunk boundaries to land mid-header and mid-record. *)
let reader_of_string ?strict ?(chunk = max_int) s =
  if chunk < 1 then invalid_arg "Pcap.reader_of_string: chunk must be >= 1";
  let off = ref 0 in
  reader_of_refill ?strict (fun b pos len ->
      let n = min (min len chunk) (String.length s - !off) in
      Bytes.blit_string s !off b pos n;
      off := !off + n;
      n)

let close_reader r = r.r_close ()

let available r = r.len - r.pos

(* Try to make [n] contiguous unconsumed bytes available, compacting the
   consumed prefix away first so the buffer never grows past one record. *)
let fill r n =
  if available r < n then begin
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
      r.len <- r.len - r.pos;
      r.pos <- 0
    end;
    if n > Bytes.length r.buf then begin
      let nb = Bytes.create n in
      Bytes.blit r.buf 0 nb 0 r.len;
      r.buf <- nb
    end;
    let continue = ref (not r.at_eof) in
    while r.len < n && !continue do
      let got = r.refill r.buf r.len (Bytes.length r.buf - r.len) in
      if got = 0 then begin
        r.at_eof <- true;
        continue := false
      end
      else r.len <- r.len + got
    done
  end;
  available r >= n

let get_u32l_bytes b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let read_global_header r =
  if not (fill r 24) then raise (Bad_format "short global header");
  if get_u32l_bytes r.buf r.pos <> magic then raise (Bad_format "bad magic");
  let snaplen = get_u32l_bytes r.buf (r.pos + 16) in
  if snaplen < 0 || snaplen > max_caplen then
    raise (Bad_format "implausible snaplen");
  r.snaplen <- snaplen;
  r.pos <- r.pos + 24;
  r.header_seen <- true

(* A truncated tail (trace cut off mid-record, e.g. a killed tcpdump) is a
   graceful EOF in lax mode; only [strict] readers abort on it. *)
let truncated r what =
  if r.strict then raise (Bad_format what)
  else begin
    Hilti_obs.Metrics.incr m_truncations;
    !warn (Printf.sprintf "truncated trace: %s at end of input" what);
    None
  end

(** Pull the next record, or [None] at end of input. *)
let read_record r =
  if not r.header_seen then read_global_header r;
  if available r = 0 && not (fill r 1) then None
  else if not (fill r 16) then truncated r "short record header"
  else begin
    let sec = get_u32l_bytes r.buf r.pos in
    let usec = get_u32l_bytes r.buf (r.pos + 4) in
    let caplen = get_u32l_bytes r.buf (r.pos + 8) in
    let orig_len = get_u32l_bytes r.buf (r.pos + 12) in
    (* Nonsensical header values mean corruption, not truncation: always
       reject rather than allocate an attacker-controlled size. *)
    if caplen < 0 || caplen > max_caplen then
      raise (Bad_format "implausible caplen");
    if r.snaplen > 0 && caplen > r.snaplen then
      raise (Bad_format "caplen exceeds snaplen");
    if not (fill r (16 + caplen)) then truncated r "short record"
    else begin
      let data = Bytes.sub_string r.buf (r.pos + 16) caplen in
      r.pos <- r.pos + 16 + caplen;
      Hilti_obs.Metrics.incr m_records;
      Hilti_obs.Metrics.add m_bytes caplen;
      let ts =
        Time_ns.of_ns
          (Int64.add
             (Int64.mul (Int64.of_int sec) 1_000_000_000L)
             (Int64.mul (Int64.of_int usec) 1000L))
      in
      Some { ts; orig_len; data }
    end
  end

let fold_records f acc r =
  let rec go acc =
    match read_record r with None -> acc | Some rec_ -> go (f acc rec_)
  in
  go acc

(* ---- Compat shims over the streaming reader ------------------------------- *)

let records_of_reader r =
  Fun.protect
    ~finally:(fun () -> close_reader r)
    (fun () -> List.rev (fold_records (fun acc x -> x :: acc) [] r))

let parse_string ?(strict = true) s =
  records_of_reader (reader_of_string ~strict s)

let read_file ?(strict = true) path =
  records_of_reader (open_file_reader ~strict path)

(* ---- As an input source ---------------------------------------------------- *)

(** Expose a record list as an [iosrc] (HILTI's packet-input type). *)
let iosrc_of_records records =
  Hilti_rt.Iosrc.of_list ~kind:"pcap"
    (List.map (fun r -> { Hilti_rt.Iosrc.ts = r.ts; data = r.data }) records)

(** Stream records straight out of a reader without materializing a list. *)
let iosrc_of_reader r =
  Hilti_rt.Iosrc.create ~kind:"pcap" (fun () ->
      match read_record r with
      | Some rec_ -> Some { Hilti_rt.Iosrc.ts = rec_.ts; data = rec_.data }
      | None ->
          close_reader r;
          None)

let iosrc_of_file ?strict path = iosrc_of_reader (open_file_reader ?strict path)
