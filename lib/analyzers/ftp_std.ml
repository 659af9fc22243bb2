(** The "standard" FTP control-channel parser: hand-written line splitting
    and command/reply decoding, the manual baseline against the BinPAC++
    FTP grammar.  Like {!Mqtt_std} it transcribes the grammar's semantics
    exactly: command verbs are the maximal [A-Za-z][A-Za-z0-9]* prefix,
    only spaces separate verb and argument, reply codes are exactly three
    digits, and a "-" separator marks a continuation line of a multi-line
    reply (no event is raised for those). *)

open Hilti_types

type t = {
  is_command : bool;  (** client->server direction carries commands *)
  on_event : Events.ftp_event -> unit;
  buf : Hbytes.t;
  mutable failed : string option;
  mutable messages : int;
}

let create ~is_command ~on_event =
  { is_command; on_event; buf = Hbytes.create (); failed = None; messages = 0 }

let failed t = t.failed

let is_alpha c = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
let is_alnum c = is_alpha c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* One complete line, CR/LF stripped.  Grammar equivalence notes: the
   command verb must start alphabetic; anything else is a token mismatch
   that kills the direction, exactly as the grammar's ParseError does. *)
let handle_line t line =
  if t.is_command then begin
    let n = String.length line in
    if n = 0 || not (is_alpha line.[0]) then t.failed <- Some "bad command verb"
    else begin
      let i = ref 1 in
      while !i < n && is_alnum line.[!i] do incr i done;
      let cmd = String.sub line 0 !i in
      while !i < n && line.[!i] = ' ' do incr i done;
      let arg = String.sub line !i (n - !i) in
      t.messages <- t.messages + 1;
      t.on_event (Events.F_request { Events.cmd; arg })
    end
  end
  else begin
    let n = String.length line in
    if n < 3 || not (is_digit line.[0] && is_digit line.[1] && is_digit line.[2])
    then t.failed <- Some "bad reply code"
    else begin
      let code = int_of_string (String.sub line 0 3) in
      let sep, text =
        if n = 3 then ("", "")
        else
          match line.[3] with
          | '-' -> ("-", String.sub line 4 (n - 4))
          | ' ' -> (" ", String.sub line 4 (n - 4))
          | _ -> ("", String.sub line 3 (n - 3))
      in
      t.messages <- t.messages + 1;
      (* Continuation lines of a multi-line reply raise nothing. *)
      if sep <> "-" then t.on_event (Events.F_reply { Events.code; msg = text })
    end
  end

(* Line terminator transcribed from the grammar: text stops at the first
   CR or LF, then /\r?\n/ must follow — a bare CR not followed by LF is a
   parse error, and a CR at the end of the buffer waits for more data.
   The buffered stream is an Hbytes object: scanning goes through a view
   and consuming a line is an O(1) trim — only the line text itself is
   materialized. *)
let drain t =
  let rec go () =
    if t.failed = None then begin
      let v = Hbytes.view t.buf in
      let n = Hbytes.view_length v in
      let i =
        match (Hbytes.find_byte v '\r', Hbytes.find_byte v '\n') with
        | Some a, Some b -> min a b
        | Some a, None | None, Some a -> a
        | None, None -> n
      in
      if i < n then begin
        let line = Hbytes.view_sub_string v 0 i in
        let consume upto =
          Hbytes.trim_front t.buf upto;
          handle_line t line;
          go ()
        in
        if Hbytes.get_u8 v i = Char.code '\n' then consume (i + 1)
        else if i + 1 < n then
          if Hbytes.get_u8 v (i + 1) = Char.code '\n' then consume (i + 2)
          else t.failed <- Some "bad line terminator"
        (* else: CR is the last byte — wait for the LF *)
      end
    end
  in
  go ()

(** Feed the reassembled stream slice [s.[off, off + len)]. *)
let feed_sub t s off len =
  if t.failed = None then begin
    Hbytes.append_sub t.buf s off len;
    drain t
  end

(** Feed reassembled stream data. *)
let feed t chunk = feed_sub t chunk 0 (String.length chunk)

(** The stream is over; a partial line still buffered is a truncation. *)
let eof t =
  if t.failed = None then begin
    drain t;
    if t.failed = None && Hbytes.length t.buf > 0 then
      t.failed <- Some "truncated line"
  end

let messages t = t.messages
