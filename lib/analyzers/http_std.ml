(** The "standard" HTTP protocol parser: hand-written, maintaining explicit
    per-session state machines that record where parsing stopped — the
    traditional implementation style the paper contrasts with HILTI's
    transparent fiber-based incremental parsers (§3.2, §6.4).  Plays the
    role of Bro's manually written C++ HTTP analyzer as the comparison
    baseline for the BinPAC++ parser.

    Known (intended) semantic difference, mirroring §6.4: for
    "206 Partial Content" responses this parser does not extract body
    metadata (MIME type, length, hash), while the BinPAC++ version does —
    the paper's main source of http.log/files.log disagreement. *)

type headers = (string * string) list

type body_mode =
  | No_body
  | Fixed of int
  | Chunk_size
  | Chunk_data of int
  | Chunk_sep of int   (** CRLF after a chunk; remaining = next state's info *)
  | Trailer
  | Until_close

type phase =
  | Start_line
  | In_headers
  | In_body of body_mode
  | Failed

type t = {
  is_request : bool;
  on_request : Events.http_request -> unit;
  on_reply : Events.http_reply -> unit;
  buf : Hilti_types.Hbytes.t;  (** stream data; consumed prefix trimmed away *)
  mutable pos : int;           (** absolute offset of first unconsumed byte *)
  mutable phase : phase;
  (* current-message scratch *)
  mutable line1 : string list; (** split start line *)
  mutable headers : headers;   (** newest first; see {!header} *)
  mutable hashing : bool;      (** feed body bytes to [body_hash]? *)
  body_hash : Mini_bro.Sha1.ctx; (** running hash and length of the body *)
  mutable messages : int;
}

let create ~is_request ~on_request ~on_reply =
  {
    is_request;
    on_request;
    on_reply;
    buf = Hilti_types.Hbytes.create ();
    pos = 0;
    phase = Start_line;
    line1 = [];
    headers = [];
    hashing = false;
    body_hash = Mini_bro.Sha1.init ();
    messages = 0;
  }

(** Stream bytes currently held — stays bounded by one in-flight message
    because consumed input is trimmed after every drain, and body bytes are
    hashed as they arrive rather than kept. *)
let retained t = Hilti_types.Hbytes.length t.buf

(* Headers are accumulated newest first (linear in the header count);
   the first occurrence on the wire wins, so the last match here does. *)
let header t name =
  let name = String.lowercase_ascii name in
  List.fold_left
    (fun found (n, v) -> if n = name then Some v else found)
    None t.headers

let reset_message t =
  t.line1 <- [];
  t.headers <- [];
  t.hashing <- false;
  Mini_bro.Sha1.reset t.body_hash;
  t.phase <- Start_line

let cursor t = Hilti_types.Hbytes.iter_at t.buf t.pos

(* Consume up to the next CRLF (or LF); None if no full line buffered.
   The CR strip happens on the view, so the line text is copied exactly
   once. *)
let take_line t =
  let it = cursor t in
  match Hilti_types.Hbytes.find it "\n" with
  | None -> None
  | Some nl ->
      let v = Hilti_types.Hbytes.sub_view it nl in
      let n = Hilti_types.Hbytes.view_length v in
      let n =
        if n > 0 && Hilti_types.Hbytes.get_u8 v (n - 1) = Char.code '\r' then
          n - 1
        else n
      in
      let line = Hilti_types.Hbytes.view_sub_string v 0 n in
      t.pos <- Hilti_types.Hbytes.offset nl + 1;
      Some line

(* Consume the body bytes in [it, stop), hashing them in place. *)
let take_body t it stop =
  if t.hashing then
    Hilti_types.Hbytes.view_read
      (Hilti_types.Hbytes.sub_view it stop)
      Mini_bro.Sha1.feed_bytes t.body_hash;
  t.pos <- Hilti_types.Hbytes.offset stop

(* Consume [n] buffered body bytes; false if not enough data yet. *)
let take_into t n =
  let it = cursor t in
  if Hilti_types.Hbytes.available it < n then false
  else begin
    take_body t it (Hilti_types.Hbytes.advance it n);
    true
  end

(* Consume everything still buffered as body (Until_close). *)
let take_all_into t = take_body t (cursor t) (Hilti_types.Hbytes.end_ t.buf)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let parse_version v =
  (* "HTTP/1.1" -> "1.1" *)
  match String.index_opt v '/' with
  | Some i -> String.sub v (i + 1) (String.length v - i - 1)
  | None -> v

let finish_request t =
  t.messages <- t.messages + 1;
  (match t.line1 with
  | meth :: uri :: version :: _ ->
      t.on_request
        {
          Events.method_ = meth;
          uri;
          version = parse_version version;
          host = Option.value ~default:"" (header t "host");
        }
  | _ -> ());
  reset_message t

let finish_reply t =
  t.messages <- t.messages + 1;
  (match t.line1 with
  | version :: code :: rest ->
      let code = int_of_string_opt code |> Option.value ~default:0 in
      let reply =
        if code = 206 then
          (* The standard parser skips body metadata on Partial Content. *)
          {
            Events.r_version = parse_version version;
            code;
            reason = String.concat " " rest;
            mime = "-";
            body_len = 0;
            body_sha1 = "";
          }
        else
          {
            Events.r_version = parse_version version;
            code;
            reason = String.concat " " rest;
            mime = Option.value ~default:"-" (header t "content-type");
            body_len = Mini_bro.Sha1.length t.body_hash;
            body_sha1 =
              (if Mini_bro.Sha1.length t.body_hash = 0 then ""
               else Mini_bro.Sha1.finish t.body_hash);
          }
      in
      t.on_reply reply
  | _ -> ());
  reset_message t

let finish_message t = if t.is_request then finish_request t else finish_reply t

(* Decide how the body arrives once headers are complete. *)
let body_mode_of t =
  match header t "transfer-encoding" with
  | Some te when String.lowercase_ascii (String.trim te) = "chunked" -> Chunk_size
  | _ -> (
      match header t "content-length" with
      | Some cl -> (
          match int_of_string_opt (String.trim cl) with
          | Some 0 | None -> No_body
          | Some n -> Fixed n)
      | None ->
          if t.is_request then No_body
          else
            (* A reply with neither length nor chunking: body runs until
               close if the server said so, else there is no body. *)
            let close =
              match header t "connection" with
              | Some c -> String.lowercase_ascii (String.trim c) = "close"
              | None -> false
            in
            if close then Until_close else No_body)

(* One step of the state machine; false = need more data. *)
let rec step t : bool =
  match t.phase with
  | Failed -> false
  | Start_line -> (
      match take_line t with
      | Some "" -> true  (* tolerate stray blank lines between messages *)
      | Some line ->
          let parts = split_ws line in
          let plausible =
            match (t.is_request, parts) with
            | true, _ :: _ :: v :: _ -> String.length v >= 5 && String.sub v 0 5 = "HTTP/"
            | false, v :: _ :: _ -> String.length v >= 5 && String.sub v 0 5 = "HTTP/"
            | _ -> false
          in
          if plausible then begin
            t.line1 <- parts;
            (* Only reply bodies are hashed, and not those of 206 replies,
               whose metadata this parser drops (see [finish_reply]). *)
            t.hashing <-
              (match parts with
              | _ :: code :: _ when not t.is_request ->
                  int_of_string_opt code <> Some 206
              | _ -> false);
            t.phase <- In_headers;
            true
          end
          else begin
            (* Not HTTP: this direction carries crud; stop parsing. *)
            t.phase <- Failed;
            false
          end
      | None -> false)
  | In_headers -> (
      match take_line t with
      | Some "" ->
          (match body_mode_of t with
          | No_body -> finish_message t
          | mode -> t.phase <- In_body mode);
          true
      | Some line -> (
          match String.index_opt line ':' with
          | Some i ->
              let name = String.lowercase_ascii (String.sub line 0 i) in
              let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
              t.headers <- (name, value) :: t.headers;
              true
          | None -> true (* ignore malformed header line, as Bro does *))
      | None -> false)
  | In_body No_body ->
      finish_message t;
      true
  | In_body (Fixed n) ->
      if take_into t n then begin
        finish_message t;
        true
      end
      else false
  | In_body Chunk_size -> (
      match take_line t with
      | Some line -> (
          let hex = List.hd (String.split_on_char ';' line) in
          match int_of_string_opt ("0x" ^ String.trim hex) with
          | Some 0 -> t.phase <- In_body Trailer; true
          | Some n -> t.phase <- In_body (Chunk_data n); true
          | None -> t.phase <- Failed; false)
      | None -> false)
  | In_body (Chunk_data n) ->
      if take_into t n then begin
        t.phase <- In_body (Chunk_sep 0);
        true
      end
      else false
  | In_body (Chunk_sep _) -> (
      match take_line t with
      | Some _ -> t.phase <- In_body Chunk_size; true
      | None -> false)
  | In_body Trailer -> (
      (* Consume trailer lines up to the final empty line. *)
      match take_line t with
      | Some "" -> finish_message t; true
      | Some _ -> true
      | None -> false)
  | In_body Until_close ->
      (* Everything up to EOF is body: hash what is buffered and wait. *)
      take_all_into t;
      false

and drain t = if step t then drain t

(* Drop consumed input so retention is bounded by the message in flight. *)
let trim t = Hilti_types.Hbytes.trim t.buf (cursor t)

(** Feed the reassembled stream slice [s.[off, off + len)]. *)
let feed_sub t s off len =
  if t.phase <> Failed then begin
    Hilti_types.Hbytes.append_sub t.buf s off len;
    drain t;
    trim t
  end

(** Feed reassembled stream data. *)
let feed t data = feed_sub t data 0 (String.length data)

(** The stream is over (FIN/RST/trace end). *)
let eof t =
  drain t;
  (match t.phase with In_body Until_close -> finish_message t | _ -> ());
  trim t

let messages t = t.messages

(** The direction hit non-HTTP bytes and parsing stopped. *)
let failed t = t.phase = Failed
