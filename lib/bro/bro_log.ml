(** Mini-Bro's logging framework: typed streams with fixed column order
    writing Bro-style TSV lines (http.log, files.log, dns.log).  Streams
    buffer in memory so the evaluation can diff outputs; they can also
    mirror to disk.  A global [enabled] switch lets benchmarks skip the
    final write while still doing all the computation, mirroring §6.1's
    measurement methodology. *)

type stream = {
  name : string;
  mutable columns : string array;
  mutable rows : string list;  (** rendered lines, newest first *)
  mutable count : int;
}

type t = {
  streams : (string, stream) Hashtbl.t;
  mutable enabled : bool;
  row : Buffer.t;  (** scratch for the row being rendered *)
}

let create () = { streams = Hashtbl.create 8; enabled = true; row = Buffer.create 256 }

let set_enabled t flag = t.enabled <- flag

let stream t name =
  match Hashtbl.find t.streams name with
  | s -> s
  | exception Not_found ->
      let s = { name; columns = [||]; rows = []; count = 0 } in
      Hashtbl.add t.streams name s;
      s

(** (Re)define stream [name] with no rows.  The stream record is reset in
    place, so a writer that cached it stays valid; a changed column array
    tells it to rebuild its column map. *)
let create_stream t name columns =
  let s = stream t name in
  s.columns <- Array.of_list columns;
  s.rows <- [];
  s.count <- 0

(** Column index of [name] in [s], or -1. *)
let column s name =
  let cols = s.columns in
  let rec go i =
    if i >= Array.length cols then -1
    else if String.equal cols.(i) name then i
    else go (i + 1)
  in
  go 0

let needs_escape c = c = '\t' || c = '\n'

(* Does [s] hold a separator at or after [i]?  No closure: every string
   field of every row is scanned. *)
let rec has_separator s i =
  i < String.length s && (needs_escape (String.unsafe_get s i) || has_separator s (i + 1))

(** Append one field, TSV-escaping embedded separators as Bro does; the
    value is copied only when it contains one. *)
let add_field b s =
  if has_separator s 0 then
    Buffer.add_string b (String.map (fun c -> if needs_escape c then ' ' else c) s)
  else Buffer.add_string b s

(** Write one row in column order: [render b i] appends column [i] to [b]
    (strings through {!add_field}); a column that appends nothing logs
    "-".  The row is counted even when logging is disabled, but then
    nothing is rendered. *)
let write_row t s (render : Buffer.t -> int -> unit) =
  s.count <- s.count + 1;
  if t.enabled then begin
    let b = t.row in
    Buffer.clear b;
    for i = 0 to Array.length s.columns - 1 do
      if i > 0 then Buffer.add_char b '\t';
      let start = Buffer.length b in
      render b i;
      if Buffer.length b = start then Buffer.add_char b '-'
    done;
    s.rows <- Buffer.contents b :: s.rows
  end

(** Write one row: values are rendered strings keyed by column name;
    missing columns log "-", and fields naming no column are ignored. *)
let write t name (fields : (string * string) list) =
  let s = stream t name in
  let rec find col = function
    | [] -> ""
    | (k, v) :: rest -> if String.equal k col then v else find col rest
  in
  write_row t s (fun b i -> add_field b (find s.columns.(i) fields))

let rows t name = List.rev (stream t name).rows
let row_count t name = (stream t name).count

let header s = "#fields\t" ^ String.concat "\t" (Array.to_list s.columns)

let to_string t name =
  let s = stream t name in
  String.concat "\n" (header s :: List.rev s.rows)

let write_file t name path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t name);
      output_char oc '\n')

(* ---- Normalized comparison (§6.4's log-diff methodology) ------------------- *)

(** Normalize rows for comparison: sort and de-duplicate, as the paper's
    normalization does to absorb ordering differences. *)
let normalized t name = List.sort_uniq compare (rows t name)

type agreement = {
  total_a : int;
  total_b : int;
  normalized_a : int;
  normalized_b : int;
  identical : int;
  fraction : float;  (** identical / max(normalized_a, normalized_b) *)
}

(** Compare a stream across two logger instances. *)
let compare_streams (a : t) (b : t) name : agreement =
  let na = normalized a name and nb = normalized b name in
  let sa = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace sa r ()) na;
  let identical = List.length (List.filter (Hashtbl.mem sa) nb) in
  let denom = max (List.length na) (List.length nb) in
  {
    total_a = row_count a name;
    total_b = row_count b name;
    normalized_a = List.length na;
    normalized_b = List.length nb;
    identical;
    fraction = (if denom = 0 then 1.0 else float_of_int identical /. float_of_int denom);
  }
