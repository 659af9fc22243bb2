(** Spans of the traced run, kept in memory: (name, start, end, parent),
    plus the minor-heap words allocated inside each.  One flat array, so
    recording a span allocates nothing on the minor heap. *)

(** Every timestamp in the benchmark: CLOCK_MONOTONIC in ns, shared by the
    parent and its children. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* [Gc.minor_words] without the C-call wrapper: the primitive neither
   allocates nor raises. *)
external minor_words : unit -> (float[@unboxed])
  = "caml_gc_minor_words" "caml_gc_minor_words_unboxed"
  [@@noalloc]

(* Span [i] occupies [a.(stride * i)] onwards: name, parent, start, end,
   minor words at start, at end — one span's fields share a cache line. *)
let stride = 6

type t = {
  names : string array;
  mutable n : int;
  mutable a : int array;
  mutable cur : int;  (** innermost open span, -1 when none is open *)
}

let create ?(cap = 1 lsl 16) names = { names; n = 0; a = Array.make (stride * cap) 0; cur = -1 }

let name t i = t.a.(stride * i)
let parent t i = t.a.((stride * i) + 1)
let t0 t i = t.a.((stride * i) + 2)
let t1 t i = t.a.((stride * i) + 3)
let span_words t i = t.a.((stride * i) + 5) - t.a.((stride * i) + 4)

(* The grown array is large enough to go straight to the major heap, so
   growing does not show up in any span's minor-word count. *)
let grow t =
  let b = Array.make (2 * Array.length t.a) 0 in
  Array.blit t.a 0 b 0 (stride * t.n);
  t.a <- b

(** Open a span named [names.(name)] inside the innermost open one; returns
    its id for {!close}. *)
let enter t name =
  if stride * t.n = Array.length t.a then grow t;
  let id = t.n in
  let o = stride * id in
  t.n <- id + 1;
  t.a.(o) <- name;
  t.a.(o + 1) <- t.cur;
  t.cur <- id;
  t.a.(o + 4) <- int_of_float (minor_words ());
  t.a.(o + 2) <- now ();
  id

let close t id =
  let o = stride * id in
  t.a.(o + 3) <- now ();
  t.a.(o + 5) <- int_of_float (minor_words ());
  t.cur <- t.a.(o + 1)

(** Where a traced run's time went. *)
type breakdown = {
  self_ns : int array;
      (** per name: own time, less children, runtime pauses and the
          recorder's cost *)
  self_words : float array;  (** per name: own minor words, less children *)
  pause_ns : int;  (** runtime (GC) pauses inside the spans *)
  trace_ns : int;  (** the recorder's own cost *)
}

(* The innermost span around [a, b], or -1.  Spans are stored in start
   order and nest, so it is an ancestor of the last span started by [a]. *)
let innermost t a b =
  let lo = ref (-1) and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t0 t mid <= a then lo := mid else hi := mid - 1
  done;
  let i = ref !lo in
  while !i >= 0 && t1 t !i < b do
    i := parent t !i
  done;
  !i

(** Self time and allocation per name.  Each runtime pause in [pauses]
    ((start, end) in ns) is taken out of the span it interrupted; the
    recorder's cost per span — [inside] the span and [outside] it, charged
    to the parent — is taken out as measured by {!calibrate}. *)
let breakdown ?(outside = 0) ?(inside = 0) ?(pauses = []) t =
  let k = Array.length t.names in
  let ns = Array.make k 0 and words = Array.make k 0. in
  let trace = ref 0 in
  for i = 0 to t.n - 1 do
    let d = t1 t i - t0 t i and w = float_of_int (span_words t i) in
    let me = name t i in
    ns.(me) <- ns.(me) + d - inside;
    words.(me) <- words.(me) +. w;
    trace := !trace + inside;
    let p = parent t i in
    if p >= 0 then begin
      let pn = name t p in
      ns.(pn) <- ns.(pn) - d - outside;
      words.(pn) <- words.(pn) -. w;
      trace := !trace + outside
    end
  done;
  let paused = ref 0 in
  List.iter
    (fun (a, b) ->
      let i = innermost t a b in
      if i >= 0 then begin
        ns.(name t i) <- ns.(name t i) - (b - a);
        paused := !paused + (b - a)
      end)
    pauses;
  { self_ns = ns; self_words = words; pause_ns = !paused; trace_ns = !trace }

(** The median of five calls of [f]. *)
let median5 f = List.nth (List.sort compare (List.init 5 (fun _ -> f ()))) 2

(** The recorder's own cost per span in ns, (outside, inside): medians of
    five runs of 20k empty spans inside one outer span. *)
let calibrate () =
  let n = 20_000 in
  let t = create ~cap:(n + 1) [| "outer"; "inner" |] in
  let once i () =
    t.n <- 0;
    let root = enter t 0 in
    for _ = 1 to n do
      close t (enter t 1)
    done;
    close t root;
    (breakdown t).self_ns.(i) / n
  in
  (median5 (once 0), median5 (once 1))

(** Total duration of the top-level spans, in ns. *)
let total t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    if parent t i < 0 then s := !s + (t1 t i - t0 t i)
  done;
  !s

(** Write the first [limit] spans as Chrome trace-event JSON. *)
let write_chrome t ~limit path =
  let oc = open_out_bin path in
  let base = if t.n > 0 then t0 t 0 else 0 in
  let us x = float_of_int (x - base) /. 1e3 in
  output_string oc "[";
  for i = 0 to min t.n limit - 1 do
    Printf.fprintf oc
      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d}}"
      (if i = 0 then "" else ",")
      t.names.(name t i) (us (t0 t i))
      (us (t1 t i) -. us (t0 t i))
      i (parent t i)
  done;
  output_string oc "\n]\n";
  close_out oc
