(** Absolute timestamps with nanosecond resolution (HILTI [time]).

    Represented as signed 64-bit nanoseconds since the Unix epoch, giving a
    range of about +/- 292 years, ample for traffic analysis. *)

type t = int64

let epoch : t = 0L

let ns_per_sec = 1_000_000_000L

let of_ns ns : t = ns
let to_ns (t : t) = t

let of_float secs : t = Int64.of_float (secs *. 1e9)
let to_float (t : t) = Int64.to_float t /. 1e9

let of_secs s : t = Int64.mul (Int64.of_int s) ns_per_sec

let add (t : t) (i : int64) : t = Int64.add t i
let diff (a : t) (b : t) : int64 = Int64.sub a b

let compare : t -> t -> int = Int64.compare
let equal (a : t) (b : t) = Int64.equal a b
let min (a : t) (b : t) : t = if compare a b <= 0 then a else b
let max (a : t) (b : t) : t = if compare a b >= 0 then a else b
let hash (t : t) = Hashtbl.hash t

(** Render as fractional seconds since the epoch, Bro-log style
    (e.g. ["1398558468.123456"]). *)
let add_to_buffer b (t : t) =
  let secs = Int64.div t ns_per_sec and frac = Int64.rem t ns_per_sec in
  Digits.add_int b (Int64.to_int secs);
  Buffer.add_char b '.';
  Digits.add_padded b ~width:6 (Int64.to_int (Int64.div (Int64.abs frac) 1000L))

let to_string (t : t) = Digits.to_string ~size:24 add_to_buffer t

let pp fmt t = Format.pp_print_string fmt (to_string t)

(** Wall-clock now, for profiling only; analysis code uses trace time. *)
let now () : t = of_float (Unix.gettimeofday ())
