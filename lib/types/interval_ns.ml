(** Relative time intervals with nanosecond resolution (HILTI [interval]). *)

type t = int64

let zero : t = 0L
let ns_per_sec = 1_000_000_000L

let of_ns ns : t = ns
let to_ns (t : t) = t

let of_float secs : t = Int64.of_float (secs *. 1e9)
let to_float (t : t) = Int64.to_float t /. 1e9

let of_secs s : t = Int64.mul (Int64.of_int s) ns_per_sec
let of_msecs ms : t = Int64.mul (Int64.of_int ms) 1_000_000L

let add : t -> t -> t = Int64.add
let sub : t -> t -> t = Int64.sub
let mul (t : t) k : t = Int64.mul t (Int64.of_int k)
let neg : t -> t = Int64.neg

let compare : t -> t -> int = Int64.compare
let equal (a : t) (b : t) = Int64.equal a b
let hash (t : t) = Hashtbl.hash t

(* Same rendering as {!Time_ns.to_string}. *)
let add_to_buffer b (t : t) = Time_ns.add_to_buffer b t
let to_string (t : t) = Time_ns.to_string t

let pp fmt t = Format.pp_print_string fmt (to_string t)
