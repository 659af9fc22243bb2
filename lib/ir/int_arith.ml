(** HILTI integer semantics, defined once: the VM's generic [int.*] prims
    and the constant folder both compute through these functions, so a
    folded instruction yields what the unoptimized program computes.  (The
    VM's register-bank arms keep inline copies; see [Vm.exec_func].) *)

type op = A_add | A_sub | A_mul | A_div | A_mod | A_shl | A_shr | A_and | A_or | A_xor | A_min | A_max

let name = function
  | A_add -> "add" | A_sub -> "sub" | A_mul -> "mul" | A_div -> "div"
  | A_mod -> "mod" | A_shl -> "shl" | A_shr -> "shr" | A_and -> "and"
  | A_or -> "or" | A_xor -> "xor" | A_min -> "min" | A_max -> "max"

let of_name s =
  List.find_opt
    (fun op -> name op = s)
    [ A_add; A_sub; A_mul; A_div; A_mod; A_shl; A_shr; A_and; A_or; A_xor; A_min; A_max ]

(** The width an [int.*] instruction computes at, from the static type of
    its first operand; 64 when that type is not an int. *)
let width_of_type : Htype.t option -> int = function
  | Some (Htype.Int w) | Some (Htype.Ref (Htype.Int w)) -> w
  | _ -> 64

(** The width an [assign] into a variable of static type [t] wraps at: a
    narrow [int<N>]'s N. *)
let store_width : Htype.t option -> int option = function
  | (Some (Htype.Int w) | Some (Htype.Ref (Htype.Int w))) when w < 64 -> Some w
  | _ -> None

(** Sign-extended wrap-around at [width]. *)
let wrap width v =
  if width >= 64 then v
  else
    let shift = 64 - width in
    Int64.shift_right (Int64.shift_left v shift) shift

(** [apply op width a b], wrapped at [width].  Raises [Division_by_zero]
    for [A_div]/[A_mod] by zero; callers decide what that means. *)
let apply op width a b =
  wrap width
    (match op with
    | A_add -> Int64.add a b
    | A_sub -> Int64.sub a b
    | A_mul -> Int64.mul a b
    | A_div -> Int64.div a b
    | A_mod -> Int64.rem a b
    | A_shl -> Int64.shift_left a (Int64.to_int b land 63)
    | A_shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | A_and -> Int64.logand a b
    | A_or -> Int64.logor a b
    | A_xor -> Int64.logxor a b
    | A_min -> if Int64.compare a b <= 0 then a else b
    | A_max -> if Int64.compare a b >= 0 then a else b)

let neg width a = wrap width (Int64.neg a)

let abs width a = wrap width (Int64.abs a)
