(** The HILTI type algebra (§3.2 "Rich Data Types").

    Types are structural except for the named kinds (structs, enums,
    bitsets, overlays, exceptions), which reference declarations held by the
    enclosing module and are resolved by name at validation/lowering time.
    [Any] appears only in instruction signatures, standing for operands that
    are polymorphic in the instruction table. *)

type t =
  | Void
  | Any                     (** signature wildcard, not a value type *)
  | Bool
  | Int of int              (** [int<N>], 1 <= N <= 64 *)
  | Double
  | String                  (** Unicode text *)
  | Bytes                   (** raw bytes *)
  | Addr
  | Port
  | Net
  | Time
  | Interval
  | Tuple of t list
  | Bitset of string        (** named bitset declaration *)
  | Enum of string          (** named enum declaration *)
  | Struct of string        (** named struct declaration *)
  | Overlay of string       (** named overlay declaration *)
  | Exception
  | Ref of t                (** reference to a heap-allocated instance *)
  | List of t
  | Vector of t
  | Set of t
  | Map of t * t
  | Iter of t               (** iterator over bytes or a container *)
  | Channel of t
  | Classifier of t * t     (** rule struct type, result type *)
  | Regexp
  | Match_state             (** incremental regexp matching state *)
  | Timer
  | Timer_mgr
  | File
  | Iosrc
  | Callable of t list * t  (** bound function: argument types, result *)
  | Caddr                   (** address of a host (C-level) function *)

let rec to_string = function
  | Void -> "void"
  | Any -> "any"
  | Bool -> "bool"
  | Int n -> Printf.sprintf "int<%d>" n
  | Double -> "double"
  | String -> "string"
  | Bytes -> "bytes"
  | Addr -> "addr"
  | Port -> "port"
  | Net -> "net"
  | Time -> "time"
  | Interval -> "interval"
  | Tuple ts -> "tuple<" ^ String.concat ", " (List.map to_string ts) ^ ">"
  | Bitset n -> n
  | Enum n -> n
  | Struct n -> n
  | Overlay n -> n
  | Exception -> "exception"
  | Ref t -> "ref<" ^ to_string t ^ ">"
  | List t -> "list<" ^ to_string t ^ ">"
  | Vector t -> "vector<" ^ to_string t ^ ">"
  | Set t -> "set<" ^ to_string t ^ ">"
  | Map (k, v) -> "map<" ^ to_string k ^ ", " ^ to_string v ^ ">"
  | Iter t -> "iterator<" ^ to_string t ^ ">"
  | Channel t -> "channel<" ^ to_string t ^ ">"
  | Classifier (r, v) -> "classifier<" ^ to_string r ^ ", " ^ to_string v ^ ">"
  | Regexp -> "regexp"
  | Match_state -> "match_state"
  | Timer -> "timer"
  | Timer_mgr -> "timer_mgr"
  | File -> "file"
  | Iosrc -> "iosrc"
  | Callable (args, r) ->
      "callable<" ^ String.concat ", " (List.map to_string (r :: args)) ^ ">"
  | Caddr -> "caddr"

(** Strip one level of reference: many instructions accept either a
    container or a reference to one. *)
let deref = function Ref t -> t | t -> t

(** Structural equality with [Any] acting as a wildcard on either side
    (used when checking operands against instruction signatures). *)
let rec compatible a b =
  match (a, b) with
  | Any, _ | _, Any -> true
  | Ref x, Ref y -> compatible x y
  | Tuple xs, Tuple ys ->
      List.length xs = List.length ys && List.for_all2 compatible xs ys
  | List x, List y | Vector x, Vector y | Set x, Set y | Iter x, Iter y
  | Channel x, Channel y ->
      compatible x y
  | Map (k1, v1), Map (k2, v2) -> compatible k1 k2 && compatible v1 v2
  | Classifier (r1, v1), Classifier (r2, v2) -> compatible r1 r2 && compatible v1 v2
  | Callable (a1, r1), Callable (a2, r2) ->
      List.length a1 = List.length a2
      && List.for_all2 compatible a1 a2 && compatible r1 r2
  | Int _, Int _ -> true  (* widths coerce; ops mask to the target width *)
  | x, y -> x = y

let equal (a : t) (b : t) = a = b

(** Is this a value type (copied on assignment) as opposed to a heap
    type always manipulated through references? *)
let rec is_value_type = function
  | Void | Any -> false
  | Bool | Int _ | Double | String | Addr | Port | Net | Time | Interval
  | Bitset _ | Enum _ | Caddr ->
      true
  | Tuple ts -> List.for_all is_value_type ts
  | Iter _ -> true
  | Bytes | Struct _ | Overlay _ | Exception | Ref _ | List _ | Vector _
  | Set _ | Map _ | Channel _ | Classifier _ | Regexp | Match_state | Timer
  | Timer_mgr | File | Iosrc | Callable _ ->
      false

(** Valid key type for sets/maps/classifier fields: hashable values. *)
let rec is_hashable = function
  | Bool | Int _ | Double | String | Bytes | Addr | Port | Net | Time
  | Interval | Bitset _ | Enum _ ->
      true
  | Tuple ts -> List.for_all is_hashable ts
  | _ -> false
