(** Runtime values of the HILTI execution environment.

    Heap kinds (bytes, structs, containers, ...) have reference semantics:
    the OCaml value is the reference, and the garbage collector plays the
    role of HILTI's reference counting (§5 "Runtime Model").  Value kinds
    (ints, addresses, tuples, ...) are immutable.

    Map and set keys are canonicalized through {!key_string}, giving the
    hash-of-value semantics HILTI requires for its containers.  Keys are
    binary and self-delimiting (a type tag, then fixed-width or
    length-prefixed fields), and two values share a key exactly when they
    are {!equal}. *)

open Hilti_types

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Double of float
  | String of string
  | Bytes of Hbytes.t
  | Addr of Addr.t
  | Port of Port.t
  | Net of Network.t
  | Time of Time_ns.t
  | Interval of Interval_ns.t
  | Enum of string * int * bool     (** type name, value, undef? *)
  | Bitset of string * int64        (** type name, bits *)
  | Tuple of t array
  | Struct of strukt
  | List of t Deque.t
  | Vector of t Dynarray.t
  | Set of t Hilti_rt.Exp_map.t                      (** key string -> element *)
  | Map of (t * t) Hilti_rt.Exp_map.t                (** key string -> (key, value) *)
  | Iter of iter
  | Channel of t Hilti_rt.Channel.t
  | Classifier of classifier
  | Regexp of Hilti_rt.Regexp.t
  | Match_state of Hilti_rt.Regexp.matcher
  | Timer of Hilti_rt.Timer.t
  | Timer_mgr of Hilti_rt.Timer_mgr.t
  | Exception of exn_value
  | Callable of callable
  | File of Hilti_rt.Hfile.t
  | Iosrc of Hilti_rt.Iosrc.t
  | Caddr of string                  (** name of a registered host function *)

and strukt = { layout : layout; slots : t array }
(** A struct instance: its type's layout and one slot per declared field,
    holding {!unset} while the field is unset. *)

and layout = { lname : string; lfields : string array }
(** The field layout of one declared struct type, shared by every instance
    of the type.  {!Lower} makes exactly one per declared type, so VM slot
    accesses check a struct's type with one physical-equality test on its
    layout. *)

and iter =
  | Ibytes of Hbytes.iter
  | Isnapshot of t list ref          (** remaining elements of a container walk *)
  | Ivector of t Dynarray.t * int

and classifier = {
  cls : (t Hilti_rt.Classifier.t[@warning "-69"]);
  mutable key_types : Htype.t list;  (** field types, fixed at first add *)
}

and exn_value = { ename : string; earg : t }

and callable = { description : string; invoke : unit -> t }

(* ---- HILTI exceptions ----------------------------------------------------- *)

exception Hilti_error of exn_value
(** The VM-level exception: propagates until a [try.push] handler or the
    host boundary. *)

let hilti_exception name arg = Hilti_error { ename = name; earg = arg }

(* Runtime safety checks that actually fired — the dynamic counterpart of
   the verifier's [static_discharged] count: every exception constructed
   here is a check the verifier could not (or does not try to) discharge
   statically.  Only the raise path pays for the counter. *)
let m_dynamic_hit =
  Hilti_obs.Metrics.counter "vm_safety_checks"
    ~label:("mode", "dynamic_hit")
    ~help:"Runtime safety checks that fired (raised a HILTI exception)"

let safety_failure name arg =
  Hilti_obs.Metrics.incr m_dynamic_hit;
  hilti_exception name arg

let index_error () = safety_failure "Hilti::IndexError" Null
let value_error msg = safety_failure "Hilti::ValueError" (String msg)
let division_by_zero () = safety_failure "Hilti::DivisionByZero" Null
let underflow () = safety_failure "Hilti::Underflow" Null
let unset_field f = safety_failure "Hilti::UnsetField" (String f)
let exhausted () = safety_failure "Hilti::Exhausted" Null
let type_error msg = safety_failure "Hilti::TypeError" (String msg)
let would_block () = hilti_exception "Hilti::WouldBlock" Null

(* ---- Structs ------------------------------------------------------------------ *)

(* The unset-slot marker: a physically unique value, only ever compared
   with [==] and never handed out by the accessors below. *)
let unset : t = Exception { ename = "Hilti::Unset"; earg = Null }

let make_layout lname fields = { lname; lfields = Array.of_list fields }

let new_struct layout =
  { layout; slots = Array.make (Array.length layout.lfields) unset }

(* Index of [name] in [fs] from [i] on, or -1; closure-free, so a lookup
   allocates nothing. *)
let rec find_field fs name i =
  if i >= Array.length fs then -1
  else if String.equal (Array.unsafe_get fs i) name then i
  else find_field fs name (i + 1)

(** Slot of field [name] in [layout], or -1 when the type does not declare it. *)
let field_index layout name = find_field layout.lfields name 0

(** The set fields of [s] in declaration order. *)
let struct_fields s =
  let acc = ref [] in
  for i = Array.length s.slots - 1 downto 0 do
    let v = s.slots.(i) in
    if v != unset then acc := (s.layout.lfields.(i), v) :: !acc
  done;
  !acc

(** Host-side read of field [name]: [None] when [v] is not a struct, its
    type does not declare [name], or the field is unset.  The one by-name
    struct access; a host probe is not a VM safety check, so nothing is
    counted. *)
let field v name =
  match v with
  | Struct s ->
      let i = field_index s.layout name in
      if i < 0 then None
      else
        let x = s.slots.(i) in
        if x == unset then None else Some x
  | _ -> None

(** Host-side write of field [name]; raises [Invalid_argument] when the
    struct's type does not declare it. *)
let set_field s name v =
  let i = field_index s.layout name in
  if i < 0 then invalid_arg ("Value.set_field: " ^ s.layout.lname ^ " has no field " ^ name);
  s.slots.(i) <- v

(* ---- Printing --------------------------------------------------------------- *)

let rec to_string = function
  | Null -> "Null"
  | Bool b -> if b then "True" else "False"
  | Int i -> Int64.to_string i
  | Double d -> Printf.sprintf "%g" d
  | String s -> s
  | Bytes b -> Hbytes.to_string b
  | Addr a -> Addr.to_string a
  | Port p -> Port.to_string p
  | Net n -> Network.to_string n
  | Time t -> Time_ns.to_string t
  | Interval i -> Interval_ns.to_string i
  | Enum (n, v, undef) ->
      if undef then n ^ "::Undef" else Printf.sprintf "%s(%d)" n v
  | Bitset (n, bits) -> Printf.sprintf "%s(0x%Lx)" n bits
  | Tuple vs ->
      "(" ^ String.concat ", " (Array.to_list (Array.map to_string vs)) ^ ")"
  | Struct s ->
      let fields =
        List.map (fun (n, v) -> Printf.sprintf "%s=%s" n (to_string v)) (struct_fields s)
      in
      Printf.sprintf "%s{%s}" s.layout.lname (String.concat ", " fields)
  | List d -> "[" ^ String.concat ", " (List.map to_string (Deque.to_list d)) ^ "]"
  | Vector v ->
      "vector("
      ^ String.concat ", " (List.map to_string (Dynarray.to_list v))
      ^ ")"
  | Set s ->
      let elems = Hilti_rt.Exp_map.fold (fun _ v acc -> to_string v :: acc) s [] in
      "{" ^ String.concat ", " (List.sort compare elems) ^ "}"
  | Map m ->
      let elems =
        Hilti_rt.Exp_map.fold
          (fun _ (k, v) acc -> Printf.sprintf "%s: %s" (to_string k) (to_string v) :: acc)
          m []
      in
      "{" ^ String.concat ", " (List.sort compare elems) ^ "}"
  | Iter _ -> "<iterator>"
  | Channel c -> Printf.sprintf "<channel:%d>" (Hilti_rt.Channel.size c)
  | Classifier _ -> "<classifier>"
  | Regexp re ->
      "/" ^ String.concat "|" (Hilti_rt.Regexp.patterns re) ^ "/"
  | Match_state _ -> "<match_state>"
  | Timer _ -> "<timer>"
  | Timer_mgr m ->
      Printf.sprintf "<timer_mgr@%s>" (Time_ns.to_string (Hilti_rt.Timer_mgr.current m))
  | Exception e -> Printf.sprintf "%s(%s)" e.ename (to_string e.earg)
  | Callable c -> Printf.sprintf "<callable:%s>" c.description
  | File f -> Printf.sprintf "<file:%s>" (Hilti_rt.Hfile.path f)
  | Iosrc s -> Printf.sprintf "<iosrc:%s>" (Hilti_rt.Iosrc.kind s)
  | Caddr n -> Printf.sprintf "<caddr:%s>" n

(* ---- Canonical keys for hashing ------------------------------------------------ *)

exception Not_hashable of string

(* Keys are binary.  Each starts with a one-byte tag; fixed-width fields
   follow big-endian, and strings, bytes and type names carry a varint
   length, so every key is self-delimiting and a tuple is its arity
   followed by its elements' keys.  [key_size] sizes a key and [put_key]
   writes it, so a key costs exactly one string allocation. *)

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let rec put_varint b off n =
  if n < 0x80 then begin
    Bytes.unsafe_set b off (Char.unsafe_chr n);
    off + 1
  end
  else begin
    Bytes.unsafe_set b off (Char.unsafe_chr (n land 0x7f lor 0x80));
    put_varint b (off + 1) (n lsr 7)
  end

let put_tag b off c =
  Bytes.unsafe_set b off c;
  off + 1

let put_int64 b off tag i =
  Bytes.unsafe_set b off tag;
  Bytes.set_int64_be b (off + 1) i;
  off + 9

let put_string b off tag s =
  let n = String.length s in
  let off = put_varint b (put_tag b off tag) n in
  Bytes.blit_string s 0 b off n;
  off + n

let sized_string_size s = varint_size (String.length s) + String.length s

(* [-0.0] is [equal] to [0.0], so both key as [0.0]; every NaN keys as the
   one canonical NaN. *)
let double_bits d =
  if d = 0.0 then 0L
  else if Float.is_nan d then Int64.bits_of_float Float.nan
  else Int64.bits_of_float d

let rec key_size v =
  match v with
  | Null -> 1
  | Bool _ -> 2
  | Int _ | Double _ | Time _ | Interval _ -> 9
  | String s -> 1 + sized_string_size s
  | Bytes b -> 1 + varint_size (Hbytes.length b) + Hbytes.length b
  | Addr _ -> 17
  | Port _ -> 4
  | Net _ -> 18
  | Enum (n, _, _) -> 1 + sized_string_size n + 9
  | Bitset (n, _) -> 1 + sized_string_size n + 8
  | Tuple vs ->
      let size = ref (1 + varint_size (Array.length vs)) in
      for i = 0 to Array.length vs - 1 do
        size := !size + key_size (Array.unsafe_get vs i)
      done;
      !size
  | _ -> raise (Not_hashable (to_string v))

(* The family picks the tag: [Addr.equal] tells an IPv4 address from its
   [::ffff:] IPv6 spelling, so their keys differ too. *)
let addr_tag a = if Addr.is_ipv4 a then 'a' else 'A'

let port_proto_byte p =
  match Port.proto p with Port.TCP -> '\000' | Port.UDP -> '\001' | Port.ICMP -> '\002'

let rec put_key b off v =
  match v with
  | Null -> put_tag b off '0'
  | Bool x -> put_tag b (put_tag b off 'b') (if x then '\001' else '\000')
  | Int i -> put_int64 b off 'i' i
  | Double d -> put_int64 b off 'd' (double_bits d)
  | Time t -> put_int64 b off 't' (Time_ns.to_ns t)
  | Interval i -> put_int64 b off 'v' (Interval_ns.to_ns i)
  | String s -> put_string b off 's' s
  | Bytes x ->
      let n = Hbytes.length x in
      let off = put_varint b (put_tag b off 'y') n in
      Hbytes.blit_to_bytes x b off;
      off + n
  | Addr a ->
      Addr.write_be b (put_tag b off (addr_tag a)) a;
      off + 17
  | Port p ->
      let off = put_tag b off 'p' in
      Bytes.set_uint16_be b off (Port.number p);
      put_tag b (off + 2) (port_proto_byte p)
  | Net n ->
      let a = Network.prefix n in
      Addr.write_be b (put_tag b off (if Addr.is_ipv4 a then 'n' else 'N')) a;
      Bytes.unsafe_set b (off + 17) (Char.unsafe_chr (Network.length n));
      off + 18
  | Enum (n, x, undef) ->
      let off = put_string b off 'e' n in
      Bytes.set_int64_be b off (Int64.of_int x);
      put_tag b (off + 8) (if undef then '\001' else '\000')
  | Bitset (n, bits) ->
      let off = put_string b off 'B' n in
      Bytes.set_int64_be b off bits;
      off + 8
  | Tuple vs ->
      let off = ref (put_varint b (put_tag b off '(') (Array.length vs)) in
      for i = 0 to Array.length vs - 1 do
        off := put_key b !off (Array.unsafe_get vs i)
      done;
      !off
  | _ -> raise (Not_hashable (to_string v))

(** Canonical binary key of a hashable value, used as map/set key.  For
    hashable values other than NaN, [key_string a = key_string b] exactly
    when [equal a b]; all NaNs share one key, although NaN is [equal] to
    nothing.  Raises [Not_hashable] on heap values. *)
let key_string v =
  let b = Bytes.create (key_size v) in
  ignore (put_key b 0 v : int);
  Bytes.unsafe_to_string b

(* ---- Equality -------------------------------------------------------------------- *)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> Int64.equal x y
  | Double x, Double y -> x = y
  | String x, String y -> String.equal x y
  | Bytes x, Bytes y -> Hbytes.to_string x = Hbytes.to_string y
  | Addr x, Addr y -> Addr.equal x y
  | Port x, Port y -> Port.equal x y
  | Net x, Net y -> Network.equal x y
  | Time x, Time y -> Time_ns.equal x y
  | Interval x, Interval y -> Interval_ns.equal x y
  | Enum (n1, v1, u1), Enum (n2, v2, u2) -> n1 = n2 && v1 = v2 && u1 = u2
  | Bitset (n1, b1), Bitset (n2, b2) -> n1 = n2 && Int64.equal b1 b2
  | Tuple x, Tuple y ->
      Array.length x = Array.length y
      &&
      let ok = ref true in
      Array.iteri (fun i xv -> if not (equal xv y.(i)) then ok := false) x;
      !ok
  | Iter (Ibytes x), Iter (Ibytes y) -> Hbytes.iter_equal x y
  (* Heap values compare by identity, as HILTI references do. *)
  | Struct x, Struct y -> x == y
  | List x, List y -> x == y
  | Vector x, Vector y -> x == y
  | Set x, Set y -> x == y
  | Map x, Map y -> x == y
  | Exception x, Exception y -> x.ename = y.ename && equal x.earg y.earg
  | Caddr x, Caddr y -> x = y
  | _ -> false

(* ---- Deep copy (message-passing isolation, §3.2) ------------------------------------ *)

(** Deep-copy a value so the receiver of a cross-thread message cannot see
    sender-side mutations. *)
let rec deep_copy v =
  match v with
  | Null | Bool _ | Int _ | Double _ | String _ | Addr _ | Port _ | Net _
  | Time _ | Interval _ | Enum _ | Bitset _ | Caddr _ ->
      v
  | Bytes b -> Bytes (Hbytes.of_string (Hbytes.to_string b))
  | Tuple vs -> Tuple (Array.map deep_copy vs)
  | Struct s ->
      Struct
        {
          s with
          slots = Array.map (fun x -> if x == unset then x else deep_copy x) s.slots;
        }
  | List d ->
      let d' = Deque.create () in
      List.iter (fun x -> Deque.push_back d' (deep_copy x)) (Deque.to_list d);
      List d'
  | Vector dv ->
      let dv' = Dynarray.create () in
      List.iter (fun x -> Dynarray.push dv' (deep_copy x)) (Dynarray.to_list dv);
      Vector dv'
  | Set s ->
      let s' = Hilti_rt.Exp_map.create () in
      Hilti_rt.Exp_map.iter (fun k v -> Hilti_rt.Exp_map.insert s' k (deep_copy v)) s;
      Set s'
  | Map m ->
      let m' = Hilti_rt.Exp_map.create () in
      Hilti_rt.Exp_map.iter
        (fun k (kv, vv) -> Hilti_rt.Exp_map.insert m' k (deep_copy kv, deep_copy vv))
        m;
      Map m'
  | Exception e -> Exception { e with earg = deep_copy e.earg }
  (* Runtime objects that cannot be meaningfully copied travel by
     reference; HILTI forbids sending them across threads. *)
  | Iter _ | Channel _ | Classifier _ | Regexp _ | Match_state _ | Timer _
  | Timer_mgr _ | Callable _ | File _ | Iosrc _ ->
      v

(* ---- Coercions with TypeError --------------------------------------------------------- *)

let as_bool = function Bool b -> b | v -> raise (type_error ("bool: " ^ to_string v))
let as_int = function Int i -> i | v -> raise (type_error ("int: " ^ to_string v))
let as_int_i = function Int i -> Int64.to_int i | v -> raise (type_error ("int: " ^ to_string v))
let as_double = function Double d -> d | Int i -> Int64.to_float i | v -> raise (type_error ("double: " ^ to_string v))
let as_string = function String s -> s | v -> raise (type_error ("string: " ^ to_string v))
let as_bytes = function Bytes b -> b | v -> raise (type_error ("bytes: " ^ to_string v))
let as_addr = function Addr a -> a | v -> raise (type_error ("addr: " ^ to_string v))
let as_port = function Port p -> p | v -> raise (type_error ("port: " ^ to_string v))
let as_net = function Net n -> n | v -> raise (type_error ("net: " ^ to_string v))
let as_time = function Time t -> t | v -> raise (type_error ("time: " ^ to_string v))
let as_interval = function Interval i -> i | v -> raise (type_error ("interval: " ^ to_string v))
let as_tuple = function Tuple t -> t | v -> raise (type_error ("tuple: " ^ to_string v))
let as_struct = function Struct s -> s | v -> raise (type_error ("struct: " ^ to_string v))
let as_list = function List d -> d | v -> raise (type_error ("list: " ^ to_string v))
let as_vector = function Vector d -> d | v -> raise (type_error ("vector: " ^ to_string v))
let as_set = function Set s -> s | v -> raise (type_error ("set: " ^ to_string v))
let as_map = function Map m -> m | v -> raise (type_error ("map: " ^ to_string v))
let as_iter = function Iter i -> i | v -> raise (type_error ("iterator: " ^ to_string v))

let as_bytes_iter = function
  | Iter (Ibytes it) -> it
  | v -> raise (type_error ("bytes iterator: " ^ to_string v))

let as_channel = function Channel c -> c | v -> raise (type_error ("channel: " ^ to_string v))
let as_classifier = function Classifier c -> c | v -> raise (type_error ("classifier: " ^ to_string v))
let as_regexp = function Regexp r -> r | v -> raise (type_error ("regexp: " ^ to_string v))
let as_timer = function Timer t -> t | v -> raise (type_error ("timer: " ^ to_string v))
let as_timer_mgr = function Timer_mgr m -> m | v -> raise (type_error ("timer_mgr: " ^ to_string v))
let as_exception = function Exception e -> e | v -> raise (type_error ("exception: " ^ to_string v))
let as_callable = function Callable c -> c | v -> raise (type_error ("callable: " ^ to_string v))
let as_file = function File f -> f | v -> raise (type_error ("file: " ^ to_string v))
let as_iosrc = function Iosrc s -> s | v -> raise (type_error ("iosrc: " ^ to_string v))
