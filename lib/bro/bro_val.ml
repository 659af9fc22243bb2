(** Runtime values of the Mini-Bro interpreter — the Val hierarchy of §5
    "Bro Interface" — plus the bidirectional conversion to HILTI values
    that the compiled-script engine needs.  Those conversions are exactly
    the "HILTI-to-Bro glue code" whose cost Figures 9/10 report, so they
    run under a dedicated profiler. *)

open Hilti_types

exception Bro_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Bro_error s)) fmt

(* The first index of [name] in [names] from [i] on, or -1.  No local
   closure: field access runs it on every [$f]. *)
let rec name_index_from names name i =
  if i >= Array.length names then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else name_index_from names name (i + 1)

let name_index names name = name_index_from names name 0

(* The value type, its key hash and equality ({!Key}), and the tables
   keyed by values ({!Keytbl}) refer to each other. *)
module rec V : sig
  type t =
    | Vbool of bool
    | Vcount of int64
    | Vint of int64
    | Vdouble of float
    | Vstring of string
    | Vaddr of Addr.t
    | Vport of Port.t
    | Vsubnet of Network.t
    | Vtime of Time_ns.t
    | Vinterval of Interval_ns.t
    | Vpattern of string * Hilti_rt.Regexp.t
    | Vset of unit Keytbl.t
    | Vtable of table
    | Vvector of t Hilti_vm.Deque.t
    | Vrecord of record
    | Vvoid

  and table = { entries : t Keytbl.t; mutable default : t option }

  and record = {
    rtype : string;
    mutable rnames : string array;
    mutable rvals : t array;
  }
  (** A record is its field names and, index for index, their values.
      Scripts declare a handful of fields per record, so a linear scan
      beats a hash table, and construction is one small value array.
      [rnames] is shared — every record a literal builds shares its
      site's array, and {!Events.connection_val} a static one — so it is
      never written in place: adding a field replaces both arrays.  Of
      two fields with one name, the first wins.  All renderings sort by
      field name, so the order never leaks. *)
end =
  V

(** Set and table keys: a key is the {!V.t} itself.  A composite key
    [t[a, b]] is the [Vvector] of its elements.  Keys are tag-sensitive
    ([Vcount 1] and [Vint 1] differ), doubles compare by value with
    [-0.0] keyed as [0.0] and all NaNs as one key, records compare field
    by name in any order (their type name aside), and composites element
    by element.  Patterns, sets, tables, void and vectors below the top
    level are no keys: hashing one raises [Bro_error].  Hashing allocates
    nothing. *)
and Key : sig
  type t = V.t

  val equal : t -> t -> bool
  val hash : t -> int
  val to_debug : t -> string
end = struct
  open V

  type t = V.t

  let to_debug = function
    | Vbool _ -> "bool"
    | Vcount _ -> "count"
    | Vint _ -> "int"
    | Vdouble _ -> "double"
    | Vstring _ -> "string"
    | Vaddr _ -> "addr"
    | Vport _ -> "port"
    | Vsubnet _ -> "subnet"
    | Vtime _ -> "time"
    | Vinterval _ -> "interval"
    | Vpattern _ -> "pattern"
    | Vset _ -> "set"
    | Vtable _ -> "table"
    | Vvector _ -> "vector"
    | Vrecord r -> "record " ^ r.rtype
    | Vvoid -> "void"

  (* One multiplicative step; folding the high bits down lets the
     table's low-bit bucket index see every input bit. *)
  let mix h x =
    let h = (h lxor x) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

  (* Inlined, so an unboxed [x] is never boxed for the call. *)
  let[@inline] mix64 h x =
    mix (mix h (Int64.to_int x)) (Int64.to_int (Int64.shift_right_logical x 32))

  let mix_addr h (a : Addr.t) = mix64 (mix64 h a.Addr.hi) a.Addr.lo

  let rec hash_elem = function
    | Vbool b -> mix 1 (Bool.to_int b)
    | Vcount c -> mix64 2 c
    | Vint i -> mix64 3 i
    | Vdouble d ->
        if Float.is_nan d then mix 4 0
        else mix64 4 (Int64.bits_of_float (d +. 0.0))
    | Vstring s -> mix 5 (Hashtbl.hash s)
    | Vaddr a -> mix_addr 6 a
    | Vport p ->
        mix (mix 7 (Port.number p))
          (match Port.proto p with Port.TCP -> 0 | UDP -> 1 | ICMP -> 2)
    | Vsubnet n -> mix (mix_addr 8 (Network.prefix n)) (Network.length n)
    | Vtime t -> mix64 9 (Time_ns.to_ns t)
    | Vinterval i -> mix64 10 (Interval_ns.to_ns i)
    | Vrecord r ->
        (* A sum, so field order does not matter; a later field of a
           repeated name is checked but not counted. *)
        let names = r.rnames and vals = r.rvals in
        let h = ref 11 in
        for i = 0 to Array.length names - 1 do
          let v = hash_elem (Array.unsafe_get vals i) in
          let name = Array.unsafe_get names i in
          if name_index names name = i then h := !h + mix (Hashtbl.hash name) v
        done;
        mix 11 !h
    | v -> error "value not usable as key: %s" (to_debug v)

  let rec hash_nodes h = function
    | None -> h
    | Some node -> hash_nodes (mix h (hash_elem node.Hilti_vm.Deque.value)) node.next

  let hash = function
    | Vvector d -> hash_nodes 12 d.Hilti_vm.Deque.front
    | v -> hash_elem v

  (* Every name of [x] is in [y], with an equal first value. *)
  let rec fields_in x y =
    let rec go i =
      i < 0
      || (let name = x.rnames.(i) in
          let j = name_index y.rnames name in
          j >= 0 && equal x.rvals.(name_index x.rnames name) y.rvals.(j))
         && go (i - 1)
    in
    go (Array.length x.rnames - 1)

  and equal a b =
    match (a, b) with
    | Vbool x, Vbool y -> Bool.equal x y
    | Vcount x, Vcount y | Vint x, Vint y -> Int64.equal x y
    | Vdouble x, Vdouble y -> Float.equal x y
    | Vstring x, Vstring y -> String.equal x y
    | Vaddr x, Vaddr y -> Addr.equal x y
    | Vport x, Vport y -> Port.equal x y
    | Vsubnet x, Vsubnet y -> Network.equal x y
    | Vtime x, Vtime y -> Time_ns.equal x y
    | Vinterval x, Vinterval y -> Interval_ns.equal x y
    | Vrecord x, Vrecord y ->
        Array.length x.rnames = Array.length y.rnames
        && fields_in x y && fields_in y x
    | Vvector x, Vvector y ->
        Hilti_vm.Deque.size x = Hilti_vm.Deque.size y && nodes_equal x.front y.front
    | _ -> false

  and nodes_equal a b =
    match (a, b) with
    | Some x, Some y ->
        equal x.Hilti_vm.Deque.value y.Hilti_vm.Deque.value && nodes_equal x.next y.next
    | _ -> true
end

(** Tables keyed by {!Key}: the containers of [Vset] and [Vtable]. *)
and Keytbl : (Hashtbl.S with type key = V.t) = Hashtbl.Make (Key)

include V

let to_debug = Key.to_debug

(** Index of the first field [name] in [r], or -1. *)
let record_index r name = name_index r.rnames name

(* ---- Canonical key strings ---------------------------------------------------- *)

(** A key's canonical text.  It survives only to order the interpreter's
    [for] loops, which visit keys sorted by it; containers hash and
    compare keys structurally ({!Key}). *)
let rec key_string = function
  | Vbool b -> if b then "T" else "F"
  | Vcount c -> "c" ^ Digits.int64_to_string c
  | Vint i -> "i" ^ Digits.int64_to_string i
  | Vdouble d -> "d" ^ string_of_float d
  | Vstring s -> "s" ^ s
  | Vaddr a -> "a" ^ Addr.to_string a
  | Vport p -> "p" ^ Port.to_string p
  | Vsubnet n -> "n" ^ Network.to_string n
  | Vtime t -> "t" ^ Digits.int64_to_string (Time_ns.to_ns t)
  | Vinterval i -> "v" ^ Digits.int64_to_string (Interval_ns.to_ns i)
  | Vrecord r ->
      (* records as keys: field-sorted canonical form *)
      let fields = ref [] in
      Array.iteri (fun i k -> fields := (k, key_string r.rvals.(i)) :: !fields) r.rnames;
      let fields = List.sort compare !fields in
      "r{" ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) fields) ^ "}"
  | Vvector d ->
      (* A composite key orders element by element: each element's text
         has NUL escaped to "\000\001" and ends in "\000\000", so the
         first differing element decides and a prefix sorts first. *)
      let b = Buffer.create 32 in
      Buffer.add_char b 'V';
      Hilti_vm.Deque.iter
        (fun e ->
          String.iter
            (fun c -> if c = '\000' then Buffer.add_string b "\000\001" else Buffer.add_char b c)
            (key_string e);
          Buffer.add_string b "\000\000")
        d;
      Buffer.contents b
  | v -> error "value not usable as key: %s" (to_debug v)

(* ---- Rendering (print and log output, Bro formatting) -------------------------- *)

let rec to_string = function
  | Vbool b -> if b then "T" else "F"
  | Vcount c | Vint c -> Digits.int64_to_string c
  | Vdouble d -> Printf.sprintf "%g" d
  | Vstring s -> s
  | Vaddr a -> Addr.to_string a
  | Vport p -> Port.to_string p
  | Vsubnet n -> Network.to_string n
  | Vtime t -> Time_ns.to_string t
  | Vinterval i -> Interval_ns.to_string i
  | Vpattern (src, _) -> "/" ^ src ^ "/"
  | Vset s ->
      let elems = Keytbl.fold (fun k () acc -> to_string k :: acc) s [] in
      "{" ^ String.concat "," (List.sort compare elems) ^ "}"
  | Vtable t ->
      let elems =
        Keytbl.fold (fun k v acc -> (to_string k ^ "->" ^ to_string v) :: acc) t.entries []
      in
      "{" ^ String.concat "," (List.sort compare elems) ^ "}"
  | Vvector v ->
      "[" ^ String.concat "," (List.map to_string (Hilti_vm.Deque.to_list v)) ^ "]"
  | Vrecord r ->
      let fields = Array.mapi (fun i k -> k ^ "=" ^ to_string r.rvals.(i)) r.rnames in
      "[" ^ String.concat "," (List.sort compare (Array.to_list fields)) ^ "]"
  | Vvoid -> "<void>"

(** Append [to_string v] to [b]; scalars render in place. *)
let add_rendered b = function
  | Vbool x -> Buffer.add_char b (if x then 'T' else 'F')
  | Vcount c | Vint c -> Digits.add_int64 b c
  | Vstring s -> Buffer.add_string b s
  | Vaddr a -> Addr.add_to_buffer b a
  | Vport p -> Port.add_to_buffer b p
  | Vtime t -> Time_ns.add_to_buffer b t
  | Vinterval i -> Interval_ns.add_to_buffer b i
  | v -> Buffer.add_string b (to_string v)

(** Append [v] as a log field ({!Bro_log.add_field} escaping); [Vvoid]
    appends nothing, so its column logs "-". *)
let add_log_field b = function
  | Vvoid -> ()
  | Vstring s -> Bro_log.add_field b s
  | (Vset _ | Vtable _ | Vvector _ | Vrecord _ | Vpattern _) as v ->
      Bro_log.add_field b (to_string v)
  | v -> add_rendered b v

let rec equal a b =
  match (a, b) with
  | Vbool x, Vbool y -> x = y
  | Vcount x, Vcount y | Vint x, Vint y -> Int64.equal x y
  | (Vcount x | Vint x), (Vcount y | Vint y) -> Int64.equal x y
  | Vdouble x, Vdouble y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vaddr x, Vaddr y -> Addr.equal x y
  | Vport x, Vport y -> Port.equal x y
  | Vsubnet x, Vsubnet y -> Network.equal x y
  | Vtime x, Vtime y -> Time_ns.equal x y
  | Vinterval x, Vinterval y -> Interval_ns.equal x y
  | Vrecord x, Vrecord y ->
      x.rtype = y.rtype
      && Array.length x.rnames = Array.length y.rnames
      &&
      let rec go i =
        i < 0
        || (match record_index y x.rnames.(i) with
           | -1 -> false
           | j -> equal x.rvals.(i) y.rvals.(j))
           && go (i - 1)
      in
      go (Array.length x.rnames - 1)
  | _ -> false

let rec deep_copy = function
  | Vset s -> Vset (Keytbl.copy s)
  | Vtable t -> Vtable { entries = Keytbl.copy t.entries; default = t.default }
  | Vvector v -> Vvector (Hilti_vm.Deque.of_list (List.map deep_copy (Hilti_vm.Deque.to_list v)))
  | Vrecord r -> Vrecord { r with rvals = Array.map deep_copy r.rvals }
  | v -> v

(** [k] as a container stores it: records are copied, so a later
    [$f = ...] on the script's value cannot move the stored key. *)
let stored_key k = match k with Vrecord _ | Vvector _ -> deep_copy k | k -> k

(** [k] as the key of [k in s]: a vector is no key of its own. *)
let single_key = function
  | Vvector _ as v -> error "value not usable as key: %s" (to_debug v)
  | k -> k

(** The key that the index list [ks] of [t[ks]] denotes: the value itself
    for one index, the [Vvector] of the indices for several. *)
let index_key = function [ k ] -> single_key k | ks -> Vvector (Hilti_vm.Deque.of_list ks)

(* ---- Record helpers --------------------------------------------------------------- *)

let new_record rtype fields =
  Vrecord
    {
      rtype;
      rnames = Array.of_list (List.map fst fields);
      rvals = Array.of_list (List.map snd fields);
    }

(** Set field [name] of [r] to [v], adding the field if [r] lacks it. *)
let record_set r name v =
  match record_index r name with
  | -1 ->
      r.rnames <- Array.append r.rnames [| name |];
      r.rvals <- Array.append r.rvals [| v |]
  | i -> r.rvals.(i) <- v

(* ---- HILTI conversion: the Bro<->HILTI glue (§5, §6.4) ----------------------------- *)

let glue_profiler = Hilti_rt.Profiler.create "bro/glue"

module Hval = Hilti_vm.Value

exception Misfit

(* A struct of [layout] holding [r]'s fields: the value for slot [i]
   converted by [conv i], a [Vvoid] left unset.  Each field's slot is
   found by name once; a field [layout] lacks raises [Misfit].  Walking the
   fields last to first lets the first of duplicate names win, as in
   {!record_index}. *)
let hilti_struct layout conv r =
  let s = Hval.new_struct layout in
  let names = r.rnames and vals = r.rvals in
  for j = Array.length names - 1 downto 0 do
    let i = Hval.field_index layout (Array.unsafe_get names j) in
    if i < 0 then raise_notrace Misfit;
    s.Hval.slots.(i) <- (match Array.unsafe_get vals j with Vvoid -> Hval.unset | v -> conv i v)
  done;
  Hval.Struct s

(* A struct of [r]'s own layout: its sorted field names, which only the
   host can read. *)
let own_struct conv r =
  let names = List.sort compare (Array.to_list r.rnames) in
  hilti_struct (Hval.make_layout r.rtype names) conv r

(** Convert a Bro value to its HILTI representation by the value's own
    shape: the [T_any] {!converter}, the one definition of the conversion.
    Bro strings become frozen HILTI bytes (as in the real plugin, where
    script strings carry raw payload data).  Records become structs of the
    layout [layout_of] gives their record type — compiled code can only
    read a struct built with its program's layout; without one (or when
    the record carries a field the layout lacks) the struct gets its own
    layout. *)
let rec to_hilti_raw ~layout_of (v : t) : Hval.t =
  match v with
  | Vbool b -> Hval.Bool b
  | Vcount c | Vint c -> Hval.Int c
  | Vdouble d -> Hval.Double d
  | Vstring s -> Hval.Bytes (Hbytes.frozen_of_string s)
  | Vaddr a -> Hval.Addr a
  | Vport p -> Hval.Port p
  | Vsubnet n -> Hval.Net n
  | Vtime t -> Hval.Time t
  | Vinterval i -> Hval.Interval i
  | Vpattern (_, re) -> Hval.Regexp re
  | Vset s ->
      let conv = to_hilti_raw ~layout_of in
      let out = Hilti_rt.Exp_map.create () in
      Keytbl.iter
        (fun elem () ->
          let h = conv elem in
          Hilti_rt.Exp_map.insert out (Hval.key_string h) h)
        s;
      Hval.Set out
  | Vtable t ->
      let conv = to_hilti_raw ~layout_of in
      let out = Hilti_rt.Exp_map.create () in
      Keytbl.iter
        (fun k value ->
          let hk = conv k in
          Hilti_rt.Exp_map.insert out (Hval.key_string hk) (hk, conv value))
        t.entries;
      (match t.default with
      | Some d ->
          let hd = conv d in
          Hilti_rt.Exp_map.set_default out (fun _ -> (Hval.Null, Hval.deep_copy hd))
      | None -> ());
      Hval.Map out
  | Vvector dv ->
      let conv = to_hilti_raw ~layout_of in
      let d = Hilti_vm.Deque.create () in
      Hilti_vm.Deque.iter (fun x -> Hilti_vm.Deque.push_back d (conv x)) dv;
      Hval.List d
  | Vrecord r -> (
      let conv _ x = to_hilti_raw ~layout_of x in
      match layout_of r.rtype with
      | Some l -> ( try hilti_struct l conv r with Misfit -> own_struct conv r)
      | None -> own_struct conv r)
  | Vvoid -> Hval.Null

(** The converter for values declared [ty].  Only records gain from
    knowing their type: for [T_record n] the program's layout ([layout_of])
    and one converter per slot (from the declaration [record_fields]
    returns) are resolved when the converter is built, and each value's
    fields are matched to slots by name, one lookup per field.  Every
    other type, and every value whose shape differs from [ty] — a record
    of another type, or one carrying a field the layout lacks — takes the
    [T_any] converter {!to_hilti_raw}, so every converter agrees with it
    on every input. *)
let converter ~layout_of ~record_fields (ty : Bro_ast.btype) : t -> Hval.t =
  let any v = to_hilti_raw ~layout_of v in
  let records = Hashtbl.create 8 in
  let rec conv : Bro_ast.btype -> t -> Hval.t = function
    | T_record n -> record n
    | _ -> any
  and record n =
    match Hashtbl.find_opt records n with
    | Some c -> c
    | None -> (
        match (layout_of n, record_fields n) with
        | Some layout, Some fields ->
            (* Registered before its fields' converters are built, so a
               record type reaching itself resolves. *)
            let convs = Array.make (Array.length layout.Hval.lfields) any in
            let slot_conv i x = (Array.unsafe_get convs i) x in
            let c = function
              | Vrecord r as v when String.equal r.rtype n -> (
                  try hilti_struct layout slot_conv r with Misfit -> any v)
              | v -> any v
            in
            Hashtbl.replace records n c;
            Array.iteri
              (fun i f ->
                Option.iter (fun ft -> convs.(i) <- conv ft) (List.assoc_opt f fields))
              layout.Hval.lfields;
            c
        | _ -> any)
  in
  conv ty

(** Convert a HILTI value back to a Bro value (for event arguments coming
    out of BinPAC++ parsers and for reading compiled-script state). *)
let rec of_hilti_raw (v : Hilti_vm.Value.t) : t =
  let module V = Hilti_vm.Value in
  match v with
  | V.Bool b -> Vbool b
  | V.Int i -> Vcount i
  | V.Double d -> Vdouble d
  | V.String s -> Vstring s
  | V.Bytes b -> Vstring (Hbytes.to_string b)
  | V.Addr a -> Vaddr a
  | V.Port p -> Vport p
  | V.Net n -> Vsubnet n
  | V.Time t -> Vtime t
  | V.Interval i -> Vinterval i
  | V.Regexp re ->
      Vpattern (String.concat "|" (Hilti_rt.Regexp.patterns re), re)
  | V.Set s ->
      let out = Keytbl.create 16 in
      Hilti_rt.Exp_map.iter (fun _ elem -> Keytbl.replace out (of_hilti_raw elem) ()) s;
      Vset out
  | V.Map m ->
      let out = Keytbl.create 16 in
      Hilti_rt.Exp_map.iter
        (fun _ (k, value) -> Keytbl.replace out (of_hilti_raw k) (of_hilti_raw value))
        m;
      Vtable { entries = out; default = None }
  | V.List d -> Vvector (Hilti_vm.Deque.of_list (List.map of_hilti_raw (Hilti_vm.Deque.to_list d)))
  | V.Tuple vs ->
      Vvector (Hilti_vm.Deque.of_list (List.map of_hilti_raw (Array.to_list vs)))
  | V.Struct s ->
      let rtype = s.V.layout.V.lname and slots = s.V.slots in
      if Array.for_all (fun v -> v != V.unset) slots then
        (* Every field set: the layout's names are the record's. *)
        Vrecord { rtype; rnames = s.V.layout.V.lfields; rvals = Array.map of_hilti_raw slots }
      else
        let fields = V.struct_fields s in
        Vrecord
          {
            rtype;
            rnames = Array.of_list (List.map fst fields);
            rvals = Array.of_list (List.map (fun (_, v) -> of_hilti_raw v) fields);
          }
  | V.Null -> Vvoid
  | other -> error "cannot convert HILTI value %s" (V.to_string other)
