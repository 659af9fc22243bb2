(** Runtime values of the Mini-Bro interpreter — the Val hierarchy of §5
    "Bro Interface" — plus the bidirectional conversion to HILTI values
    that the compiled-script engine needs.  Those conversions are exactly
    the "HILTI-to-Bro glue code" whose cost Figures 9/10 report, so they
    run under a dedicated profiler. *)

open Hilti_types

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
  | Vset of (string, t) Hashtbl.t          (** canonical key -> key value *)
  | Vtable of table
  | Vvector of t Hilti_vm.Deque.t
  | Vrecord of record
  | Vvoid

and table = {
  entries : (string, t * t) Hashtbl.t;  (** canonical key -> (key, value) *)
  mutable default : t option;
}

and record = { rtype : string; mutable rfields : (string * t ref) array }
(** Record fields live in a flat insertion-ordered array: scripts declare a
    handful of fields per record, so a linear scan beats a hash table and —
    more importantly on the per-connection fast path — construction is one
    small array instead of a bucket table.  All renderings sort by field
    name, so the order never leaks. *)

exception Bro_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Bro_error s)) fmt

(** Index of the first field [name] in [r], or -1. *)
let record_index r name =
  let fields = r.rfields in
  let n = Array.length fields in
  let rec go i =
    if i >= n then -1
    else if String.equal (fst (Array.unsafe_get fields i)) name then i
    else go (i + 1)
  in
  go 0

(** The slot holding field [name], if present. *)
let record_find r name =
  match record_index r name with -1 -> None | i -> Some (snd r.rfields.(i))

(* ---- Canonical keys ----------------------------------------------------------- *)

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
      let fields =
        Array.fold_left (fun acc (k, v) -> (k, key_string !v) :: acc) [] r.rfields
      in
      let fields = List.sort compare fields in
      "r{" ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) fields) ^ "}"
  | v -> error "value not usable as key: %s" (to_debug v)

and to_debug = function
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

(* Composite keys (table[a, b]) are rendered as tuples. *)
let keys_string vs = String.concat "\x00" (List.map key_string vs)

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
      let elems = Hashtbl.fold (fun _ v acc -> to_string v :: acc) s [] in
      "{" ^ String.concat "," (List.sort compare elems) ^ "}"
  | Vtable t ->
      let elems =
        Hashtbl.fold (fun _ (k, v) acc -> (to_string k ^ "->" ^ to_string v) :: acc)
          t.entries []
      in
      "{" ^ String.concat "," (List.sort compare elems) ^ "}"
  | Vvector v ->
      "[" ^ String.concat "," (List.map to_string (Hilti_vm.Deque.to_list v)) ^ "]"
  | Vrecord r ->
      let fields =
        Array.fold_left
          (fun acc (k, v) -> (k ^ "=" ^ to_string !v) :: acc)
          [] r.rfields
      in
      "[" ^ String.concat "," (List.sort compare fields) ^ "]"
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
      && Array.length x.rfields = Array.length y.rfields
      && Array.for_all
           (fun (k, v) ->
             match record_find y k with
             | Some v' -> equal !v !v'
             | None -> false)
           x.rfields
  | _ -> false

let rec deep_copy = function
  | Vset s ->
      let s' = Hashtbl.copy s in
      Vset s'
  | Vtable t ->
      Vtable { entries = Hashtbl.copy t.entries; default = t.default }
  | Vvector v -> Vvector (Hilti_vm.Deque.of_list (List.map deep_copy (Hilti_vm.Deque.to_list v)))
  | Vrecord r ->
      Vrecord
        { r with
          rfields = Array.map (fun (k, v) -> (k, ref (deep_copy !v))) r.rfields
        }
  | v -> v

(* ---- Record helpers --------------------------------------------------------------- *)

(* Field names are expected distinct (they come from record declarations
   and literal constructors). *)
let new_record rtype fields =
  Vrecord
    { rtype; rfields = Array.of_list (List.map (fun (n, v) -> (n, ref v)) fields) }

let record_field r name =
  match record_find r name with
  | Some v -> v
  | None ->
      let slot = ref Vvoid in
      r.rfields <- Array.append r.rfields [| (name, slot) |];
      slot

(* ---- HILTI conversion: the Bro<->HILTI glue (§5, §6.4) ----------------------------- *)

let glue_profiler = Hilti_rt.Profiler.create "bro/glue"

module Hval = Hilti_vm.Value

exception Misfit

(* A struct of [layout] holding [r]'s fields: the value for slot [i]
   converted by [conv i], a [Vvoid] left unset.  Each field's slot is
   found by name once; a field [layout] lacks raises [Misfit].  Walking the
   fields last to first lets the first of duplicate names win, as in
   {!record_find}. *)
let hilti_struct layout conv r =
  let s = Hval.new_struct layout in
  let fields = r.rfields in
  for j = Array.length fields - 1 downto 0 do
    let name, cell = Array.unsafe_get fields j in
    let i = Hval.field_index layout name in
    if i < 0 then raise_notrace Misfit;
    s.Hval.slots.(i) <- (match !cell with Vvoid -> Hval.unset | v -> conv i v)
  done;
  Hval.Struct s

(* A struct of [r]'s own layout: its sorted field names, which only the
   host can read. *)
let own_struct conv r =
  let names = List.sort compare (Array.to_list (Array.map fst r.rfields)) in
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
      Hashtbl.iter
        (fun _ elem ->
          let h = conv elem in
          Hilti_rt.Exp_map.insert out (Hval.key_string h) h)
        s;
      Hval.Set out
  | Vtable t ->
      let conv = to_hilti_raw ~layout_of in
      let out = Hilti_rt.Exp_map.create () in
      Hashtbl.iter
        (fun _ (k, value) ->
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
      let out = Hashtbl.create 16 in
      Hilti_rt.Exp_map.iter
        (fun _ elem ->
          let b = of_hilti_raw elem in
          Hashtbl.replace out (key_string b) b)
        s;
      Vset out
  | V.Map m ->
      let out = Hashtbl.create 16 in
      Hilti_rt.Exp_map.iter
        (fun _ (k, value) ->
          let bk = of_hilti_raw k in
          Hashtbl.replace out (key_string bk) (bk, of_hilti_raw value))
        m;
      Vtable { entries = out; default = None }
  | V.List d -> Vvector (Hilti_vm.Deque.of_list (List.map of_hilti_raw (Hilti_vm.Deque.to_list d)))
  | V.Tuple vs ->
      Vvector (Hilti_vm.Deque.of_list (List.map of_hilti_raw (Array.to_list vs)))
  | V.Struct s ->
      let fields = List.map (fun (n, v) -> (n, ref (of_hilti_raw v))) (V.struct_fields s) in
      Vrecord { rtype = s.V.layout.V.lname; rfields = Array.of_list fields }
  | V.Null -> Vvoid
  | other -> error "cannot convert HILTI value %s" (V.to_string other)
