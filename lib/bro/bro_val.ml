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

(** The slot holding field [name], if present. *)
let record_find r name =
  let fields = r.rfields in
  let n = Array.length fields in
  let rec go i =
    if i >= n then None
    else
      let k, v = Array.unsafe_get fields i in
      if String.equal k name then Some v else go (i + 1)
  in
  go 0

(* ---- Canonical keys ----------------------------------------------------------- *)

let rec key_string = function
  | Vbool b -> if b then "T" else "F"
  | Vcount c -> "c" ^ Int64.to_string c
  | Vint i -> "i" ^ Int64.to_string i
  | Vdouble d -> "d" ^ string_of_float d
  | Vstring s -> "s" ^ s
  | Vaddr a -> "a" ^ Addr.to_string a
  | Vport p -> "p" ^ Port.to_string p
  | Vsubnet n -> "n" ^ Network.to_string n
  | Vtime t -> "t" ^ Int64.to_string (Time_ns.to_ns t)
  | Vinterval i -> "v" ^ Int64.to_string (Interval_ns.to_ns i)
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
  | Vcount c -> Int64.to_string c
  | Vint i -> Int64.to_string i
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

(** Convert a Bro value to its HILTI representation.  Bro strings become
    HILTI bytes (as in the real plugin, where script strings carry raw
    payload data). *)
let rec to_hilti (v : t) : Hilti_vm.Value.t =
  Hilti_rt.Profiler.time_exclusive glue_profiler (fun () -> to_hilti_raw v)

and to_hilti_raw (v : t) : Hilti_vm.Value.t =
  let module V = Hilti_vm.Value in
  match v with
  | Vbool b -> V.Bool b
  | Vcount c | Vint c -> V.Int c
  | Vdouble d -> V.Double d
  | Vstring s ->
      let b = Hbytes.of_string s in
      Hbytes.freeze b;
      V.Bytes b
  | Vaddr a -> V.Addr a
  | Vport p -> V.Port p
  | Vsubnet n -> V.Net n
  | Vtime t -> V.Time t
  | Vinterval i -> V.Interval i
  | Vpattern (_, re) -> V.Regexp re
  | Vset s ->
      let out = Hilti_rt.Exp_map.create () in
      Hashtbl.iter
        (fun _ elem ->
          let h = to_hilti_raw elem in
          Hilti_rt.Exp_map.insert out (V.key_string h) h)
        s;
      V.Set out
  | Vtable t ->
      let out = Hilti_rt.Exp_map.create () in
      Hashtbl.iter
        (fun _ (k, value) ->
          let hk = to_hilti_raw k in
          Hilti_rt.Exp_map.insert out (V.key_string hk) (hk, to_hilti_raw value))
        t.entries;
      (match t.default with
      | Some d ->
          let hd = to_hilti_raw d in
          Hilti_rt.Exp_map.set_default out (fun _ ->
              (V.Null, Hilti_vm.Value.deep_copy hd))
      | None -> ());
      V.Map out
  | Vvector dv ->
      let d = Hilti_vm.Deque.create () in
      List.iter (fun x -> Hilti_vm.Deque.push_back d (to_hilti_raw x))
        (Hilti_vm.Deque.to_list dv);
      V.List d
  | Vrecord r ->
      let names = Array.fold_left (fun acc (k, _) -> k :: acc) [] r.rfields in
      let names = List.sort compare names in
      let s = V.new_struct r.rtype names in
      List.iter
        (fun n ->
          match record_find r n with
          | Some { contents = Vvoid } | None -> ()
          | Some v -> V.struct_field s n := Some (to_hilti_raw !v))
        names;
      V.Struct s
  | Vvoid -> V.Null

(** Convert a HILTI value back to a Bro value (for event arguments coming
    out of BinPAC++ parsers and for reading compiled-script state). *)
let rec of_hilti (v : Hilti_vm.Value.t) : t =
  Hilti_rt.Profiler.time_exclusive glue_profiler (fun () -> of_hilti_raw v)

and of_hilti_raw (v : Hilti_vm.Value.t) : t =
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
      let fields = ref [] in
      Array.iter
        (fun (n, slot) ->
          match !slot with
          | Some v -> fields := (n, ref (of_hilti_raw v)) :: !fields
          | None -> ())
        s.V.sfields;
      Vrecord { rtype = s.V.sname; rfields = Array.of_list (List.rev !fields) }
  | V.Null -> Vvoid
  | other -> error "cannot convert HILTI value %s" (V.to_string other)
