(** Lowering: HILTI IR -> register bytecode.

    Performs, when the program is linked, everything the execution loop
    should not do by name: variable-to-register allocation, block-label
    resolution, constant materialization (including enum labels and bitset
    masks resolved against their declarations), struct member to slot
    resolution against the operand's declared struct type (one shared
    {!Value.layout} per type), hook runs to the indices of their bodies
    (dropped when a hook has none), host calls to host slots, overlay
    layouts, and the global (thread-local) variable array layout that
    HILTI's custom linker computes across compilation units (§5 "Linker").
    [bytes.unpack_*] and [bytes.read] lower to two-destination
    instructions ({!Bytecode.Unpack}, {!Bytecode.Read}) whose [tuple.get]s
    become register moves, so no result tuple is built. *)

open Bytecode

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Builtin declarations every program sees (the "import Hilti" prelude). *)
let builtin_enums =
  [ ("Hilti::AddrFamily", Module_ir.Enum_decl [ ("IPv4", 4); ("IPv6", 6) ]);
    ("Hilti::Protocol", Module_ir.Enum_decl [ ("TCP", 1); ("UDP", 2); ("ICMP", 3) ]);
    ("Hilti::ExpireStrategy",
     Module_ir.Enum_decl [ ("Create", 0); ("Access", 1); ("Write", 2) ]) ]

(* Typed default values: HILTI variables are defined before first use. *)
let rec default_value (t : Htype.t) : Value.t =
  match t with
  | Htype.Bool -> Value.Bool false
  | Htype.Int _ -> Value.Int 0L
  | Htype.Double -> Value.Double 0.0
  | Htype.String -> Value.String ""
  | Htype.Time -> Value.Time Hilti_types.Time_ns.epoch
  | Htype.Interval -> Value.Interval Hilti_types.Interval_ns.zero
  | Htype.Addr -> Value.Addr (Hilti_types.Addr.of_ipv4_octets 0 0 0 0)
  | Htype.Port -> Value.Port (Hilti_types.Port.tcp 0)
  | Htype.Net ->
      Value.Net (Hilti_types.Network.make (Hilti_types.Addr.of_ipv4_octets 0 0 0 0) 0)
  | Htype.Enum n -> Value.Enum (n, 0, true)
  | Htype.Bitset n -> Value.Bitset (n, 0L)
  | Htype.Tuple ts -> Value.Tuple (Array.of_list (List.map default_value ts))
  | _ -> Value.Null

(* ---- Constants -------------------------------------------------------------- *)

let rec value_of_constant types (c : Constant.t) : Value.t =
  match c with
  | Constant.Bool b -> Value.Bool b
  | Constant.Int (v, _) -> Value.Int v
  | Constant.Double d -> Value.Double d
  | Constant.String s -> Value.String s
  | Constant.Bytes s ->
      let b = Hilti_types.Hbytes.of_string s in
      Hilti_types.Hbytes.freeze b;
      Value.Bytes b
  | Constant.Addr a -> Value.Addr a
  | Constant.Port p -> Value.Port p
  | Constant.Net n -> Value.Net n
  | Constant.Time t -> Value.Time t
  | Constant.Interval i -> Value.Interval i
  | Constant.Enum_label (tn, lbl) -> (
      match Hashtbl.find_opt types tn with
      | Some (Module_ir.Enum_decl labels) -> (
          match List.assoc_opt lbl labels with
          | Some v -> Value.Enum (tn, v, false)
          | None -> fail "enum %s has no label %s" tn lbl)
      | _ -> fail "unknown enum type %s" tn)
  | Constant.Bitset_labels (tn, ls) -> (
      match Hashtbl.find_opt types tn with
      | Some (Module_ir.Bitset_decl labels) ->
          let mask =
            List.fold_left
              (fun acc l ->
                match List.assoc_opt l labels with
                | Some bit -> Int64.logor acc (Int64.shift_left 1L bit)
                | None -> fail "bitset %s has no label %s" tn l)
              0L ls
          in
          Value.Bitset (tn, mask)
      | _ -> fail "unknown bitset type %s" tn)
  | Constant.Tuple cs ->
      Value.Tuple (Array.of_list (List.map (value_of_constant types) cs))
  | Constant.Null -> Value.Null
  | Constant.Unset -> Value.Null

(* ---- Pre-instructions with symbolic labels ------------------------------------ *)

type pre =
  | P of Bytecode.instr
  | PJump of string
  | PBr of int * string * string
  | PSwitch of int * string * (Value.t * string) array
  | PTryPush of string * int

(* ---- Function lowering ---------------------------------------------------------- *)

type fctx = {
  fname : string;
  types : (string, Module_ir.type_decl) Hashtbl.t;
  layouts : (string, Value.layout) Hashtbl.t;  (* one per struct type *)
  hooks : (string, int array) Hashtbl.t;       (* hook -> body func idxs *)
  hosts : (string, int) Hashtbl.t;             (* host function -> slot *)
  pairs : (string, int * int) Hashtbl.t;
      (* unpack result locals read only through [tuple.get]: their value
         and iterator registers *)
  var_types : (string, Htype.t) Hashtbl.t;
  regs : (string, int) Hashtbl.t;
  mutable nregs : int;
  mutable out : pre list;  (* reversed *)
  mutable nout : int;      (* length of [out]; kept so block-offset
                              recording is O(1) per block instead of a
                              List.length walk (quadratic in program size) *)
  global_index : (string, int) Hashtbl.t;
  fname_index : (string, int) Hashtbl.t;  (* resolved HILTI functions *)
  c_funcs : (string, unit) Hashtbl.t;     (* declared host functions *)
  (* Constant pool: each distinct constant lives in a dedicated register
     initialized with the frame (no per-use Const instructions). *)
  const_regs : (Constant.t, int) Hashtbl.t;
  mutable const_inits : (int * Value.t) list;
}

let emit ctx p =
  ctx.out <- p :: ctx.out;
  ctx.nout <- ctx.nout + 1

let fresh ctx =
  let r = ctx.nregs in
  ctx.nregs <- r + 1;
  r

let reg_of_var ctx name =
  match Hashtbl.find_opt ctx.regs name with
  | Some r -> r
  | None -> fail "unknown variable %s" name

let var_type ctx name = Hashtbl.find_opt ctx.var_types name

(* Lower an operand to a register holding its value. *)
let rec lower_operand ctx (op : Instr.operand) : int =
  match op with
  | Instr.Const c -> (
      match Hashtbl.find_opt ctx.const_regs c with
      | Some r -> r
      | None ->
          let r = fresh ctx in
          Hashtbl.add ctx.const_regs c r;
          ctx.const_inits <- (r, value_of_constant ctx.types c) :: ctx.const_inits;
          r)
  | Instr.Local n -> (
      match Hashtbl.find_opt ctx.regs n with
      | Some r -> r
      | None -> (
          (* Tolerate module-level names written without the Global marker. *)
          match Hashtbl.find_opt ctx.global_index n with
          | Some slot ->
              let r = fresh ctx in
              emit ctx (P (LoadGlobal (r, slot)));
              r
          | None -> fail "unknown variable %s" n))
  | Instr.Global n -> (
      match Hashtbl.find_opt ctx.global_index n with
      | Some slot ->
          let r = fresh ctx in
          emit ctx (P (LoadGlobal (r, slot)));
          r
      | None -> fail "unknown global %s" n)
  | Instr.Tuple_op ops ->
      let args = Array.of_list (List.map (lower_operand ctx) ops) in
      let r = fresh ctx in
      emit ctx (P (Prim (P_make_tuple, args, r)));
      r
  | Instr.Member m ->
      (* A bare member used as a value is its name as a string. *)
      let r = fresh ctx in
      emit ctx (P (Const (r, Value.String m)));
      r
  | Instr.Fname f ->
      let r = fresh ctx in
      emit ctx (P (Const (r, Value.Caddr f)));
      r
  | Instr.Label l -> fail "label %s used as a value" l
  | Instr.Type_op t -> fail "type %s used as a value" (Htype.to_string t)

(* Static type of an operand when known. *)
let operand_htype ctx (op : Instr.operand) : Htype.t option =
  match op with
  | Instr.Const c -> Some (Constant.typ c)
  | Instr.Local n | Instr.Global n -> var_type ctx n
  | _ -> None

let int_width ctx op = Int_arith.width_of_type (operand_htype ctx op)

(* Store the instruction result into its target (local register or global
   slot). *)
let store_target ctx (target : string option) (compute : int -> unit) : unit =
  match target with
  | None ->
      (* Result discarded: still run for effects into a scratch reg. *)
      compute (-1)
  | Some name -> (
      match Hashtbl.find_opt ctx.regs name with
      | Some r -> compute r
      | None -> (
          match Hashtbl.find_opt ctx.global_index name with
          | Some slot ->
              let r = fresh ctx in
              compute r;
              emit ctx (P (StoreGlobal (slot, r)))
          | None -> fail "unknown target %s" name))

(* Helpers shared by families of mnemonics. *)
let int_arith_of op =
  match Int_arith.of_name op with Some a -> a | None -> fail "unknown arith op %s" op

let cmp_of = function
  | "eq" -> C_eq | "lt" -> C_lt | "gt" -> C_gt | "leq" -> C_leq | "geq" -> C_geq
  | op -> fail "unknown comparison %s" op

let struct_layout ctx tname =
  match Hashtbl.find_opt ctx.layouts tname with
  | Some l -> l
  | None -> fail "unknown struct type %s" tname

(* The layout and slot of [member] in the declared struct type of the
   operand of struct instruction [m]. *)
let struct_slot ctx m (operand : Instr.operand) member =
  let declared = operand_htype ctx operand in
  match Option.map Htype.deref declared with
  | Some (Htype.Struct tname) ->
      let l = struct_layout ctx tname in
      let i = Value.field_index l member in
      if i < 0 then fail "%s: struct %s has no field %s" m tname member;
      (l, i)
  | _ ->
      fail "%s in %s: operand %s has no declared struct type (declared %s)" m
        ctx.fname (Instr.operand_to_string operand)
        (match declared with Some t -> Htype.to_string t | None -> "nothing")

let host_slot ctx name =
  match Hashtbl.find_opt ctx.hosts name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ctx.hosts in
      Hashtbl.add ctx.hosts name i;
      i

let classifier_nfields ctx (rule_ty : Htype.t) =
  match rule_ty with
  | Htype.Struct n -> Array.length (struct_layout ctx n).Value.lfields
  | Htype.Tuple ts -> List.length ts
  | Htype.Any -> fail "classifier rule type must be concrete"
  | _ -> 1

let overlay_spec ctx tname fname : overlay_spec =
  match Hashtbl.find_opt ctx.types tname with
  | Some (Module_ir.Overlay_decl fields) -> (
      match List.find_opt (fun f -> f.Module_ir.of_name = fname) fields with
      | Some f ->
          {
            ov_offset = f.Module_ir.of_offset;
            ov_fmt = f.Module_ir.of_fmt;
            ov_bits = f.Module_ir.of_bits;
            ov_result = f.Module_ir.of_type;
          }
      | None -> fail "overlay %s has no field %s" tname fname)
  | _ -> fail "unknown overlay type %s" tname

let overlay_size ctx tname =
  match Hashtbl.find_opt ctx.types tname with
  | Some (Module_ir.Overlay_decl fields) ->
      List.fold_left
        (fun acc f ->
          let w =
            match f.Module_ir.of_fmt with
            | Module_ir.U_uint (w, _) | Module_ir.U_sint (w, _) -> w
            | Module_ir.U_ipv4 -> 4
            | Module_ir.U_bytes n -> n
          in
          max acc (f.Module_ir.of_offset + w))
        0 fields
  | _ -> fail "unknown overlay type %s" tname

let bitset_mask ctx op =
  match op with
  | Instr.Const (Constant.Bitset_labels (tn, ls)) -> (
      match Hashtbl.find_opt ctx.types tn with
      | Some (Module_ir.Bitset_decl labels) ->
          List.fold_left
            (fun acc l ->
              match List.assoc_opt l labels with
              | Some bit -> Int64.logor acc (Int64.shift_left 1L bit)
              | None -> fail "bitset %s has no label %s" tn l)
            0L ls
      | _ -> fail "unknown bitset %s" tn)
  | _ -> fail "bitset operation needs constant labels"

(* A two-destination instruction: straight into the registers of a pair
   local, or, when the result tuple is used as a whole, into fresh
   registers it is then built from. *)
let lower_pair ctx (i : Instr.t) (mk : int -> int -> Bytecode.instr) =
  match Option.bind i.Instr.target (Hashtbl.find_opt ctx.pairs) with
  | Some (v, it) -> emit ctx (P (mk v it))
  | None ->
      let v = fresh ctx and it = fresh ctx in
      emit ctx (P (mk v it));
      store_target ctx i.Instr.target (fun dst ->
          emit ctx (P (Prim (P_make_tuple, [| v; it |], dst))))

(* Lower one IR instruction. *)
let lower_instr ctx (i : Instr.t) =
  let m = i.Instr.mnemonic in
  let ops = i.Instr.operands in
  let op n = List.nth ops n in
  let prim ?(args = ops) p =
    let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
    store_target ctx i.Instr.target (fun dst -> emit ctx (P (Prim (p, arg_regs, dst))))
  in
  let label_of = function
    | Instr.Label l -> l
    | o -> fail "%s: expected label, got %s" m (Instr.operand_to_string o)
  in
  let member_of = function
    | Instr.Member f -> f
    | Instr.Const (Constant.String f) -> f
    | o -> fail "%s: expected member, got %s" m (Instr.operand_to_string o)
  in
  let fname_of = function
    | Instr.Fname f -> f
    | o -> fail "%s: expected function, got %s" m (Instr.operand_to_string o)
  in
  let group, sub =
    if List.mem m Instr.flow_mnemonics then ("flow", m)
    else
      match String.index_opt m '.' with
      | Some d ->
          (String.sub m 0 d, String.sub m (d + 1) (String.length m - d - 1))
      | None -> ("flow", m)
  in
  let call_target f args_op dst_wanted =
    let args =
      match args_op with
      | Some (Instr.Tuple_op l) -> l
      | Some o -> [ o ]
      | None -> []
    in
    let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
    match Hashtbl.find_opt ctx.fname_index f with
    | Some idx ->
        store_target ctx dst_wanted (fun dst -> emit ctx (P (Call (idx, arg_regs, dst))))
    | None ->
        (* Unknown at link time: a host-application ("C") function. *)
        let h = host_slot ctx f in
        store_target ctx dst_wanted (fun dst -> emit ctx (P (CallC (h, arg_regs, dst))))
  in
  match (group, sub) with
  (* ---- flow ------------------------------------------------------------- *)
  | "flow", "jump" -> emit ctx (PJump (label_of (op 0)))
  | "flow", "if.else" ->
      let c = lower_operand ctx (op 0) in
      emit ctx (PBr (c, label_of (op 1), label_of (op 2)))
  | "flow", "call" ->
      let f = fname_of (op 0) in
      call_target f (if List.length ops > 1 then Some (op 1) else None) i.Instr.target
  | "flow", "return.void" -> emit ctx (P (Ret (-1)))
  | "flow", "return.result" ->
      let r = lower_operand ctx (op 0) in
      emit ctx (P (Ret r))
  | "flow", "yield" -> emit ctx (P Yield)
  | "flow", "throw" ->
      let r = lower_operand ctx (op 0) in
      emit ctx (P (Throw r))
  | "flow", "try.push" ->
      let exc_reg =
        match op 1 with
        | Instr.Local n -> reg_of_var ctx n
        | o -> fail "try.push: expected local, got %s" (Instr.operand_to_string o)
      in
      emit ctx (PTryPush (label_of (op 0), exc_reg))
  | "flow", "try.pop" -> emit ctx (P TryPop)
  | "flow", "select" -> prim P_select
  | "flow", "equal" -> prim P_equal
  | "flow", "assign" -> (
      (* An int stored into a narrow [int<N>] local wraps at N: a constant
         when lowered, any other int through one [int.add] of 0. *)
      match (Int_arith.store_width (Option.bind i.Instr.target (var_type ctx)), op 0) with
      | Some w, Instr.Const (Constant.Int (v, _)) ->
          let src = lower_operand ctx (Instr.Const (Constant.Int (Int_arith.wrap w v, w))) in
          store_target ctx i.Instr.target (fun dst ->
              if dst >= 0 then emit ctx (P (Mov (dst, src))))
      | Some w, o
        when (match operand_htype ctx o with
             | Some (Htype.Int _ | Htype.Ref (Htype.Int _)) -> true
             | _ -> false) ->
          let src = lower_operand ctx o in
          let zero = lower_operand ctx (Builder.const_int 0) in
          store_target ctx i.Instr.target (fun dst ->
              emit ctx (P (Prim (P_int_arith (Int_arith.A_add, w), [| src; zero |], dst))))
      | _ ->
          let src = lower_operand ctx (op 0) in
          store_target ctx i.Instr.target (fun dst ->
              if dst >= 0 then emit ctx (P (Mov (dst, src)))))
  | "flow", "nop" -> emit ctx (P Nop)
  | "flow", "switch" ->
      let v = lower_operand ctx (op 0) in
      let default = label_of (op 1) in
      let cases =
        List.filteri (fun idx _ -> idx >= 2) ops
        |> List.map (function
             | Instr.Tuple_op [ Instr.Const c; Instr.Label l ] ->
                 (value_of_constant ctx.types c, l)
             | o -> fail "switch: bad case %s" (Instr.operand_to_string o))
      in
      emit ctx (PSwitch (v, default, Array.of_list cases))
  | "flow", "new" -> (
      match op 0 with
      | Instr.Type_op ty ->
          let spec =
            match Htype.deref ty with
            | Htype.Struct n -> New_struct (struct_layout ctx n)
            | Htype.List _ -> New_list
            | Htype.Vector _ -> New_vector
            | Htype.Set _ -> New_set
            | Htype.Map _ -> New_map
            | Htype.Bytes -> New_bytes
            | Htype.Timer_mgr -> New_timer_mgr
            | Htype.Channel _ ->
                let cap =
                  match ops with
                  | [ _; Instr.Const (Constant.Int (c, _)) ] -> Some (Int64.to_int c)
                  | _ -> None
                in
                New_channel cap
            | Htype.Classifier (rule, _) -> New_classifier (classifier_nfields ctx rule)
            | Htype.Match_state -> New_match_state
            | t -> fail "new: unsupported type %s" (Htype.to_string t)
          in
          let extra =
            match spec with
            | New_match_state -> List.filteri (fun idx _ -> idx >= 1) ops
            | _ -> []
          in
          let arg_regs = Array.of_list (List.map (lower_operand ctx) extra) in
          store_target ctx i.Instr.target (fun dst ->
              emit ctx (P (Prim (P_new spec, arg_regs, dst))))
      | o -> fail "new: expected type operand, got %s" (Instr.operand_to_string o))
  (* ---- bool ------------------------------------------------------------- *)
  | "bool", "and" -> prim P_bool_and
  | "bool", "or" -> prim P_bool_or
  | "bool", "not" -> prim P_bool_not
  (* ---- int -------------------------------------------------------------- *)
  | "int", ("add" | "sub" | "mul" | "div" | "mod" | "shl" | "shr" | "and" | "or" | "xor" | "min" | "max") ->
      prim (P_int_arith (int_arith_of sub, int_width ctx (op 0)))
  | "int", ("eq" | "lt" | "gt" | "leq" | "geq") -> prim (P_int_cmp (cmp_of sub))
  | "int", "neg" -> prim (P_int_neg (int_width ctx (op 0)))
  | "int", "abs" -> prim (P_int_abs (int_width ctx (op 0)))
  | "int", "to_double" -> prim P_int_to_double
  | "int", "to_time" -> prim P_int_to_time
  | "int", "to_interval" -> prim P_int_to_interval
  | "int", "to_string" -> prim P_int_to_string
  (* ---- double ------------------------------------------------------------ *)
  | "double", ("add" | "sub" | "mul" | "div") -> prim (P_double_arith (int_arith_of sub))
  | "double", ("eq" | "lt" | "gt" | "leq" | "geq") -> prim (P_double_cmp (cmp_of sub))
  | "double", "neg" -> prim P_double_neg
  | "double", "abs" -> prim P_double_abs
  | "double", "to_int" -> prim P_double_to_int
  (* ---- string ------------------------------------------------------------- *)
  | "string", _ ->
      let sop =
        match sub with
        | "concat" -> S_concat | "length" -> S_length | "eq" -> S_eq
        | "lt" -> S_lt | "find" -> S_find | "substr" -> S_substr
        | "to_bytes" -> S_to_bytes | "to_upper" -> S_upper | "to_lower" -> S_lower
        | "starts_with" -> S_starts_with | "contains" -> S_contains
        | "split1" -> S_split1 | "format" -> S_format
        | _ -> fail "unknown string op %s" sub
      in
      prim (P_string sop)
  (* ---- bytes --------------------------------------------------------------- *)
  | "bytes", ("unpack_uint" | "unpack_sint") ->
      let fmt =
        match (op 1, op 2) with
        | Instr.Const (Constant.Int (w, _)), Instr.Const (Constant.Bool big)
          when w >= 1L && w <= 8L ->
            { u_signed = sub = "unpack_sint"; u_width = Int64.to_int w; u_big = big }
        | _ -> fail "%s: width (1..8) and byte order must be constants" m
      in
      let src = lower_operand ctx (op 0) in
      lower_pair ctx i (fun v it -> Unpack (fmt, src, v, it))
  | "bytes", "read" ->
      let src = lower_operand ctx (op 0) in
      let n = lower_operand ctx (op 1) in
      lower_pair ctx i (fun v it -> Read (src, n, v, it))
  | "bytes", _ ->
      let bop =
        match sub with
        | "new" -> B_new | "length" -> B_length | "append" -> B_append
        | "freeze" -> B_freeze | "is_frozen" -> B_is_frozen | "trim" -> B_trim
        | "sub" -> B_sub | "find" -> B_find | "match_prefix" -> B_match_prefix
        | "can_read" -> B_can_read | "to_string" -> B_to_string
        | "to_int" -> B_to_int | "eq" -> B_eq | "starts_with" -> B_starts_with
        | "contains" -> B_contains | "offset" -> B_offset
        | "to_upper" -> B_upper | "to_lower" -> B_lower
        | _ -> fail "unknown bytes op %s" sub
      in
      prim (P_bytes bop)
  (* ---- iterators ------------------------------------------------------------- *)
  | "iter", _ ->
      let iop =
        match sub with
        | "begin" -> I_begin | "end" -> I_end | "incr" -> I_incr
        | "advance" -> I_advance | "deref" -> I_deref | "eq" -> I_eq
        | "distance" -> I_distance | "at_end" -> I_at_end | "is_eod" -> I_is_eod
        | "is_frozen" -> I_is_frozen
        | _ -> fail "unknown iter op %s" sub
      in
      prim (P_iter iop)
  (* ---- domain types ------------------------------------------------------------ *)
  | "addr", "family" -> prim (P_addr AD_family)
  | "addr", "eq" -> prim (P_addr AD_eq)
  | "addr", "mask" -> prim (P_addr AD_mask)
  | "addr", "to_string" -> prim (P_addr AD_to_string)
  | "port", "protocol" -> prim (P_port PO_protocol)
  | "port", "number" -> prim (P_port PO_number)
  | "port", "eq" -> prim (P_port PO_eq)
  | "net", "contains" -> prim (P_net NE_contains)
  | "net", "prefix" -> prim (P_net NE_prefix)
  | "net", "length" -> prim (P_net NE_length)
  | "net", "eq" -> prim (P_net NE_eq)
  | "time", "add" -> prim (P_time TI_add)
  | "time", "sub" -> prim (P_time TI_sub)
  | "time", ("eq" | "lt" | "gt" | "leq" | "geq") -> prim (P_time (TI_cmp (cmp_of sub)))
  | "time", "wall" -> prim (P_time TI_wall)
  | "time", "to_double" -> prim (P_time TI_to_double)
  | "time", "nsecs" -> prim (P_time TI_nsecs)
  | "interval", "add" -> prim (P_interval IV_add)
  | "interval", "sub" -> prim (P_interval IV_sub)
  | "interval", "mul" -> prim (P_interval IV_mul)
  | "interval", "eq" -> prim (P_interval IV_eq)
  | "interval", "lt" -> prim (P_interval IV_lt)
  | "interval", "to_double" -> prim (P_interval IV_to_double)
  | "interval", "nsecs" -> prim (P_interval IV_nsecs)
  (* ---- tuples --------------------------------------------------------------------- *)
  | "tuple", "get" -> (
      match op 1 with
      | Instr.Const (Constant.Int (idx, _)) -> (
          let pair =
            match op 0 with Instr.Local t -> Hashtbl.find_opt ctx.pairs t | _ -> None
          in
          match pair with
          | Some (v, it) ->
              let src = if idx = 0L then v else it in
              store_target ctx i.Instr.target (fun dst ->
                  if dst >= 0 then emit ctx (P (Mov (dst, src))))
          | None -> prim ~args:[ op 0 ] (P_tuple_get (Int64.to_int idx)))
      | o -> fail "tuple.get: constant index required, got %s" (Instr.operand_to_string o))
  | "tuple", "length" -> prim P_tuple_length
  | "tuple", "eq" -> prim P_tuple_eq
  (* ---- structs --------------------------------------------------------------------- *)
  | "struct", ("get" | "get_default" | "set" | "unset" | "is_set") ->
      let sop, args =
        match sub with
        | "get" -> (ST_get, [ op 0 ])
        | "get_default" -> (ST_get_default, [ op 0; op 2 ])
        | "set" -> (ST_set, [ op 0; op 2 ])
        | "unset" -> (ST_unset, [ op 0 ])
        | _ -> (ST_is_set, [ op 0 ])
      in
      let layout, slot = struct_slot ctx m (op 0) (member_of (op 1)) in
      prim ~args (P_struct (sop, layout, slot))
  (* ---- enums ------------------------------------------------------------------------- *)
  | "enum", "from_int" -> (
      match op 0 with
      | Instr.Type_op (Htype.Enum n) ->
          (* Undeclared enum types make every value Undef. *)
          let labels =
            match Hashtbl.find_opt ctx.types n with
            | Some (Module_ir.Enum_decl labels) -> Array.of_list (List.map snd labels)
            | _ -> [||]
          in
          prim ~args:[ op 1 ] (P_enum_from_int (n, labels))
      | o -> fail "enum.from_int: expected enum type, got %s" (Instr.operand_to_string o))
  | "enum", "value" -> prim P_enum_value
  | "enum", "eq" -> prim P_enum_eq
  (* ---- bitsets ------------------------------------------------------------------------ *)
  | "bitset", "set" -> prim ~args:[ op 0 ] (P_bitset_set (bitset_mask ctx (op 1)))
  | "bitset", "clear" -> prim ~args:[ op 0 ] (P_bitset_clear (bitset_mask ctx (op 1)))
  | "bitset", "has" -> prim ~args:[ op 0 ] (P_bitset_has (bitset_mask ctx (op 1)))
  | "bitset", "eq" -> prim P_bitset_eq
  (* ---- containers ----------------------------------------------------------------------- *)
  | "list", _ ->
      let lop =
        match sub with
        | "append" -> L_append | "push_front" -> L_push_front
        | "pop_front" -> L_pop_front | "front" -> L_front | "back" -> L_back
        | "size" -> L_size | "clear" -> L_clear
        | "timeout" -> fail "list.timeout: not supported on lists"
        | _ -> fail "unknown list op %s" sub
      in
      prim (P_list lop)
  | "vector", _ ->
      let vop =
        match sub with
        | "push_back" -> V_push_back | "get" -> V_get | "set" -> V_set
        | "size" -> V_size | "reserve" -> V_reserve | "clear" -> V_clear
        | "pop_back" -> V_pop_back
        | _ -> fail "unknown vector op %s" sub
      in
      prim (P_vector vop)
  | "set", _ ->
      let sop =
        match sub with
        | "insert" -> SE_insert | "exists" -> SE_exists | "remove" -> SE_remove
        | "size" -> SE_size | "clear" -> SE_clear | "timeout" -> SE_timeout
        | _ -> fail "unknown set op %s" sub
      in
      prim (P_set sop)
  | "map", _ ->
      let mop =
        match sub with
        | "insert" -> M_insert | "get" -> M_get | "get_default" -> M_get_default
        | "exists" -> M_exists | "remove" -> M_remove | "size" -> M_size
        | "clear" -> M_clear | "default" -> M_default | "timeout" -> M_timeout
        | _ -> fail "unknown map op %s" sub
      in
      prim (P_map mop)
  | "channel", _ ->
      let cop =
        match sub with
        | "write" -> CH_write | "read" -> CH_read | "try_read" -> CH_try_read
        | "size" -> CH_size
        | _ -> fail "unknown channel op %s" sub
      in
      prim (P_channel cop)
  | "classifier", _ ->
      let cop =
        match sub with
        | "add" -> CL_add | "compile" -> CL_compile | "get" -> CL_get
        | "matches" -> CL_matches
        | _ -> fail "unknown classifier op %s" sub
      in
      prim (P_classifier cop)
  | "regexp", _ ->
      let rop =
        match sub with
        | "compile" -> RE_compile | "find" -> RE_find
        | "match_token" -> RE_match_token | "span" -> RE_span
        | "groups" -> RE_groups
        | _ -> fail "unknown regexp op %s" sub
      in
      prim (P_regexp rop)
  (* ---- overlays ---------------------------------------------------------------------------- *)
  | "overlay", "get" ->
      let tname =
        match op 0 with
        | Instr.Type_op (Htype.Overlay n) | Instr.Member n -> n
        | o -> fail "overlay.get: expected overlay type, got %s" (Instr.operand_to_string o)
      in
      prim ~args:[ op 2 ] (P_overlay_get (overlay_spec ctx tname (member_of (op 1))))
  | "overlay", "size" ->
      let tname =
        match op 0 with
        | Instr.Type_op (Htype.Overlay n) | Instr.Member n -> n
        | o -> fail "overlay.size: expected overlay type, got %s" (Instr.operand_to_string o)
      in
      store_target ctx i.Instr.target (fun dst ->
          emit ctx (P (Const (dst, Value.Int (Int64.of_int (overlay_size ctx tname))))))
  (* ---- timers -------------------------------------------------------------------------------- *)
  | "timer", "new" -> prim P_timer_new
  | "timer", "cancel" -> prim P_timer_cancel
  | "timer_mgr", "new" -> prim (P_new New_timer_mgr)
  | "timer_mgr", "schedule" -> prim P_timer_mgr_schedule
  | "timer_mgr", "advance" -> prim P_timer_mgr_advance
  | "timer_mgr", "advance_global" -> prim P_timer_mgr_advance_global
  | "timer_mgr", "current" -> prim P_timer_mgr_current
  | "timer_mgr", "expire_all" -> prim P_timer_mgr_expire_all
  (* ---- threads --------------------------------------------------------------------------------- *)
  | "thread", "schedule" ->
      let f = fname_of (op 0) in
      let args =
        match op 1 with
        | Instr.Tuple_op l -> l
        | o -> [ o ]
      in
      let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
      let tid = lower_operand ctx (op 2) in
      let idx =
        match Hashtbl.find_opt ctx.fname_index f with
        | Some idx -> idx
        | None -> fail "thread.schedule: unknown function %s" f
      in
      emit ctx (P (Schedule (idx, arg_regs, tid)))
  | "thread", "id" -> prim P_thread_id
  (* ---- hooks ------------------------------------------------------------------------------------- *)
  | "hook", "run" -> (
      (* Hooks are static: the linked module holds every body, so a hook
         without bodies runs nothing and is dropped. *)
      match Hashtbl.find_opt ctx.hooks (fname_of (op 0)) with
      | None -> ()
      | Some bodies ->
          let args = match op 1 with Instr.Tuple_op l -> l | o -> [ o ] in
          let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
          emit ctx (P (HookRun (bodies, arg_regs))))
  | "hook", "stop" ->
      (* Modeled as a distinguished exception understood by the hook runner. *)
      let r = fresh ctx in
      emit ctx (P (Const (r, Value.Exception { ename = "Hilti::HookStop"; earg = Value.Null })));
      emit ctx (P (Throw r))
  (* ---- callables ---------------------------------------------------------------------------------- *)
  | "callable", "bind" ->
      let f = fname_of (op 0) in
      let args = match op 1 with Instr.Tuple_op l -> l | o -> [ o ] in
      let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
      let idx =
        match Hashtbl.find_opt ctx.fname_index f with
        | Some idx -> idx
        | None -> fail "callable.bind: unknown function %s" f
      in
      store_target ctx i.Instr.target (fun dst -> emit ctx (P (Bind (idx, arg_regs, dst))))
  | "callable", "call" -> prim P_callable_call
  (* ---- exceptions ----------------------------------------------------------------------------------- *)
  | "exception", "new" -> prim P_exc_new
  | "exception", "data" -> prim P_exc_data
  | "exception", "name" -> prim P_exc_name
  (* ---- file / iosrc / profiler / debug ------------------------------------------------------------------ *)
  | "file", "open" -> prim (P_file F_open)
  | "file", "write" -> prim (P_file F_write)
  | "file", "close" -> prim (P_file F_close)
  | "iosrc", "read" -> prim P_iosrc_read
  | "iosrc", "close" -> prim P_iosrc_close
  | "profiler", "start" -> prim (P_profiler PR_start)
  | "profiler", "stop" -> prim (P_profiler PR_stop)
  | "profiler", "snapshot" -> prim (P_profiler PR_snapshot)
  | "debug", "msg" -> prim (P_debug D_msg)
  | "debug", "assert" -> prim (P_debug D_assert)
  | "debug", "internal_error" -> prim (P_debug D_internal_error)
  | _ -> fail "cannot lower instruction %s" m

(* Resolve symbolic labels to instruction offsets. *)
let resolve_labels (pres : pre list) (block_offsets : (string, int) Hashtbl.t) =
  let resolve l =
    match Hashtbl.find_opt block_offsets l with
    | Some pc -> pc
    | None -> fail "unresolved label %s" l
  in
  List.map
    (fun p ->
      match p with
      | P i -> i
      | PJump l -> Jump (resolve l)
      | PBr (c, t, e) -> Br (c, resolve t, resolve e)
      | PSwitch (v, d, cases) ->
          Switch (v, resolve d, Array.map (fun (c, l) -> (c, resolve l)) cases)
      | PTryPush (l, r) -> TryPush (resolve l, r))
    pres

(* Unpack/read result locals whose only uses are [tuple.get]s with a constant
   index, and which nothing else assigns, get a value and an iterator
   register instead of a tuple.  A [tuple.get] right after its unpack (only
   other such [tuple.get]s in between) whose target is assigned nowhere
   else is dropped: the unpack writes that target's register directly.  So
   is an [assign] that then copies such a target, used nowhere else, into
   another local that the dropped instructions do not mention and that is
   no narrow int local (a copy into one wraps).  Returns
   each pair local with the locals (if any) receiving its value and its
   iterator, and the dropped instructions. *)
let pair_plan (f : Module_ir.func) =
  let all = List.concat_map (fun b -> b.Module_ir.instrs) f.Module_ir.blocks in
  let defs = Hashtbl.create 16 and uses = Hashtbl.create 16 and bad = Hashtbl.create 16 in
  let count tbl n = Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)) in
  let candidates = ref [] in
  let rec use ok (o : Instr.operand) =
    match o with
    | Instr.Local n | Instr.Global n ->
        count uses n;
        if not ok then Hashtbl.replace bad n ()
    | Instr.Tuple_op l -> List.iter (use false) l
    | _ -> ()
  in
  List.iter
    (fun (i : Instr.t) ->
      Option.iter (count defs) i.Instr.target;
      (match (i.Instr.mnemonic, i.Instr.target) with
      | ("bytes.unpack_uint" | "bytes.unpack_sint" | "bytes.read"), Some t ->
          candidates := t :: !candidates
      | _ -> ());
      match (i.Instr.mnemonic, i.Instr.operands) with
      | "tuple.get", [ (Instr.Local _ as t); Instr.Const (Constant.Int ((0L | 1L), _)) ] ->
          use true t
      | _, ops -> List.iter (use false) ops)
    all;
  let is_local n = List.mem_assoc n f.Module_ir.locals in
  let single_def n = Hashtbl.find_opt defs n = Some 1 in
  let pairs =
    List.filter
      (fun t -> single_def t && (not (Hashtbl.mem bad t)) && is_local t)
      (List.sort_uniq compare !candidates)
  in
  let plan = Hashtbl.create 8 and skip = ref [] in
  List.iter
    (fun (b : Module_ir.block) ->
      let rec scan = function
        | [] -> ()
        | (i : Instr.t) :: rest -> (
            match i.Instr.target with
            | Some t
              when List.mem t pairs
                   && List.mem i.Instr.mnemonic
                        [ "bytes.unpack_uint"; "bytes.unpack_sint"; "bytes.read" ] ->
                let dest = [| None; None |] in
                let mentioned = ref [ t ] in
                let rec follow = function
                  | ({ Instr.mnemonic = "tuple.get";
                       operands = [ Instr.Local t'; Instr.Const (Constant.Int (k, _)) ];
                       target = Some x; _ } as g)
                    :: rest
                    when t' = t && dest.(Int64.to_int k) = None && single_def x && is_local x ->
                      dest.(Int64.to_int k) <- Some x;
                      mentioned := x :: !mentioned;
                      skip := g :: !skip;
                      follow rest
                  | ({ Instr.mnemonic = "assign"; operands = [ Instr.Local x ]; target = Some y; _ }
                     as a)
                    :: rest
                    when Hashtbl.find_opt uses x = Some 1
                         && (is_local y || List.mem_assoc y f.Module_ir.params)
                         && Int_arith.store_width
                              (List.assoc_opt y (f.Module_ir.params @ f.Module_ir.locals))
                            = None
                         && not (List.mem y !mentioned) -> (
                      match Array.find_index (fun d -> d = Some x) dest with
                      | Some k ->
                          dest.(k) <- Some y;
                          mentioned := y :: !mentioned;
                          skip := a :: !skip;
                          follow rest
                      | None -> a :: rest)
                  | rest -> rest
                in
                let rest = follow rest in
                Hashtbl.replace plan t (dest.(0), dest.(1));
                scan rest
            | _ -> scan rest)
      in
      scan b.Module_ir.instrs)
    f.Module_ir.blocks;
  (List.map (fun t -> (t, Option.value ~default:(None, None) (Hashtbl.find_opt plan t))) pairs,
   !skip)

(* Adjacent copy coalescing: [x = <op>; y = assign x], where the local [x]
   is assigned and read nowhere else, becomes [y = <op>].  Every lowered
   instruction reads its operands before it writes its destination, so
   [y] may be among [<op>]'s operands; and [<op>] failing leaves [y]
   untouched either way. *)
let coalesce_copies (f : Module_ir.func) (blocks : (string * Instr.t list) list) =
  let defs = Hashtbl.create 32 and uses = Hashtbl.create 32 in
  let count tbl n = Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)) in
  let rec use (o : Instr.operand) =
    match o with
    | Instr.Local n -> count uses n
    | Instr.Tuple_op l -> List.iter use l
    | _ -> ()
  in
  List.iter
    (fun (_, is) ->
      List.iter
        (fun (i : Instr.t) ->
          Option.iter (count defs) i.Instr.target;
          List.iter use i.Instr.operands)
        is)
    blocks;
  let once tbl n = Hashtbl.find_opt tbl n = Some 1 in
  let is_local n = List.mem_assoc n f.Module_ir.locals in
  let is_reg n = is_local n || List.mem_assoc n f.Module_ir.params in
  (* A copy into a narrow int local wraps, so it stays. *)
  let narrow y =
    Int_arith.store_width (List.assoc_opt y (f.Module_ir.params @ f.Module_ir.locals)) <> None
  in
  let rec go acc = function
    | ({ Instr.target = Some x; _ } as i)
      :: { Instr.mnemonic = "assign"; operands = [ Instr.Local x' ]; target = Some y; _ }
      :: rest
      when x = x' && x <> y && is_local x && once defs x && once uses x && is_reg y
           && not (narrow y) ->
        go acc ({ i with Instr.target = Some y } :: rest)
    | i :: rest -> go (i :: acc) rest
    | [] -> List.rev acc
  in
  List.map (fun (l, is) -> (l, go [] is)) blocks

let lower_func types layouts hooks hosts global_index fname_index c_funcs internal_name
    (f : Module_ir.func) : Bytecode.func =
  let ctx =
    {
      fname = internal_name;
      types;
      layouts;
      hooks;
      hosts;
      pairs = Hashtbl.create 8;
      var_types = Hashtbl.create 16;
      regs = Hashtbl.create 16;
      nregs = 0;
      out = [];
      nout = 0;
      global_index;
      fname_index;
      c_funcs;
      const_regs = Hashtbl.create 16;
      const_inits = [];
    }
  in
  List.iter
    (fun (n, t) ->
      Hashtbl.replace ctx.var_types n t;
      Hashtbl.replace ctx.regs n (fresh ctx))
    (f.Module_ir.params @ f.Module_ir.locals);
  (* Value and iterator registers of the pair locals start out with the
     declared tuple's element defaults, as the tuple local itself did. *)
  let pairs, skip = pair_plan f in
  let pair_inits = ref [] in
  List.iter
    (fun (t, (dv, di)) ->
      let defaults =
        match var_type ctx t with
        | Some (Htype.Tuple [ a; b ]) -> [| default_value a; default_value b |]
        | _ -> [| Value.Int 0L; Value.Null |]
      in
      let reg k = function
        | Some x -> reg_of_var ctx x
        | None ->
            let r = fresh ctx in
            pair_inits := (r, defaults.(k)) :: !pair_inits;
            r
      in
      let v = reg 0 dv in
      let it = reg 1 di in
      Hashtbl.replace ctx.pairs t (v, it))
    pairs;
  (* Two-phase emission: lower every block recording start offsets, then
     patch label references. *)
  let blocks =
    coalesce_copies f
      (List.map
         (fun (b : Module_ir.block) ->
           (b.Module_ir.label, List.filter (fun i -> not (List.memq i skip)) b.Module_ir.instrs))
         f.Module_ir.blocks)
  in
  let block_offsets = Hashtbl.create 8 in
  List.iter
    (fun (label, instrs) ->
      Hashtbl.replace block_offsets label ctx.nout;
      List.iter (lower_instr ctx) instrs)
    blocks;
  (* Implicit return for void functions. *)
  (match ctx.out with
  | P (Ret _) :: _ -> ()
  | _ -> emit ctx (P (Ret (-1))));
  let code = Array.of_list (resolve_labels (List.rev ctx.out) block_offsets) in
  let reg_defaults = Array.make (max ctx.nregs 1) Value.Null in
  let entry_init = Array.make (max ctx.nregs 1) false in
  List.iter
    (fun (n, t) ->
      match Hashtbl.find_opt ctx.regs n with
      | Some r ->
          reg_defaults.(r) <- default_value t;
          entry_init.(r) <- true
      | None -> ())
    (f.Module_ir.params @ f.Module_ir.locals);
  List.iter
    (fun (r, v) ->
      reg_defaults.(r) <- v;
      entry_init.(r) <- true)
    (ctx.const_inits @ !pair_inits);
  {
    name = internal_name;
    nparams = List.length f.Module_ir.params;
    nregs = ctx.nregs;
    code;
    returns_value = f.Module_ir.result <> Htype.Void;
    exported = f.Module_ir.exported;
    reg_defaults;
    entry_init;
    typing = [||];
    spec = None;
  }

(** Lower a (linked) module into an executable program. *)
let lower_module (m : Module_ir.t) : Bytecode.program =
  let types = Hashtbl.create 32 in
  List.iter (fun (n, d) -> Hashtbl.replace types n d) builtin_enums;
  List.iter (fun (n, d) -> Hashtbl.replace types n d) m.Module_ir.types;
  (* Global (thread-local) layout: the linker's merged array (§5). *)
  let global_index = Hashtbl.create 16 in
  let globals = Array.of_list (List.map fst m.Module_ir.globals) in
  let global_defaults =
    Array.of_list (List.map (fun (_, t) -> default_value t) m.Module_ir.globals)
  in
  Array.iteri (fun slot n -> Hashtbl.replace global_index n slot) globals;
  (* Function index space: ordinary functions first, then hook bodies. *)
  let hilti_funcs =
    List.filter (fun f -> f.Module_ir.cc <> Module_ir.Cc_c) m.Module_ir.funcs
  in
  let c_funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Module_ir.func) ->
      if f.Module_ir.cc = Module_ir.Cc_c then Hashtbl.replace c_funcs f.Module_ir.fname ())
    m.Module_ir.funcs;
  let fname_index = Hashtbl.create 32 in
  List.iteri
    (fun i (f : Module_ir.func) -> Hashtbl.replace fname_index f.Module_ir.fname i)
    hilti_funcs;
  let nfuncs = List.length hilti_funcs in
  (* Hook bodies get stable internal names and indices after functions,
     ordered by descending priority (the cross-unit hook merge). *)
  let hook_bodies =
    List.stable_sort
      (fun a b -> Int.compare b.Module_ir.hook_priority a.Module_ir.hook_priority)
      m.Module_ir.hooks
  in
  let hooks = Hashtbl.create 8 in
  List.iteri
    (fun i (h : Module_ir.func) ->
      let idx = nfuncs + i in
      let existing = Option.value ~default:[||] (Hashtbl.find_opt hooks h.Module_ir.fname) in
      Hashtbl.replace hooks h.Module_ir.fname (Array.append existing [| idx |]))
    hook_bodies;
  (* One layout per declared struct type: VM slot accesses identify a
     struct's type by this physical layout. *)
  let layouts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun n d ->
      match d with
      | Module_ir.Struct_decl fields ->
          Hashtbl.replace layouts n (Value.make_layout n (List.map fst fields))
      | _ -> ())
    types;
  let hosts = Hashtbl.create 8 in
  let lower name f =
    lower_func types layouts hooks hosts global_index fname_index c_funcs name f
  in
  let lowered_funcs =
    List.map (fun (f : Module_ir.func) -> lower f.Module_ir.fname f) hilti_funcs
  in
  let lowered_hooks =
    List.mapi
      (fun i (h : Module_ir.func) -> lower (Printf.sprintf "%s#%d" h.Module_ir.fname i) h)
      hook_bodies
  in
  let funcs = Array.of_list (lowered_funcs @ lowered_hooks) in
  let func_index = Hashtbl.create 32 in
  Array.iteri (fun i (f : Bytecode.func) -> Hashtbl.replace func_index f.name i) funcs;
  let host_names = Array.make (Hashtbl.length hosts) "" in
  Hashtbl.iter (fun n i -> host_names.(i) <- n) hosts;
  { funcs; func_index; globals; global_defaults; global_index; hooks; layouts;
    host_names; verified = false; specialized = false }
