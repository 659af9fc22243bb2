(** The lowered register-machine form the VM executes.

    Where HILTI's prototype compiles IR to LLVM bitcode and on to native
    code, we lower to a flat array of register operations per function —
    the same pipeline position, with jump targets resolved to instruction
    indices and every name resolved when the program is linked: struct
    fields to slots of their declared type's {!Value.layout}, hooks to the
    indices of their bodies, host functions to slots of [host_names], enum
    labels and bitset masks to values, overlay fields to offsets, globals
    to slots.  The execution loop performs no lookup by name.  What stays
    by name is host-side only: [Host_api.call]/[run_hook] entry points,
    [Vm.register_host] filling a host slot, and {!Value.field} reads of
    struct values handed to the host. *)

type int_arith = Int_arith.op =
  | A_add | A_sub | A_mul | A_div | A_mod | A_shl | A_shr | A_and | A_or | A_xor | A_min | A_max

type cmp = C_eq | C_lt | C_gt | C_leq | C_geq

type string_op =
  | S_concat | S_length | S_eq | S_lt | S_find | S_substr | S_to_bytes
  | S_upper | S_lower | S_starts_with | S_contains | S_split1
  | S_format  (** first arg is the format string *)

type bytes_op =
  | B_new | B_length | B_append | B_freeze | B_is_frozen | B_trim | B_sub
  | B_find | B_match_prefix | B_can_read | B_to_string | B_to_int
  | B_eq | B_starts_with | B_contains | B_offset
  | B_upper | B_lower

(** A [bytes.unpack_*] format, fixed at lowering. *)
type unpack_fmt = { u_signed : bool; u_width : int; u_big : bool }

type iter_op =
  | I_begin | I_end | I_incr | I_advance | I_deref | I_eq | I_distance
  | I_at_end | I_is_eod | I_is_frozen

type addr_op = AD_family | AD_eq | AD_mask | AD_to_string
type port_op = PO_protocol | PO_number | PO_eq
type net_op = NE_contains | NE_prefix | NE_length | NE_eq

type time_op = TI_add | TI_sub | TI_cmp of cmp | TI_wall | TI_to_double | TI_nsecs
type interval_op = IV_add | IV_sub | IV_mul | IV_eq | IV_lt | IV_to_double | IV_nsecs

type struct_op = ST_get | ST_get_default | ST_set | ST_unset | ST_is_set

type list_op = L_append | L_push_front | L_pop_front | L_front | L_back | L_size | L_clear
type vector_op = V_push_back | V_get | V_set | V_size | V_reserve | V_clear | V_pop_back
type set_op = SE_insert | SE_exists | SE_remove | SE_size | SE_clear | SE_timeout
type map_op =
  | M_insert | M_get | M_get_default | M_exists | M_remove | M_size | M_clear
  | M_default | M_timeout

type channel_op = CH_write | CH_read | CH_try_read | CH_size
type classifier_op = CL_add | CL_compile | CL_get | CL_matches
type regexp_op = RE_compile | RE_find | RE_match_token | RE_span | RE_groups
type file_op = F_open | F_write | F_close
type profiler_op = PR_start | PR_stop | PR_snapshot
type debug_op = D_msg | D_assert | D_internal_error

type new_spec =
  | New_struct of Value.layout
  | New_list
  | New_vector
  | New_set
  | New_map
  | New_channel of int option           (** capacity *)
  | New_bytes
  | New_timer_mgr
  | New_classifier of int               (** number of rule fields *)
  | New_match_state                      (** from a regexp operand *)

type overlay_spec = {
  ov_offset : int;
  ov_fmt : Module_ir.unpack_fmt;
  ov_bits : (int * int) option;
  ov_result : Htype.t;
}

type prim =
  | P_select
  | P_equal
  | P_make_tuple
  | P_new of new_spec
  | P_bool_and | P_bool_or | P_bool_not
  | P_int_arith of int_arith * int   (** op, width *)
  | P_int_cmp of cmp
  | P_int_neg of int | P_int_abs of int
  | P_int_to_double | P_int_to_time | P_int_to_interval | P_int_to_string
  | P_double_arith of int_arith
  | P_double_cmp of cmp
  | P_double_neg | P_double_abs | P_double_to_int
  | P_string of string_op
  | P_bytes of bytes_op
  | P_iter of iter_op
  | P_addr of addr_op
  | P_port of port_op
  | P_net of net_op
  | P_time of time_op
  | P_interval of interval_op
  | P_tuple_get of int
  | P_tuple_length
  | P_tuple_eq
  | P_struct of struct_op * Value.layout * int
      (** op, the layout of the operand's declared struct type, slot *)
  | P_enum_from_int of string * int array  (** type name, declared label values *)
  | P_enum_value
  | P_enum_eq
  | P_bitset_set of int64 | P_bitset_clear of int64 | P_bitset_has of int64 | P_bitset_eq
  | P_list of list_op
  | P_vector of vector_op
  | P_set of set_op
  | P_map of map_op
  | P_channel of channel_op
  | P_classifier of classifier_op
  | P_regexp of regexp_op
  | P_overlay_get of overlay_spec
  | P_timer_new | P_timer_cancel
  | P_timer_mgr_schedule | P_timer_mgr_advance | P_timer_mgr_advance_global
  | P_timer_mgr_current | P_timer_mgr_expire_all
  | P_thread_id
  | P_exc_new | P_exc_data | P_exc_name
  | P_file of file_op
  | P_iosrc_read | P_iosrc_close
  | P_profiler of profiler_op
  | P_debug of debug_op
  | P_callable_call

(* ---- Abstract value tags --------------------------------------------------- *)

(* Coarse per-value type tags.  {!Verify} runs a forward abstract
   interpretation over these to type-check primitives, and exports a
   per-register join (the [typing] field below) that {!Specialize} uses to
   assign registers to unboxed banks. *)

type tag =
  | Any
  | Tnull
  | Tbool
  | Tint
  | Tdouble
  | Tstring
  | Tbytes
  | Taddr
  | Tport
  | Tnet
  | Ttime
  | Tinterval
  | Tenum
  | Tbitset
  | Ttuple
  | Texception
  | Tcallable
  | Titer  (** an iterator over bytes *)

let tag_name = function
  | Any -> "any"
  | Tnull -> "null"
  | Tbool -> "bool"
  | Tint -> "int"
  | Tdouble -> "double"
  | Tstring -> "string"
  | Tbytes -> "bytes"
  | Taddr -> "addr"
  | Tport -> "port"
  | Tnet -> "net"
  | Ttime -> "time"
  | Tinterval -> "interval"
  | Tenum -> "enum"
  | Tbitset -> "bitset"
  | Ttuple -> "tuple"
  | Texception -> "exception"
  | Tcallable -> "callable"
  | Titer -> "iter<bytes>"

let tag_of_value (v : Value.t) : tag =
  match v with
  | Value.Null -> Tnull
  | Value.Bool _ -> Tbool
  | Value.Int _ -> Tint
  | Value.Double _ -> Tdouble
  | Value.String _ -> Tstring
  | Value.Bytes _ -> Tbytes
  | Value.Addr _ -> Taddr
  | Value.Port _ -> Tport
  | Value.Net _ -> Tnet
  | Value.Time _ -> Ttime
  | Value.Interval _ -> Tinterval
  | Value.Enum _ -> Tenum
  | Value.Bitset _ -> Tbitset
  | Value.Tuple _ -> Ttuple
  | Value.Exception _ -> Texception
  | Value.Callable _ -> Tcallable
  | Value.Iter (Value.Ibytes _) -> Titer
  | _ -> Any

let join_tag a b = if a = b then a else Any

type instr =
  | Const of int * Value.t            (** dst <- constant *)
  | Mov of int * int                  (** dst <- src *)
  | LoadGlobal of int * int           (** dst <- globals[slot] *)
  | StoreGlobal of int * int          (** globals[slot] <- src *)
  | Jump of int
  | Br of int * int * int             (** cond, then-pc, else-pc *)
  | Switch of int * int * (Value.t * int) array
  | Call of int * int array * int     (** func idx, arg regs, dst (-1 = none) *)
  | CallC of int * int array * int    (** host slot ([program.host_names]), arg regs, dst *)
  | Ret of int                        (** reg, -1 for void *)
  | TryPush of int * int              (** handler pc, exception dst reg *)
  | TryPop
  | Throw of int
  | Yield
  | HookRun of int array * int array (** hook body func idxs (priority order), arg regs *)
  | Schedule of int * int array * int (** func idx, arg regs, thread-id reg *)
  | Bind of int * int array * int     (** func idx, arg regs, dst: make callable *)
  | Prim of prim * int array * int    (** arg regs, dst (-1 = none) *)
  | Unpack of unpack_fmt * int * int * int
      (** [bytes.unpack_*]: iterator src, value dst, iterator dst *)
  | Read of int * int * int * int
      (** [bytes.read]: iterator src, length, bytes dst, iterator dst *)
  | Nop
  (* Specialized register-bank opcodes, emitted only by {!Specialize} on
     verified programs.  Integer operands live in a per-frame unboxed
     [Bytes.t] bank (8 bytes per slot, native endian), floats in a flat
     [float array]; [UnboxI]/[BoxI]/[UnboxF]/[BoxF] are the only bridges
     between a bank and the boxed {!Value.t} frame. *)
  | IConst_u of int * int64           (** ibank[d] <- k *)
  | IMov_u of int * int               (** ibank[d] <- ibank[s] *)
  | UnboxI of int * int               (** ibank[d] <- as_int regs[s] (bridge) *)
  | BoxI of int * int                 (** regs[d] <- Int ibank[s] (bridge) *)
  | IArith_u of int_arith * int * int * int * int
      (** op, width, dst, a, b — all int-bank slots *)
  | IArithK_u of int_arith * int * int * int * int64
      (** op, width, dst, a, immediate (folded constant-pool operand) *)
  | ICmp_u of cmp * int * int * int   (** regs[d] <- Bool (ibank[a] ? ibank[b]) *)
  | ICmpK_u of cmp * int * int * int64
  | IBrCmp_u of cmp * int * int * int * int
      (** fused compare+branch: a, b, then-pc, else-pc *)
  | IBrCmpK_u of cmp * int * int64 * int * int
  | IIncrJ_u of int * int * int64 * int
      (** fused increment+jump backedge: width, d, k, target *)
  | UnpackI_u of unpack_fmt * int * int * int
      (** [Unpack] with the value into the int bank: src, ibank[d], iterator dst *)
  | FConst_u of int * float           (** fbank[d] <- k *)
  | FMov_u of int * int
  | UnboxF of int * int               (** fbank[d] <- as_double regs[s] (bridge) *)
  | BoxF of int * int                 (** regs[d] <- Double fbank[s] (bridge) *)
  | FArith_u of int_arith * int * int * int   (** op, dst, a, b — float-bank slots *)
  | FCmp_u of cmp * int * int * int   (** regs[d] <- Bool (fbank[a] ? fbank[b]) *)
  | FBrCmp_u of cmp * int * int * int * int
  (* Bank-resident bytes iterators ({!Specialize}).  A split iterator
     register [r] keeps its bytes object in the boxed frame (regs[r] holds
     some iterator into it, the {e base}) and its position in int-bank slot
     [p]: the bank is authoritative, the base's own position goes stale.
     When regs[r] holds no bytes iterator (a parameter of another type, a
     never-written local's default) it is itself the register's value and
     the slot is unused.  Operands below are written [r@p]. *)
  | IPos_u of int * int
      (** ibank[p] <- position of regs[r]; 0 when it is no bytes
          iterator (rebase bridge, after a boxed write of [r]) *)
  | IterBox_u of int * int
      (** regs[r] <- its base moved to ibank[p] (escape bridge: builds an
          iterator only when the position moved) *)
  | PUnpack_u of unpack_fmt * int * int * int * int * int
      (** [Unpack] on a split iterator: src r@p, value dst (boxed),
          iterator dst r@p *)
  | PUnpackI_u of unpack_fmt * int * int * int * int * int
      (** the same with the value into ibank[d] *)
  | PRead_u of int * int * int * int * int * int
      (** [Read] on a split iterator: src r@p, length ibank slot, bytes
          dst, iterator dst r@p *)
  | PReadR_u of int * int * int * int * int * int
      (** the same with the length in a boxed register *)
  | PAdvance_u of int * int * int * int * int
      (** [iter.advance]: dst r@p, src r@p, offset ibank slot *)
  | PAtEnd_u of int * int * int       (** regs[d] <- [iter.at_end] r@p *)
  | PDistance_u of int * int * int * int * int
      (** ibank[d] <- [iter.distance] a@pa b@pb *)
  | BLength_u of int * int            (** ibank[d] <- [bytes.length] regs[s] *)
  | CallP_u of int * int array * int array * int * int * int
      (** parse call: func idx, arg regs, their caller position slots (-1:
          the callee reads the position off the boxed argument), value dst,
          iterator dst r@p.  The callee enters past its prologue and
          returns with [RetP_u]. *)
  | RetP_u of int * int * int
      (** return the pair (regs[v], r@p): to a [CallP_u] as a value plus a
          base and position, to any other caller as the tuple *)

(** Per-function register-bank layout, attached by {!Specialize}.  The
    templates are immutable after specialization: every activation starts
    from them, blitted over its frame's own banks ([Vm.acquire_frame]), so
    no two live activations share a bank. *)
type spec = {
  n_int : int;                (** int-bank slots, incl. scratch *)
  n_float : int;
  ibank_init : Bytes.t;       (** 8*n_int bytes; constant-pool slots preloaded *)
  fbank_init : float array;
  int_slot : int array;       (** boxed reg -> int-bank slot, -1 if unbanked *)
  float_slot : int array;     (** boxed reg -> float-bank slot, -1 if unbanked *)
  iter_slot : int array;
      (** boxed reg -> int-bank slot of its position, -1 if not split *)
  entry_pc : int;
      (** first instruction past the prologue that reads split parameters'
          positions off their boxed values; [CallP_u] enters here, having
          passed the positions in the bank *)
  pair_ret : bool;  (** every return is a [RetP_u]: a [CallP_u] target *)
}

type func = {
  name : string;
  nparams : int;
  nregs : int;
  mutable code : instr array;
  (** rewritten in place by {!Specialize} (bank bridges + fused pairs) *)
  returns_value : bool;
  exported : bool;
  reg_defaults : Value.t array;  (** typed default values for locals *)
  entry_init : bool array;
  (** which registers hold a meaningful value when the frame is created:
      parameters, declared locals (typed defaults) and constant-pool
      registers — lowering temporaries are [false] and must be proven
      defined-before-used by {!Verify}. *)
  mutable typing : tag array;
  (** per-register type-tag assignment (join over all definition sites and
      the entry state), exported by {!Verify.verify_exn}; [[||]] before
      verification *)
  mutable spec : spec option;
  (** register-bank layout, set by {!Specialize}; [None] until then *)
}

type program = {
  funcs : func array;
  func_index : (string, int) Hashtbl.t;
  globals : string array;                   (** slot -> name (post-link layout) *)
  global_defaults : Value.t array;          (** typed initial values per slot *)
  global_index : (string, int) Hashtbl.t;
  hooks : (string, int array) Hashtbl.t;
  (** hook name -> body func idxs, priority order: the host's [run_hook]
      entry; [HookRun] carries its indices *)
  layouts : (string, Value.layout) Hashtbl.t;
  (** struct type -> its one layout, for structs the host builds *)
  host_names : string array;                (** host slot -> host function name *)
  mutable verified : bool;
  (** set (only) by {!Verify} after every function passed the static
      checker; [Vm.create] refuses programs without it, because the
      dispatch loop elides the bounds/definedness checks the verifier
      discharged *)
  mutable specialized : bool;
  (** set (only) by {!Specialize} after rewriting every function onto the
      unboxed register banks *)
}

let find_func p name = Hashtbl.find_opt p.func_index name

(** Rough static instruction count, for reporting. *)
let code_size p =
  Array.fold_left (fun acc f -> acc + Array.length f.code) 0 p.funcs

(* ---- Disassembly ---------------------------------------------------------- *)

let regs rs = String.concat " " (List.map (Printf.sprintf "r%d") (Array.to_list rs))

let cmp_name = function
  | C_eq -> "eq" | C_lt -> "lt" | C_gt -> "gt" | C_leq -> "leq" | C_geq -> "geq"

let unpack_name fmt =
  (if fmt.u_signed then "s" else "u") ^ if fmt.u_big then "be" else "le"

let string_op_name = function
  | S_concat -> "concat" | S_length -> "length" | S_eq -> "eq" | S_lt -> "lt"
  | S_find -> "find" | S_substr -> "substr" | S_to_bytes -> "to_bytes"
  | S_upper -> "to_upper" | S_lower -> "to_lower" | S_starts_with -> "starts_with"
  | S_contains -> "contains" | S_split1 -> "split1" | S_format -> "format"

let bytes_op_name = function
  | B_new -> "new" | B_length -> "length" | B_append -> "append" | B_freeze -> "freeze"
  | B_is_frozen -> "is_frozen" | B_trim -> "trim" | B_sub -> "sub" | B_find -> "find"
  | B_match_prefix -> "match_prefix" | B_can_read -> "can_read"
  | B_to_string -> "to_string" | B_to_int -> "to_int" | B_eq -> "eq"
  | B_starts_with -> "starts_with" | B_contains -> "contains" | B_offset -> "offset"
  | B_upper -> "to_upper" | B_lower -> "to_lower"

let iter_op_name = function
  | I_begin -> "begin" | I_end -> "end" | I_incr -> "incr" | I_advance -> "advance"
  | I_deref -> "deref" | I_eq -> "eq" | I_distance -> "distance" | I_at_end -> "at_end"
  | I_is_eod -> "is_eod" | I_is_frozen -> "is_frozen"

let new_name = function
  | New_struct l -> l.Value.lname
  | New_list -> "list" | New_vector -> "vector" | New_set -> "set" | New_map -> "map"
  | New_channel _ -> "channel" | New_bytes -> "bytes" | New_timer_mgr -> "timer_mgr"
  | New_classifier _ -> "classifier" | New_match_state -> "match_state"

(** A primitive's HILTI mnemonic, with the operands lowering resolved into
    it (struct fields by name, widths, masks). *)
let prim_name (p : prim) =
  let field (l : Value.layout) slot =
    if slot >= 0 && slot < Array.length l.Value.lfields then l.Value.lfields.(slot)
    else string_of_int slot
  in
  match p with
  | P_select -> "select"
  | P_equal -> "equal"
  | P_make_tuple -> "tuple.make"
  | P_new spec -> "new " ^ new_name spec
  | P_bool_and -> "bool.and"
  | P_bool_or -> "bool.or"
  | P_bool_not -> "bool.not"
  | P_int_arith (op, w) -> Printf.sprintf "int.%s.%d" (Int_arith.name op) w
  | P_int_cmp c -> "int." ^ cmp_name c
  | P_int_neg w -> Printf.sprintf "int.neg.%d" w
  | P_int_abs w -> Printf.sprintf "int.abs.%d" w
  | P_int_to_double -> "int.to_double"
  | P_int_to_time -> "int.to_time"
  | P_int_to_interval -> "int.to_interval"
  | P_int_to_string -> "int.to_string"
  | P_double_arith op -> "double." ^ Int_arith.name op
  | P_double_cmp c -> "double." ^ cmp_name c
  | P_double_neg -> "double.neg"
  | P_double_abs -> "double.abs"
  | P_double_to_int -> "double.to_int"
  | P_string op -> "string." ^ string_op_name op
  | P_bytes op -> "bytes." ^ bytes_op_name op
  | P_iter op -> "iter." ^ iter_op_name op
  | P_addr op ->
      "addr." ^ (match op with
                 | AD_family -> "family" | AD_eq -> "eq" | AD_mask -> "mask"
                 | AD_to_string -> "to_string")
  | P_port op ->
      "port." ^ (match op with PO_protocol -> "protocol" | PO_number -> "number" | PO_eq -> "eq")
  | P_net op ->
      "net." ^ (match op with
                | NE_contains -> "contains" | NE_prefix -> "prefix" | NE_length -> "length"
                | NE_eq -> "eq")
  | P_time op ->
      "time." ^ (match op with
                 | TI_add -> "add" | TI_sub -> "sub" | TI_cmp c -> cmp_name c | TI_wall -> "wall"
                 | TI_to_double -> "to_double" | TI_nsecs -> "nsecs")
  | P_interval op ->
      "interval." ^ (match op with
                     | IV_add -> "add" | IV_sub -> "sub" | IV_mul -> "mul" | IV_eq -> "eq"
                     | IV_lt -> "lt" | IV_to_double -> "to_double" | IV_nsecs -> "nsecs")
  | P_tuple_get i -> Printf.sprintf "tuple.get %d" i
  | P_tuple_length -> "tuple.length"
  | P_tuple_eq -> "tuple.eq"
  | P_struct (op, l, slot) ->
      Printf.sprintf "struct.%s .%s"
        (match op with
         | ST_get -> "get" | ST_get_default -> "get_default" | ST_set -> "set"
         | ST_unset -> "unset" | ST_is_set -> "is_set")
        (field l slot)
  | P_enum_from_int (n, _) -> "enum.from_int " ^ n
  | P_enum_value -> "enum.value"
  | P_enum_eq -> "enum.eq"
  | P_bitset_set m -> Printf.sprintf "bitset.set 0x%Lx" m
  | P_bitset_clear m -> Printf.sprintf "bitset.clear 0x%Lx" m
  | P_bitset_has m -> Printf.sprintf "bitset.has 0x%Lx" m
  | P_bitset_eq -> "bitset.eq"
  | P_list op ->
      "list." ^ (match op with
                 | L_append -> "append" | L_push_front -> "push_front"
                 | L_pop_front -> "pop_front" | L_front -> "front" | L_back -> "back"
                 | L_size -> "size" | L_clear -> "clear")
  | P_vector op ->
      "vector." ^ (match op with
                   | V_push_back -> "push_back" | V_get -> "get" | V_set -> "set"
                   | V_size -> "size" | V_reserve -> "reserve" | V_clear -> "clear"
                   | V_pop_back -> "pop_back")
  | P_set op ->
      "set." ^ (match op with
                | SE_insert -> "insert" | SE_exists -> "exists" | SE_remove -> "remove"
                | SE_size -> "size" | SE_clear -> "clear" | SE_timeout -> "timeout")
  | P_map op ->
      "map." ^ (match op with
                | M_insert -> "insert" | M_get -> "get" | M_get_default -> "get_default"
                | M_exists -> "exists" | M_remove -> "remove" | M_size -> "size"
                | M_clear -> "clear" | M_default -> "default" | M_timeout -> "timeout")
  | P_channel op ->
      "channel." ^ (match op with
                    | CH_write -> "write" | CH_read -> "read" | CH_try_read -> "try_read"
                    | CH_size -> "size")
  | P_classifier op ->
      "classifier." ^ (match op with
                       | CL_add -> "add" | CL_compile -> "compile" | CL_get -> "get"
                       | CL_matches -> "matches")
  | P_regexp op ->
      "regexp." ^ (match op with
                   | RE_compile -> "compile" | RE_find -> "find"
                   | RE_match_token -> "match_token" | RE_span -> "span"
                   | RE_groups -> "groups")
  | P_overlay_get o -> Printf.sprintf "overlay.get @%d" o.ov_offset
  | P_timer_new -> "timer.new"
  | P_timer_cancel -> "timer.cancel"
  | P_timer_mgr_schedule -> "timer_mgr.schedule"
  | P_timer_mgr_advance -> "timer_mgr.advance"
  | P_timer_mgr_advance_global -> "timer_mgr.advance_global"
  | P_timer_mgr_current -> "timer_mgr.current"
  | P_timer_mgr_expire_all -> "timer_mgr.expire_all"
  | P_thread_id -> "thread.id"
  | P_exc_new -> "exception.new"
  | P_exc_data -> "exception.data"
  | P_exc_name -> "exception.name"
  | P_file op ->
      "file." ^ (match op with F_open -> "open" | F_write -> "write" | F_close -> "close")
  | P_iosrc_read -> "iosrc.read"
  | P_iosrc_close -> "iosrc.close"
  | P_profiler op ->
      "profiler." ^ (match op with
                     | PR_start -> "start" | PR_stop -> "stop" | PR_snapshot -> "snapshot")
  | P_debug op ->
      "debug." ^ (match op with
                  | D_msg -> "msg" | D_assert -> "assert" | D_internal_error -> "internal_error")
  | P_callable_call -> "callable.call"

(* A split iterator operand: base register and position slot. *)
let split r p = Printf.sprintf "r%d@i%d" r p

let dst d = if d < 0 then "_" else Printf.sprintf "r%d" d

let instr_to_string (i : instr) =
  match i with
  | Const (d, v) -> Printf.sprintf "r%d <- const %s" d (Value.to_string v)
  | Mov (d, s) -> Printf.sprintf "r%d <- r%d" d s
  | LoadGlobal (d, slot) -> Printf.sprintf "r%d <- global[%d]" d slot
  | StoreGlobal (slot, s) -> Printf.sprintf "global[%d] <- r%d" slot s
  | Jump pc -> Printf.sprintf "jump %d" pc
  | Br (c, t, e) -> Printf.sprintf "br r%d ? %d : %d" c t e
  | Switch (v, d, cases) ->
      Printf.sprintf "switch r%d default %d [%s]" v d
        (String.concat "; "
           (List.map
              (fun (c, pc) -> Printf.sprintf "%s->%d" (Value.to_string c) pc)
              (Array.to_list cases)))
  | Call (f, args, d) -> Printf.sprintf "r%d <- call #%d (%s)" d f (regs args)
  | CallC (h, args, d) -> Printf.sprintf "r%d <- callc @%d (%s)" d h (regs args)
  | Ret r -> if r < 0 then "ret" else Printf.sprintf "ret r%d" r
  | TryPush (pc, r) -> Printf.sprintf "try.push @%d -> r%d" pc r
  | TryPop -> "try.pop"
  | Throw r -> Printf.sprintf "throw r%d" r
  | Yield -> "yield"
  | HookRun (fs, args) ->
      Printf.sprintf "hook.run [%s] (%s)"
        (String.concat " " (List.map (Printf.sprintf "#%d") (Array.to_list fs)))
        (regs args)
  | Schedule (f, args, tid) -> Printf.sprintf "schedule #%d (%s) -> thread r%d" f (regs args) tid
  | Bind (f, args, d) -> Printf.sprintf "r%d <- bind #%d (%s)" d f (regs args)
  | Prim (p, args, d) ->
      let ops = if args = [||] then "" else " " ^ regs args in
      if d < 0 then prim_name p ^ ops else Printf.sprintf "r%d <- %s%s" d (prim_name p) ops
  | Unpack (fmt, s, v, i) ->
      Printf.sprintf "r%d, r%d <- unpack.%s%d r%d" v i (unpack_name fmt) fmt.u_width s
  | Read (s, n, v, i) -> Printf.sprintf "r%d, r%d <- read r%d r%d" v i s n
  | Nop -> "nop"
  | UnpackI_u (fmt, s, v, i) ->
      Printf.sprintf "i%d, r%d <- unpack.%s%d r%d" v i (unpack_name fmt) fmt.u_width s
  | IConst_u (d, k) -> Printf.sprintf "i%d <- const %Ld" d k
  | IMov_u (d, s) -> Printf.sprintf "i%d <- i%d" d s
  | UnboxI (d, s) -> Printf.sprintf "i%d <- unbox r%d" d s
  | BoxI (d, s) -> Printf.sprintf "r%d <- box i%d" d s
  | IArith_u (op, w, d, a, b) ->
      Printf.sprintf "i%d <- %s.%d i%d i%d" d (Int_arith.name op) w a b
  | IArithK_u (op, w, d, a, k) ->
      Printf.sprintf "i%d <- %s.%d i%d %Ld" d (Int_arith.name op) w a k
  | ICmp_u (c, d, a, b) -> Printf.sprintf "r%d <- %s i%d i%d" d (cmp_name c) a b
  | ICmpK_u (c, d, a, k) -> Printf.sprintf "r%d <- %s i%d %Ld" d (cmp_name c) a k
  | IBrCmp_u (c, a, b, t, e) ->
      Printf.sprintf "br (%s i%d i%d) ? %d : %d" (cmp_name c) a b t e
  | IBrCmpK_u (c, a, k, t, e) ->
      Printf.sprintf "br (%s i%d %Ld) ? %d : %d" (cmp_name c) a k t e
  | IIncrJ_u (w, d, k, t) -> Printf.sprintf "i%d <- add.%d i%d %Ld; jump %d" d w d k t
  | FConst_u (d, k) -> Printf.sprintf "f%d <- const %g" d k
  | FMov_u (d, s) -> Printf.sprintf "f%d <- f%d" d s
  | UnboxF (d, s) -> Printf.sprintf "f%d <- unbox r%d" d s
  | BoxF (d, s) -> Printf.sprintf "r%d <- box f%d" d s
  | FArith_u (op, d, a, b) ->
      Printf.sprintf "f%d <- %s f%d f%d" d (Int_arith.name op) a b
  | FCmp_u (c, d, a, b) -> Printf.sprintf "r%d <- %s f%d f%d" d (cmp_name c) a b
  | FBrCmp_u (c, a, b, t, e) ->
      Printf.sprintf "br (%s f%d f%d) ? %d : %d" (cmp_name c) a b t e
  | IPos_u (p, r) -> Printf.sprintf "i%d <- pos r%d" p r
  | IterBox_u (r, p) -> Printf.sprintf "r%d <- iter %s" r (split r p)
  | PUnpack_u (fmt, s, ps, v, d, pd) ->
      Printf.sprintf "%s, %s <- unpack.%s%d %s" (dst v) (split d pd) (unpack_name fmt)
        fmt.u_width (split s ps)
  | PUnpackI_u (fmt, s, ps, v, d, pd) ->
      Printf.sprintf "i%d, %s <- unpack.%s%d %s" v (split d pd) (unpack_name fmt)
        fmt.u_width (split s ps)
  | PRead_u (s, ps, n, v, d, pd) ->
      Printf.sprintf "%s, %s <- read %s i%d" (dst v) (split d pd) (split s ps) n
  | PReadR_u (s, ps, n, v, d, pd) ->
      Printf.sprintf "%s, %s <- read %s r%d" (dst v) (split d pd) (split s ps) n
  | PAdvance_u (d, pd, s, ps, n) ->
      Printf.sprintf "%s <- iter.advance %s i%d" (split d pd) (split s ps) n
  | PAtEnd_u (d, s, ps) -> Printf.sprintf "%s <- iter.at_end %s" (dst d) (split s ps)
  | PDistance_u (d, a, pa, b, pb) ->
      Printf.sprintf "i%d <- iter.distance %s %s" d (split a pa) (split b pb)
  | BLength_u (d, s) -> Printf.sprintf "i%d <- bytes.length r%d" d s
  | CallP_u (f, args, apos, v, d, pd) ->
      Printf.sprintf "%s, %s <- call #%d (%s)" (dst v) (split d pd) f
        (String.concat " "
           (List.mapi
              (fun k r -> if apos.(k) >= 0 then split r apos.(k) else Printf.sprintf "r%d" r)
              (Array.to_list args)))
  | RetP_u (v, r, p) -> Printf.sprintf "ret r%d, %s" v (split r p)

let disassemble_func (f : func) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d params, %d regs, %d instrs\n" f.name f.nparams f.nregs
       (Array.length f.code));
  Array.iteri
    (fun i ins -> Buffer.add_string buf (Printf.sprintf "  %04d  %s\n" i (instr_to_string ins)))
    f.code;
  Buffer.contents buf

let disassemble (p : program) =
  String.concat "\n" (List.map disassemble_func (Array.to_list p.funcs))
