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
  | Prim (_, args, d) -> Printf.sprintf "r%d <- prim (%s)" d (regs args)
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
