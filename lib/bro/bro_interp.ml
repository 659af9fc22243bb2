(** The standard Mini-Bro script interpreter — the baseline engine that
    §6.5 compares the compiled-to-HILTI scripts against.  A tree-walking
    evaluator over {!Bro_val} values with Bro's built-in functions and the
    logging framework attached.

    Scripts are resolved once, at load, into the tree below: parameters
    and locals are slots of one [Bro_val.t array] frame per activation,
    globals are cells bound once, operators and builtins are variants,
    user functions are direct references, and constants are built once.
    [Log::write] of a record literal to a constant stream renders its
    fields straight into the stream's column order.  Lookups by name that
    remain: event dispatch by event name, record fields (records are
    dynamic values), and record types when a local or global is
    default-constructed.  Sets and tables are keyed by the values
    themselves ({!Bro_val.Key}). *)

open Bro_ast
open Bro_val

(* ---- Resolved tree ---------------------------------------------------------------- *)

(** A global's cell.  It exists from load on, but reads and writes raise
    "unknown identifier" until [init] has run its declaration, as before
    resolution. *)
type global = { gname : string; mutable value : Bro_val.t; mutable bound : bool }

type binop = Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or
  | Bad_op of string

(** A [fmt] format string, split once. *)
type fmt_seg = F_lit of string | F_s | F_d | F_f | F_x | F_bad of char

type builtin =
  | B_fmt | B_cat | B_lower | B_upper | B_to_count | B_sha1 | B_push | B_shift | B_join

type rexpr =
  | R_const of Bro_val.t
  | R_lazy of (unit -> Bro_val.t)
      (** a constant whose construction raised at load: rebuilt, and so
          raises, each time it is evaluated *)
  | R_local of int  (** frame slot *)
  | R_global of global
  | R_unknown of string
  | R_field of rexpr * string
  | R_index of rexpr * rexpr list
  | R_in of rexpr * rexpr
  | R_not_in of rexpr * rexpr
  | R_match of rexpr * rexpr
  | R_binop of binop * rexpr * rexpr
  | R_not of rexpr
  | R_neg of rexpr
  | R_size of rexpr
  | R_record of string array * rexpr array
  | R_vector of rexpr list
  | R_network_time
  | R_builtin of builtin * rexpr list
  | R_fmt of fmt_seg array * rexpr list  (** [fmt] with a constant format *)
  | R_call of func * rexpr list
  | R_call_arity of func * rexpr list
  | R_unknown_fn of string
  | R_log of log_site  (** [Log::write("s", [$f = e, ...])] *)
  | R_log_dyn of rexpr * rexpr
  | R_log_arity

(** A function or event handler body with its frame size. *)
and func = {
  fname : string;
  nparams : int;
  mutable nslots : int;
  mutable body : rstmt list;
}

and log_site = {
  lstream_name : string;
  lfields : string array;  (** the literal's field names, in order *)
  lexprs : rexpr array;
  mutable lstream : Bro_log.stream option;  (** bound on first write *)
  mutable lcols : string array;  (** the columns [lfrom] was built for *)
  mutable lfrom : int array;  (** column -> last field naming it, or -1 *)
}

and rstmt =
  | X_expr of rexpr
  | X_local of int * rexpr
  | X_local_default of int * btype
  | X_local_untyped of string
  | X_set_local of int * rexpr
  | X_set_global of global * rexpr
  | X_set_unknown of string * rexpr
  | X_set_field of rexpr * string * rexpr  (** record, field, value *)
  | X_set_index of rexpr * rexpr list * rexpr  (** container, keys, value *)
  | X_bad_assign of rexpr
  | X_add of rexpr * rexpr list
  | X_delete of rexpr * rexpr list
  | X_error of string  (** a malformed statement, raising when run *)
  | X_print of rexpr list
  | X_if of rexpr * rstmt list * rstmt list
  | X_for of int * rexpr * rstmt list
  | X_return of rexpr option
  | X_event of string * rexpr list

type t = {
  globals : (string, global) Hashtbl.t;
  functions : (string, func) Hashtbl.t;
  handlers : (string, func list) Hashtbl.t;
  records : (string, (string * btype) list) Hashtbl.t;
  mutable inits : (global * btype * rexpr option * rexpr list) list;
      (** global declarations in order: initializer, [&default]s *)
  logger : Bro_log.t;
  mutable print_sink : string -> unit;
  queue : (string * Bro_val.t list) Queue.t;
  mutable network_time : Hilti_types.Time_ns.t;
  mutable now : Bro_val.t;  (** [Vtime network_time], built once per update *)
  scratch : Buffer.t;  (** [fmt]/[join] output; never live across an evaluation *)
}

exception Return_exc of Bro_val.t

(* ---- Defaults ------------------------------------------------------------------ *)

let rec default_of_type t (ty : btype) : Bro_val.t =
  match ty with
  | T_bool -> Vbool false
  | T_count | T_int -> Vcount 0L
  | T_double -> Vdouble 0.0
  | T_string -> Vstring ""
  | T_addr -> Vaddr (Hilti_types.Addr.of_ipv4_octets 0 0 0 0)
  | T_port -> Vport (Hilti_types.Port.tcp 0)
  | T_subnet -> Vsubnet (Hilti_types.Network.make (Hilti_types.Addr.of_ipv4_octets 0 0 0 0) 0)
  | T_time -> Vtime Hilti_types.Time_ns.epoch
  | T_interval -> Vinterval Hilti_types.Interval_ns.zero
  | T_pattern -> Vpattern ("", Hilti_rt.Regexp.compile_one "")
  | T_set _ -> Vset (Keytbl.create 16)
  | T_table _ -> Vtable { entries = Keytbl.create 16; default = None }
  | T_vector _ -> Vvector (Hilti_vm.Deque.create ())
  | T_record name ->
      let fields =
        match Hashtbl.find_opt t.records name with
        | Some fs -> fs
        | None -> error "unknown record type %s" name
      in
      new_record name (List.map (fun (n, ft) -> (n, default_of_type t ft)) fields)
  | T_void | T_any -> Vvoid

(* ---- Operators and formatting ------------------------------------------------------ *)

let v_true = Vbool true
let v_false = Vbool false
let vbool b = if b then v_true else v_false

let as_num = function
  | Vcount c | Vint c -> `I c
  | Vdouble d -> `D d
  | Vtime ts -> `I (Hilti_types.Time_ns.to_ns ts)
  | Vinterval i -> `I (Hilti_types.Interval_ns.to_ns i)
  | v -> error "expected numeric value, got %s" (to_debug v)

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||" | Bad_op s -> s

let binop_of_string = function
  | "+" -> Add | "-" -> Sub | "*" -> Mul | "/" -> Div | "%" -> Mod
  | "==" -> Eq | "!=" -> Ne | "<" -> Lt | "<=" -> Le | ">" -> Gt | ">=" -> Ge
  | "&&" -> And | "||" -> Or | s -> Bad_op s

let numeric_binop op a b =
  match (a, b) with
  | (Vcount x | Vint x), (Vcount y | Vint y) when op == Add -> Vcount (Int64.add x y)
  | (Vcount x | Vint x), (Vcount y | Vint y) when op == Sub -> Vcount (Int64.sub x y)
  | _ -> (
      match (as_num a, as_num b) with
      | `I x, `I y -> (
          let wrap v =
            (* preserve time/interval kinds through arithmetic *)
            match (a, b) with
            | Vtime _, Vinterval _ | Vinterval _, Vtime _ -> Vtime (Hilti_types.Time_ns.of_ns v)
            | Vtime _, Vtime _ -> Vinterval (Hilti_types.Interval_ns.of_ns v)
            | Vinterval _, Vinterval _ -> Vinterval (Hilti_types.Interval_ns.of_ns v)
            | _ -> Vcount v
          in
          match op with
          | Add -> wrap (Int64.add x y)
          | Sub -> wrap (Int64.sub x y)
          | Mul -> Vcount (Int64.mul x y)
          | Div -> if y = 0L then error "division by zero" else Vcount (Int64.div x y)
          | Mod -> if y = 0L then error "modulo by zero" else Vcount (Int64.rem x y)
          | op -> error "bad numeric op %s" (binop_name op))
      | x, y -> (
          let fx = match x with `I v -> Int64.to_float v | `D d -> d in
          let fy = match y with `I v -> Int64.to_float v | `D d -> d in
          match op with
          | Add -> Vdouble (fx +. fy)
          | Sub -> Vdouble (fx -. fy)
          | Mul -> Vdouble (fx *. fy)
          | Div -> if fy = 0.0 then error "division by zero" else Vdouble (fx /. fy)
          | op -> error "bad numeric op %s" (binop_name op)))

let compare_vals a b =
  match (a, b) with
  | (Vcount x | Vint x), (Vcount y | Vint y) -> Int64.compare x y
  | Vstring x, Vstring y -> String.compare x y
  | Vtime x, Vtime y -> Hilti_types.Time_ns.compare x y
  | Vinterval x, Vinterval y -> Hilti_types.Interval_ns.compare x y
  | _ -> (
      match (as_num a, as_num b) with
      | `I x, `I y -> Int64.compare x y
      | x, y ->
          let fx = match x with `I v -> Int64.to_float v | `D d -> d in
          let fy = match y with `I v -> Int64.to_float v | `D d -> d in
          Float.compare fx fy)

(* fmt(): the %-directives Bro scripts lean on.  A directive the format
   does not support raises only when formatting reaches it. *)
let fmt_compile f =
  let n = String.length f in
  let segs = ref [] and lit = Buffer.create 16 in
  let flush () =
    if Buffer.length lit > 0 then begin
      segs := F_lit (Buffer.contents lit) :: !segs;
      Buffer.clear lit
    end
  in
  let i = ref 0 in
  while !i < n do
    if f.[!i] = '%' && !i + 1 < n then begin
      (match f.[!i + 1] with
      | '%' -> Buffer.add_char lit '%'
      | c ->
          flush ();
          segs :=
            (match c with
            | 's' -> F_s
            | 'd' -> F_d
            | 'f' -> F_f
            | 'x' -> F_x
            | c -> F_bad c)
            :: !segs);
      i := !i + 2
    end
    else begin
      Buffer.add_char lit f.[!i];
      incr i
    end
  done;
  flush ();
  Array.of_list (List.rev !segs)

let add_directive b seg v =
  match seg with
  | F_s -> add_rendered b v
  | F_d -> (
      match v with
      | Vcount x | Vint x -> Hilti_types.Digits.add_int64 b x
      | _ -> (
      match as_num v with
      | `I x -> Hilti_types.Digits.add_int64 b x
      | `D d -> Hilti_types.Digits.add_int b (int_of_float d)))
  | F_f -> (
      match as_num v with
      | `I x -> Buffer.add_string b (Printf.sprintf "%f" (Int64.to_float x))
      | `D d -> Buffer.add_string b (Printf.sprintf "%f" d))
  | F_x -> (
      match as_num v with
      | `I x -> Buffer.add_string b (Printf.sprintf "%Lx" x)
      | `D _ -> error "fmt: %%x on double")
  | F_lit _ | F_bad _ -> assert false

(* [add_directive] of a HILTI value, as of its {!Bro_val.of_hilti_raw}
   form: [%s] and [%d] of an int render in place. *)
let add_hilti_directive b seg (v : Hilti_vm.Value.t) =
  match (seg, v) with
  | F_s, v -> add_hilti b v
  | F_d, Hilti_vm.Value.Int x -> Hilti_types.Digits.add_int64 b x
  | seg, v -> add_directive b seg (of_hilti_raw v)

(* Run [segs] over [args], each directive's argument appended by [add]. *)
let rec fmt_segs add b segs i args =
  if i < Array.length segs then
    match segs.(i) with
    | F_lit s ->
        Buffer.add_string b s;
        fmt_segs add b segs (i + 1) args
    | F_bad c -> error "fmt: unsupported %%%c" c
    | seg -> (
        match args with
        | [] -> error "fmt: not enough arguments"
        | v :: rest ->
            add b seg v;
            fmt_segs add b segs (i + 1) rest)

let fmt_run b segs args =
  Buffer.clear b;
  fmt_segs add_directive b segs 0 args;
  Buffer.contents b

(** [fmt_run] over HILTI values, for the compiled engine: the same plan
    renders the same text as over the values' Bro forms. *)
let fmt_run_hilti b segs args =
  Buffer.clear b;
  fmt_segs add_hilti_directive b segs 0 args;
  Buffer.contents b

(** The builtins by script name: the interpreter resolves calls through
    this table, and {!Bro_engine} registers the compiled engine's
    [Bro::] host functions from it. *)
let builtin_of_name = function
  | "fmt" -> Some B_fmt
  | "cat" -> Some B_cat
  | "to_lower" | "lower" -> Some B_lower
  | "to_upper" -> Some B_upper
  | "to_count" -> Some B_to_count
  | "sha1" -> Some B_sha1
  | "push" -> Some B_push
  | "shift" -> Some B_shift
  | "join" -> Some B_join
  | _ -> None

(** Apply builtin [b] to evaluated arguments; [fmt] and [join] build their
    result in [buf]. *)
let apply_builtin buf b vals =
  match (b, vals) with
  | B_fmt, Vstring f :: rest -> Vstring (fmt_run buf (fmt_compile f) rest)
  | B_fmt, _ -> error "fmt: first argument must be a string"
  | B_cat, vs -> Vstring (String.concat "" (List.map to_string vs))
  | B_lower, [ Vstring s ] -> Vstring (String.lowercase_ascii s)
  | B_lower, _ -> error "to_lower: bad arguments"
  | B_upper, [ Vstring s ] -> Vstring (String.uppercase_ascii s)
  | B_upper, _ -> error "to_upper: bad arguments"
  | B_to_count, [ Vstring s ] -> (
      match Int64.of_string_opt (String.trim s) with
      | Some v -> Vcount v
      | None -> Vcount 0L)
  | B_to_count, _ -> error "to_count: bad arguments"
  | B_sha1, [ Vstring s ] -> Vstring (Sha1.digest s)
  | B_sha1, _ -> error "sha1: bad arguments"
  | B_push, [ Vvector v; x ] ->
      Hilti_vm.Deque.push_back v x;
      Vvoid
  | B_push, _ -> error "push: bad arguments"
  | B_shift, [ Vvector v ] -> (
      match Hilti_vm.Deque.pop_front v with
      | Some x -> x
      | None -> error "shift: empty vector")
  | B_shift, _ -> error "shift: bad arguments"
  | B_join, [ Vvector v; Vstring sep ] ->
      Buffer.clear buf;
      let first = ref true in
      Hilti_vm.Deque.iter
        (fun x ->
          if !first then first := false else Buffer.add_string buf sep;
          add_rendered buf x)
        v;
      Vstring (Buffer.contents buf)
  | B_join, _ -> error "join: bad arguments"

(* ---- Resolution -------------------------------------------------------------------- *)

(* Per function: the next free frame slot and the frame size so far.  A
   block's slots are free again once it ends. *)
type rctx = { mutable next : int; mutable hi : int }

let new_slot ctx =
  let s = ctx.next in
  ctx.next <- s + 1;
  if ctx.next > ctx.hi then ctx.hi <- ctx.next;
  s

(* Innermost binding first. *)
let rec find_local env name =
  match env with
  | [] -> None
  | (n, slot) :: rest -> if String.equal n name then Some slot else find_local rest name

let const f = match f () with v -> R_const v | exception _ -> R_lazy f

let rec resolve t env (e : expr) : rexpr =
  let res = resolve t env in
  match e with
  | E_bool b -> R_const (vbool b)
  | E_count c -> R_const (Vcount c)
  | E_double d -> R_const (Vdouble d)
  | E_string s -> R_const (Vstring s)
  | E_pattern src -> const (fun () -> Vpattern (src, Hilti_rt.Regexp.compile_one src))
  | E_addr a -> const (fun () -> Vaddr (Hilti_types.Addr.of_string a))
  | E_subnet (a, l) ->
      const (fun () -> Vsubnet (Hilti_types.Network.make (Hilti_types.Addr.of_string a) l))
  | E_port (n, proto) ->
      const (fun () -> Vport (Hilti_types.Port.make n (Hilti_types.Port.proto_of_string proto)))
  | E_interval secs -> R_const (Vinterval (Hilti_types.Interval_ns.of_float secs))
  | E_id name -> (
      match find_local env name with
      | Some slot -> R_local slot
      | None -> (
          match Hashtbl.find_opt t.globals name with
          | Some g -> R_global g
          | None -> R_unknown name))
  | E_field (e, f) -> R_field (res e, f)
  | E_index (e, keys) -> R_index (res e, List.map res keys)
  | E_in (k, c) -> R_in (res k, res c)
  | E_not_in (k, c) -> R_not_in (res k, res c)
  | E_match (p, s) -> R_match (res p, res s)
  | E_binop (op, a, b) -> R_binop (binop_of_string op, res a, res b)
  | E_not e -> R_not (res e)
  | E_neg e -> R_neg (res e)
  | E_size e -> R_size (res e)
  | E_record_ctor fields ->
      R_record (Array.of_list (List.map fst fields), Array.of_list (List.map (fun (_, e) -> res e) fields))
  | E_vector_ctor es -> R_vector (List.map res es)
  | E_call (fn, args) -> (
      match (fn, args) with
      | "fmt", E_string f :: rest -> R_fmt (fmt_compile f, List.map res rest)
      | "network_time", _ -> R_network_time
      | "Log::write", [ E_string stream; E_record_ctor fields ] ->
          R_log
            {
              lstream_name = stream;
              lfields = Array.of_list (List.map fst fields);
              lexprs = Array.of_list (List.map (fun (_, e) -> res e) fields);
              lstream = None;
              lcols = [||];
              lfrom = [||];
            }
      | "Log::write", [ stream; record ] -> R_log_dyn (res stream, res record)
      | "Log::write", _ -> R_log_arity
      | _ -> (
          match (builtin_of_name fn, Hashtbl.find_opt t.functions fn) with
          | Some b, _ -> R_builtin (b, List.map res args)
          | None, Some f when List.length args = f.nparams -> R_call (f, List.map res args)
          | None, Some f -> R_call_arity (f, List.map res args)
          | None, None -> R_unknown_fn fn))

(* A block: its locals are visible to the statements after them, and its
   slots are free again when it ends. *)
let rec resolve_block t ctx env stmts =
  let saved = ctx.next in
  let rec go env = function
    | [] -> []
    | S_local (name, ty, init) :: rest ->
        (* The initializer does not see the name it binds. *)
        let init = Option.map (resolve t env) init in
        let slot = new_slot ctx in
        let s =
          match (init, ty) with
          | Some e, _ -> X_local (slot, e)
          | None, Some ty -> X_local_default (slot, ty)
          | None, None -> X_local_untyped name
        in
        s :: go ((name, slot) :: env) rest
    | s :: rest ->
        let s = resolve_stmt t ctx env s in
        s :: go env rest
  in
  let out = go env stmts in
  ctx.next <- saved;
  out

and resolve_stmt t ctx env (s : stmt) : rstmt =
  let res = resolve t env in
  match s with
  | S_local _ -> assert false (* handled by [resolve_block] *)
  | S_expr e -> X_expr (res e)
  | S_assign (lhs, rhs) -> (
      let v = res rhs in
      match lhs with
      | E_id name -> (
          match res lhs with
          | R_local slot -> X_set_local (slot, v)
          | R_global g -> X_set_global (g, v)
          | _ -> X_set_unknown (name, v))
      | E_field (e, f) -> X_set_field (res e, f, v)
      | E_index (e, keys) -> X_set_index (res e, List.map res keys, v)
      | _ -> X_bad_assign v)
  | S_add (E_index (se, keys)) -> X_add (res se, List.map res keys)
  | S_add _ -> X_error "add expects s[k]"
  | S_delete (E_index (se, keys)) -> X_delete (res se, List.map res keys)
  | S_delete _ -> X_error "delete expects t[k]"
  | S_print args -> X_print (List.map res args)
  | S_if (c, thens, elses) ->
      let c = res c in
      let thens = resolve_block t ctx env thens in
      X_if (c, thens, resolve_block t ctx env elses)
  | S_for (var, e, body) ->
      let e = res e in
      let saved = ctx.next in
      let slot = new_slot ctx in
      let body = resolve_block t ctx ((var, slot) :: env) body in
      ctx.next <- saved;
      X_for (slot, e, body)
  | S_return None -> X_return None
  | S_return (Some e) -> X_return (Some (res e))
  | S_event (name, args) -> X_event (name, List.map res args)

(* Parameters take slots 0..n-1, in the same scope as the body's
   top-level locals. *)
let resolve_func t (f : func) params body =
  let ctx = { next = 0; hi = 0 } in
  let env = List.fold_left (fun env (n, _) -> (n, new_slot ctx) :: env) [] params in
  f.body <- resolve_block t ctx env body;
  f.nslots <- ctx.hi

(* ---- Loading ---------------------------------------------------------------------- *)

let load ?(logger = Bro_log.create ()) (script : script) : t =
  let t =
    {
      globals = Hashtbl.create 32;
      functions = Hashtbl.create 16;
      handlers = Hashtbl.create 16;
      records = Hashtbl.create 16;
      inits = [];
      logger;
      print_sink = print_endline;
      queue = Queue.create ();
      network_time = Hilti_types.Time_ns.epoch;
      now = Vtime Hilti_types.Time_ns.epoch;
      scratch = Buffer.create 64;
    }
  in
  let func fname params = { fname; nparams = List.length params; nslots = 0; body = [] } in
  (* Every name first, so bodies can refer to any global or function; a
     later definition of a function wins. *)
  let defs = Hashtbl.create 16 in
  List.iter
    (function
      | D_record (n, fs) -> Hashtbl.replace t.records n fs
      | D_global (n, _, _, _) ->
          if not (Hashtbl.mem t.globals n) then
            Hashtbl.replace t.globals n { gname = n; value = Vvoid; bound = false }
      | D_function (n, params, _, body) ->
          Hashtbl.replace t.functions n (func n params);
          Hashtbl.replace defs n (params, body)
      | D_event _ -> ())
    script;
  Hashtbl.iter
    (fun n (params, body) -> resolve_func t (Hashtbl.find t.functions n) params body)
    defs;
  List.iter
    (function
      | D_event (n, params, body) ->
          let h = func n params in
          resolve_func t h params body;
          let existing = Option.value ~default:[] (Hashtbl.find_opt t.handlers n) in
          Hashtbl.replace t.handlers n (existing @ [ h ])
      | D_global (n, ty, init, attrs) ->
          let res = resolve t [] in
          let defaults =
            List.filter_map (function A_default d -> Some (res d) | _ -> None) attrs
          in
          t.inits <- (Hashtbl.find t.globals n, ty, Option.map res init, defaults) :: t.inits
      | D_record _ | D_function _ -> ())
    script;
  t.inits <- List.rev t.inits;
  t

(* ---- Evaluation ------------------------------------------------------------------------ *)

(* [needle] occurs in [hay] at [i]. *)
let occurs_at hay needle i =
  let rec go j = j >= String.length needle || (hay.[i + j] = needle.[j] && go (j + 1)) in
  go 0

(* The value logged for field [k] of a record literal: the last field of
   that name that is not void. *)
let rec log_value site vals k =
  match vals.(k) with
  | Vvoid ->
      let name = site.lfields.(k) in
      let rec earlier j =
        if j < 0 then Vvoid
        else if String.equal site.lfields.(j) name then log_value site vals j
        else earlier (j - 1)
      in
      earlier (k - 1)
  | v -> v

(* The same rule for a record value. *)
let record_log_value r col =
  let rec go k =
    if k < 0 then Vvoid
    else
      match r.rvals.(k) with
      | Vvoid -> go (k - 1)
      | v -> if String.equal r.rnames.(k) col then v else go (k - 1)
  in
  go (Array.length r.rnames - 1)

let bind_log_site t site =
  let s =
    match site.lstream with
    | Some s -> s
    | None ->
        let s = Bro_log.stream t.logger site.lstream_name in
        site.lstream <- Some s;
        s
  in
  if site.lcols != s.Bro_log.columns then begin
    let from = Array.make (Array.length s.Bro_log.columns) (-1) in
    Array.iteri
      (fun k f -> match Bro_log.column s f with -1 -> () | c -> from.(c) <- k)
      site.lfields;
    site.lfrom <- from;
    site.lcols <- s.Bro_log.columns
  end;
  s

let rec eval t (fr : Bro_val.t array) (e : rexpr) : Bro_val.t =
  match e with
  | R_const v -> v
  | R_local slot -> fr.(slot)
  | R_global g -> if g.bound then g.value else error "unknown identifier %s" g.gname
  | R_field (e, f) -> (
      match eval t fr e with
      | Vrecord r -> (
          match record_index r f with
          | -1 -> error "field %s not set" f
          | i -> (
              match r.rvals.(i) with
              | Vvoid -> error "field %s not set" f
              | v -> v))
      | v -> error "$%s on non-record %s" f (to_debug v))
  | R_index (e, keys) -> (
      let kv = eval_list t fr keys in
      match eval t fr e with
      | Vtable tbl -> (
          let key = index_key kv in
          match Keytbl.find_opt tbl.entries key with
          | Some v -> v
          | None -> (
              match tbl.default with
              | Some d ->
                  let v = deep_copy d in
                  Keytbl.replace tbl.entries (stored_key key) v;
                  v
              | None -> error "no such index"))
      | Vvector vec -> (
          match kv with
          | [ k ] ->
              let i = match as_num k with `I v -> v | `D d -> Int64.of_int (int_of_float d) in
              if Int64.compare i 0L < 0 || Int64.compare i (Int64.of_int (Hilti_vm.Deque.size vec)) >= 0
              then error "vector index out of range"
              else Hilti_vm.Deque.get vec (Int64.to_int i)
          | _ -> error "vector index arity")
      | v -> error "indexing non-container %s" (to_debug v))
  | R_in (k, c) -> vbool (eval_in t fr k c)
  | R_not_in (k, c) -> vbool (not (eval_in t fr k c))
  | R_match (pat, s) -> (
      let s = eval t fr s in
      match (eval t fr pat, s) with
      | Vpattern (_, re), Vstring str -> vbool (Hilti_rt.Regexp.contains re str)
      | _ -> error "bad pattern match")
  | R_binop (And, a, b) -> (
      match eval t fr a with
      | Vbool false -> v_false
      | Vbool true -> eval t fr b
      | v -> error "&& on %s" (to_debug v))
  | R_binop (Or, a, b) -> (
      match eval t fr a with
      | Vbool true -> v_true
      | Vbool false -> eval t fr b
      | v -> error "|| on %s" (to_debug v))
  | R_binop (op, a, b) -> (
      (* The right operand first, as the interpreter always has. *)
      let y = eval t fr b in
      let x = eval t fr a in
      match op with
      | Eq -> vbool (Bro_val.equal x y)
      | Ne -> vbool (not (Bro_val.equal x y))
      | Lt -> vbool (compare_vals x y < 0)
      | Le -> vbool (compare_vals x y <= 0)
      | Gt -> vbool (compare_vals x y > 0)
      | Ge -> vbool (compare_vals x y >= 0)
      | Add -> (
          match (x, y) with
          | Vstring x, Vstring y -> Vstring (x ^ y)
          | _ -> numeric_binop op x y)
      | op -> numeric_binop op x y)
  | R_not e -> (
      match eval t fr e with
      | Vbool b -> vbool (not b)
      | v -> error "! on %s" (to_debug v))
  | R_neg e -> (
      match eval t fr e with
      | Vcount c -> Vint (Int64.neg c)
      | Vint c -> Vint (Int64.neg c)
      | Vdouble d -> Vdouble (-.d)
      | v -> error "unary - on %s" (to_debug v))
  | R_size e -> (
      match eval t fr e with
      | Vstring s -> Vcount (Int64.of_int (String.length s))
      | Vset s -> Vcount (Int64.of_int (Keytbl.length s))
      | Vtable tbl -> Vcount (Int64.of_int (Keytbl.length tbl.entries))
      | Vvector v -> Vcount (Int64.of_int (Hilti_vm.Deque.size v))
      | v -> error "|..| on %s" (to_debug v))
  | R_record (names, es) ->
      let vals = Array.make (Array.length es) Vvoid in
      for i = 0 to Array.length es - 1 do
        vals.(i) <- eval t fr es.(i)
      done;
      Vrecord { rtype = "<anon>"; rnames = names; rvals = vals }
  | R_vector es -> Vvector (Hilti_vm.Deque.of_list (eval_list t fr es))
  | R_network_time -> t.now
  | R_fmt (segs, args) -> Vstring (fmt_run t.scratch segs (eval_list t fr args))
  | R_builtin (b, args) -> apply_builtin t.scratch b (eval_list t fr args)
  | R_call (f, args) ->
      let callee = Array.make f.nslots Vvoid in
      bind_args t fr callee 0 args;
      invoke t f callee
  | R_call_arity (f, args) ->
      ignore (eval_list t fr args);
      error "function %s: arity mismatch" f.fname
  | R_unknown_fn fn -> error "unknown function %s" fn
  | R_unknown name -> error "unknown identifier %s" name
  | R_lazy f -> f ()
  | R_log site ->
      let n = Array.length site.lexprs in
      let vals = Array.make n Vvoid in
      for k = 0 to n - 1 do
        vals.(k) <- eval t fr site.lexprs.(k)
      done;
      let s = bind_log_site t site in
      Bro_log.write_row t.logger s (fun b i ->
          match site.lfrom.(i) with -1 -> () | k -> add_log_field b (log_value site vals k));
      Vvoid
  | R_log_dyn (stream_e, rec_e) -> (
      let stream =
        match eval t fr stream_e with
        | Vstring s -> s
        | v -> error "Log::write stream: %s" (to_debug v)
      in
      match eval t fr rec_e with
      | Vrecord r ->
          let s = Bro_log.stream t.logger stream in
          Bro_log.write_row t.logger s (fun b i ->
              add_log_field b (record_log_value r s.Bro_log.columns.(i)));
          Vvoid
      | v -> error "Log::write record: %s" (to_debug v))
  | R_log_arity -> error "Log::write arity"

and eval_list t fr = function
  | [] -> []
  | e :: es ->
      let v = eval t fr e in
      v :: eval_list t fr es

and eval_in t fr k c =
  let kv = eval t fr k in
  match eval t fr c with
  | Vset s -> Keytbl.mem s (single_key kv)
  | Vtable tbl -> Keytbl.mem tbl.entries (single_key kv)
  | Vstring hay -> (
      match kv with
      | Vstring needle ->
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (occurs_at hay needle i || go (i + 1)) in
          nl = 0 || go 0
      | v -> error "'in' on string with %s" (to_debug v))
  | v -> error "'in' on %s" (to_debug v)

and bind_args t fr callee i = function
  | [] -> ()
  | e :: es ->
      callee.(i) <- eval t fr e;
      bind_args t fr callee (i + 1) es

and invoke t f frame =
  try
    exec_list t frame f.body;
    Vvoid
  with Return_exc v -> v

(* ---- Statement execution --------------------------------------------------------- *)

and exec_list t fr = function
  | [] -> ()
  | s :: rest ->
      exec t fr s;
      exec_list t fr rest

and exec t fr (s : rstmt) =
  match s with
  | X_expr e -> ignore (eval t fr e)
  | X_local (slot, e) -> fr.(slot) <- eval t fr e
  | X_local_default (slot, ty) -> fr.(slot) <- default_of_type t ty
  | X_local_untyped name -> error "local %s needs a type or initializer" name
  | X_set_local (slot, e) -> fr.(slot) <- eval t fr e
  | X_set_global (g, e) ->
      let v = eval t fr e in
      if g.bound then g.value <- v else error "unknown identifier %s" g.gname
  | X_set_unknown (name, e) ->
      ignore (eval t fr e);
      error "unknown identifier %s" name
  | X_set_field (re, f, e) -> (
      let v = eval t fr e in
      match eval t fr re with
      | Vrecord r -> record_set r f v
      | x -> error "$%s on %s" f (to_debug x))
  | X_set_index (ce, keys, e) -> (
      let v = eval t fr e in
      let kv = eval_list t fr keys in
      match eval t fr ce with
      | Vtable tbl -> Keytbl.replace tbl.entries (stored_key (index_key kv)) v
      | x -> error "index-assign on %s" (to_debug x))
  | X_bad_assign e ->
      ignore (eval t fr e);
      error "bad assignment target"
  | X_add (se, keys) -> (
      let kv = eval_list t fr keys in
      match eval t fr se with
      | Vset s -> Keytbl.replace s (stored_key (index_key kv)) ()
      | x -> error "add on %s" (to_debug x))
  | X_delete (se, keys) -> (
      let kv = eval_list t fr keys in
      match eval t fr se with
      | Vset s -> Keytbl.remove s (index_key kv)
      | Vtable tbl -> Keytbl.remove tbl.entries (index_key kv)
      | x -> error "delete on %s" (to_debug x))
  | X_error msg -> error "%s" msg
  | X_print args ->
      let rendered = String.concat ", " (List.map to_string (eval_list t fr args)) in
      t.print_sink rendered
  | X_if (c, thens, elses) -> (
      match eval t fr c with
      | Vbool true -> exec_list t fr thens
      | Vbool false -> exec_list t fr elses
      | v -> error "if on %s" (to_debug v))
  | X_for (slot, e, body) ->
      let items =
        match eval t fr e with
        | Vset s -> sort_keys (Keytbl.fold (fun k () acc -> k :: acc) s [])
        | Vtable tbl -> sort_keys (Keytbl.fold (fun k _ acc -> k :: acc) tbl.entries [])
        | Vvector v -> Hilti_vm.Deque.to_list v
        | v -> error "for over %s" (to_debug v)
      in
      List.iter
        (fun item ->
          fr.(slot) <- item;
          exec_list t fr body)
        items
  | X_return None -> raise_notrace (Return_exc Vvoid)
  | X_return (Some e) -> raise_notrace (Return_exc (eval t fr e))
  | X_event (name, args) -> Queue.add (name, eval_list t fr args) t.queue

(* ---- Engine interface --------------------------------------------------------------- *)

(** Initialize globals (after records are known); runs initializers and
    attaches &default. *)
let init t =
  List.iter
    (fun (g, ty, init, defaults) ->
      let v = match init with Some e -> eval t [||] e | None -> default_of_type t ty in
      (match v with
      | Vtable tbl -> List.iter (fun d -> tbl.default <- Some (eval t [||] d)) defaults
      | _ -> ());
      g.value <- v;
      g.bound <- true)
    t.inits

(* Fill [f]'s parameter slots [i..] of [frame] from [args]. *)
let rec fill_params (f : func) what frame i = function
  | [] -> if i <> f.nparams then error "%s %s: arity mismatch" what f.fname
  | v :: rest ->
      if i >= f.nparams then error "%s %s: arity mismatch" what f.fname;
      frame.(i) <- v;
      fill_params f what frame (i + 1) rest

(* A frame holding [args] in its parameter slots. *)
let frame_of (f : func) what (args : Bro_val.t list) =
  let frame = Array.make f.nslots Vvoid in
  fill_params f what frame 0 args;
  frame

let rec run_handlers t args = function
  | [] -> ()
  | h :: hs ->
      (let frame = frame_of h "event" args in
       try exec_list t frame h.body with Return_exc _ -> ());
      run_handlers t args hs

(** Run all handlers for [name], then drain any events they queued. *)
let rec dispatch t name (args : Bro_val.t list) =
  (match Hashtbl.find_opt t.handlers name with
  | Some handlers -> run_handlers t args handlers
  | None -> ());
  drain t

and drain t =
  while not (Queue.is_empty t.queue) do
    let name, args = Queue.take t.queue in
    dispatch t name args
  done

let set_network_time t ts =
  t.network_time <- ts;
  t.now <- Vtime ts

(** Call a script function with values (used by benchmarks, e.g. fib). *)
let call_value t name (args : Bro_val.t list) : Bro_val.t =
  match Hashtbl.find_opt t.functions name with
  | Some f -> invoke t f (frame_of f "function" args)
  | None -> error "unknown function %s" name
