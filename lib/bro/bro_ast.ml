(** The Mini-Bro scripting language AST (§4 "Bro Script Compiler").

    Covers the language features the paper's case-study scripts exercise:
    typed globals (including tables/sets with [&default] and
    [&create_expire] attributes), record types, functions, event handlers,
    stateful statements ([add]/[delete]/indexed assignment), [for]-loops
    over containers, and the expression forms of Fig. 8. *)

type btype =
  | T_bool
  | T_count          (** unsigned 64-bit, Bro's workhorse integer *)
  | T_int
  | T_double
  | T_string
  | T_addr
  | T_port
  | T_subnet
  | T_time
  | T_interval
  | T_pattern
  | T_void
  | T_any
  | T_set of btype list          (** set[K1, K2, ...] *)
  | T_table of btype list * btype
  | T_vector of btype
  | T_record of string           (** named record type *)

type expr =
  | E_bool of bool
  | E_count of int64
  | E_double of float
  | E_string of string
  | E_pattern of string
  | E_addr of string
  | E_subnet of string * int
  | E_port of int * string
  | E_interval of float          (** seconds *)
  | E_id of string
  | E_field of expr * string     (** e$f *)
  | E_index of expr * expr list  (** t[k] / t[k1,k2] *)
  | E_in of expr * expr          (** k in t *)
  | E_not_in of expr * expr
  | E_binop of string * expr * expr   (** + - * / % == != < <= > >= && || *)
  | E_not of expr
  | E_neg of expr
  | E_size of expr               (** |e| *)
  | E_call of string * expr list
  | E_record_ctor of (string * expr) list  (** [$f = e, ...] *)
  | E_vector_ctor of expr list   (** vector(e1, e2, ...) *)
  | E_match of expr * expr       (** pattern in string: p in s *)

type stmt =
  | S_expr of expr               (** call for effect *)
  | S_local of string * btype option * expr option
  | S_assign of expr * expr      (** lhs = rhs; lhs: id, field, or index *)
  | S_add of expr                (** add s[k]; *)
  | S_delete of expr             (** delete t[k]; *)
  | S_print of expr list
  | S_if of expr * stmt list * stmt list
  | S_for of string * expr * stmt list   (** for (x in container) *)
  | S_return of expr option
  | S_event of string * expr list        (** event name(args); queued *)

type attr = A_default of expr | A_create_expire of expr | A_read_expire of expr

type decl =
  | D_global of string * btype * expr option * attr list
  | D_record of string * (string * btype) list
  | D_function of string * (string * btype) list * btype * stmt list
  | D_event of string * (string * btype) list * stmt list

type script = decl list

(* ---- Helpers ------------------------------------------------------------------ *)

let rec btype_to_string = function
  | T_bool -> "bool"
  | T_count -> "count"
  | T_int -> "int"
  | T_double -> "double"
  | T_string -> "string"
  | T_addr -> "addr"
  | T_port -> "port"
  | T_subnet -> "subnet"
  | T_time -> "time"
  | T_interval -> "interval"
  | T_pattern -> "pattern"
  | T_void -> "void"
  | T_any -> "any"
  | T_set ks -> "set[" ^ String.concat "," (List.map btype_to_string ks) ^ "]"
  | T_table (ks, v) ->
      "table[" ^ String.concat "," (List.map btype_to_string ks) ^ "] of "
      ^ btype_to_string v
  | T_vector t -> "vector of " ^ btype_to_string t
  | T_record n -> n

let find_record (script : script) name =
  List.find_map
    (function D_record (n, fields) when n = name -> Some fields | _ -> None)
    script
