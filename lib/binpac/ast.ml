(** BinPAC++ grammar AST (§4 "A Yacc for Network Protocols", Fig. 6/7).

    A grammar module declares named token constants (regular expressions)
    and [unit] types composed of fields parsed in sequence.  Beyond pure
    syntax, units carry variables and hooks with imperative statements —
    the "semantic constructs for annotating, controlling, and interfacing
    to the parsing process" that BinPAC++ adds over classic BinPAC. *)

(* ---- Expressions (attribute arguments, conditions, hook statements) ------- *)

type expr =
  | E_int of int64
  | E_bool of bool
  | E_bytes of string           (** string literals are byte literals *)
  | E_field of string           (** [self.name] *)
  | E_elem_field of string      (** [$$.name], the just-parsed list element *)
  | E_binop of string * expr * expr  (** == != < > <= >= + - * && || *)
  | E_not of expr
  | E_call of string * expr list
      (** builtins: to_int, to_int16, len, lower, has, offset, band, shr *)

type stmt =
  | S_assign of string * expr   (** self.<name> = expr *)
  | S_if of expr * stmt list * stmt list

(* ---- Field parse specifications ------------------------------------------- *)

type endian = Big | Little

type list_stop =
  | Stop_count of expr            (** &count=expr *)
  | Stop_until_literal of string  (** &until_literal="..": consumed, then stop *)
  | Stop_until_elem of expr       (** &until_elem=(..$$..): stop after elem *)
  | Stop_eod                      (** stop at definite end of data *)

type parse_spec =
  | P_regexp of string            (** token; value is the matched bytes *)
  | P_literal of string           (** exact byte string; value is the bytes *)
  | P_uint of int * endian        (** width in bytes; value is int *)
  | P_varint                      (** MQTT-style base-128 varint, 1-4 bytes,
                                      7 data bits per byte, little groups
                                      first, bit 7 = continuation *)
  | P_bytes_length of expr        (** &length=expr raw bytes *)
  | P_bytes_until of string       (** bytes up to (and consuming) a literal *)
  | P_bytes_eod                   (** everything until definite end of data *)
  | P_unit of string              (** sub-unit by name *)
  | P_dnsname                     (** DNS name with compression pointers *)
  | P_list of parse_spec * list_stop * bool
      (** elem spec, stop condition, &trim: discard consumed input after
          each element so a stream-level unit holds O(1) buffered bytes.
          Only safe when no other field re-reads earlier input (e.g. DNS
          compression pointers must not set it). *)

type var_type = V_int | V_bool | V_bytes

type field = {
  fname : string option;          (** anonymous fields match but do not store *)
  parse : parse_spec;
  cond : expr option;             (** parse only when true *)
}

type unit_item =
  | Field of field
  | Var of string * var_type * expr option   (** name, type, initializer *)
  | Hook of string * stmt list    (** field name or "%done" / "%init" *)

type unit_decl = { uname : string; items : unit_item list }

type decl =
  | Const of string * string      (** token name, regex *)
  | Unit of unit_decl

type grammar = { gname : string; decls : decl list }

(* ---- Helpers ----------------------------------------------------------------- *)

let unit_fields u =
  List.filter_map (function Field f -> Some f | _ -> None) u.items

let unit_vars u =
  List.filter_map (function Var (n, t, i) -> Some (n, t, i) | _ -> None) u.items
