(** HILTI modules: the compilation unit (§3.1).

    A module carries named type declarations, thread-local globals,
    functions (with bodies as basic blocks), hook implementations, and
    declarations of external functions provided by other units or by the
    host application ("C functions"). *)

type unpack_fmt =
  | U_uint of int * Hilti_types.Hbytes.order  (** width in bytes *)
  | U_sint of int * Hilti_types.Hbytes.order
  | U_ipv4  (** 4 bytes, network order, to addr *)
  | U_bytes of int  (** fixed-length raw bytes *)

type overlay_field = {
  of_name : string;
  of_type : Htype.t;
  of_offset : int;       (** byte offset within the overlay *)
  of_fmt : unpack_fmt;
  of_bits : (int * int) option;  (** optional bit range within the unpacked int *)
}

type type_decl =
  | Struct_decl of (string * Htype.t) list
  | Enum_decl of (string * int) list
  | Bitset_decl of (string * int) list
  | Overlay_decl of overlay_field list
  | Exception_decl of Htype.t  (** argument type *)

type block = { label : string; mutable instrs : Instr.t list }

type calling_convention =
  | Cc_hilti   (** ordinary HILTI function *)
  | Cc_c       (** external, provided by the host application *)
  | Cc_hook    (** hook body; multiple bodies per name may exist *)

type func = {
  fname : string;
  params : (string * Htype.t) list;
  result : Htype.t;
  mutable locals : (string * Htype.t) list;
  mutable blocks : block list;  (** first block is the entry *)
  cc : calling_convention;
  hook_priority : int;
  exported : bool;
}

type t = {
  mname : string;
  mutable imports : string list;
  mutable types : (string * type_decl) list;
  mutable globals : (string * Htype.t) list;  (** thread-local globals *)
  mutable funcs : func list;
  mutable hooks : func list;  (** hook bodies; grouped by fname at link *)
}

let create mname = { mname; imports = []; types = []; globals = []; funcs = []; hooks = [] }

let add_import m i = if not (List.mem i m.imports) then m.imports <- m.imports @ [ i ]
let add_type m name decl = m.types <- m.types @ [ (name, decl) ]
let add_global m name ty = m.globals <- m.globals @ [ (name, ty) ]
let add_func m f = m.funcs <- m.funcs @ [ f ]
let add_hook m f = m.hooks <- m.hooks @ [ f ]

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_global m name = List.assoc_opt name m.globals

let find_block f label = List.find_opt (fun b -> b.label = label) f.blocks
