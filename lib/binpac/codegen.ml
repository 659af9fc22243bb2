(** BinPAC++ code generation: grammar -> HILTI module (§4).

    Every unit type compiles to a struct declaration plus a parse function

      [<G>::parse_<Unit>(cur: iterator<bytes>, msg: iterator<bytes>)
         -> tuple<ref<Unit>, iterator<bytes>>]

    where [msg] is the start of the enclosing message (needed by DNS name
    compression).  The generated code is {e fully incremental}: all input
    access goes through blocking bytes instructions, so when input runs
    out the parse function's fiber suspends transparently and resumes when
    the host appends more data — the key structural advantage §4 claims
    over classic BinPAC's manual buffering.

    Grammar hooks compile to HILTI hook bodies named
    [<G>::<Unit>::<field>] and [<G>::<Unit>] (for [%done]); host
    applications (e.g. the Bro event bridge) attach further bodies to the
    same hooks. *)

open Ast

exception Codegen_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

type ctx = {
  g : grammar;
  m : Module_ir.t;
  mutable regexes : (string * string) list;  (* pattern -> global name *)
  mutable label_counter : int;
  mutable need_dnsname : bool;
  mutable find_headers : string list;
      (* header-unit struct types that need a find_header helper *)
  mutable self_type : string;  (* struct type of [self] in the unit being compiled *)
}

let find_header_name hdr = hdr ^ "::find_header"

let fresh ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf "__%s%d" prefix ctx.label_counter

let qualified ctx name = ctx.g.gname ^ "::" ^ name

(* Register a regex pattern; returns the module global holding it. *)
let regex_global ctx pattern =
  match List.assoc_opt pattern ctx.regexes with
  | Some g -> g
  | None ->
      let g = Printf.sprintf "__re%d" (List.length ctx.regexes) in
      ctx.regexes <- ctx.regexes @ [ (pattern, g) ];
      Module_ir.add_global ctx.m g Htype.Regexp;
      g

(* ---- Types ------------------------------------------------------------------ *)

let rec field_htype ctx (spec : parse_spec) : Htype.t =
  match spec with
  | P_regexp _ | P_literal _ | P_bytes_length _ | P_bytes_until _ | P_bytes_eod
  | P_dnsname ->
      Htype.Bytes
  | P_uint _ | P_varint -> Htype.Int 64
  | P_unit n -> Htype.Ref (Htype.Struct (qualified ctx n))
  | P_list (s, _, _) -> Htype.Ref (Htype.List (field_htype ctx s))

let var_htype = function
  | V_int -> Htype.Int 64
  | V_bool -> Htype.Bool
  | V_bytes -> Htype.Bytes

let struct_decl ctx (u : unit_decl) : Module_ir.type_decl =
  let parse_fields =
    List.filter_map
      (fun f ->
        match f.fname with
        | Some n -> Some (n, field_htype ctx f.parse)
        | None -> None)
      (unit_fields u)
  in
  let var_fields =
    List.map (fun (n, t, _) -> (n, var_htype t)) (unit_vars u)
  in
  Module_ir.Struct_decl (parse_fields @ var_fields)

(* The declared type of field [f] of struct type [sname]: struct accesses
   resolve to slots by their operand's declared type, so every value read
   out of a unit keeps its type. *)
let field_type ctx sname f =
  match List.assoc_opt sname ctx.m.Module_ir.types with
  | Some (Module_ir.Struct_decl fields) -> (
      match List.assoc_opt f fields with
      | Some t -> t
      | None -> fail "unit %s has no field %s" sname f)
  | _ -> fail "unknown unit type %s" sname

let struct_name = function
  | Htype.Ref (Htype.Struct n) | Htype.Struct n -> n
  | t -> fail "expected a unit, got %s" (Htype.to_string t)

(* ---- Expressions -------------------------------------------------------------- *)

(* Whether [e] is statically an integer: its comparisons then compile to
   [int.*] instructions, which the VM runs on its int bank, instead of the
   generic [equal]. *)
let rec is_int ctx ?elem (e : expr) =
  match e with
  | E_int _ -> true
  | E_field f -> field_type ctx ctx.self_type f = Htype.Int 64
  | E_elem_field f -> (
      match elem with
      | Some (_, elem_ty) -> field_type ctx (struct_name elem_ty) f = Htype.Int 64
      | None -> false)
  | E_binop (("+" | "-" | "*"), l, r) -> is_int ctx ?elem l && is_int ctx ?elem r
  | E_call (("to_int" | "to_int16" | "len" | "offset" | "band" | "shr"), _) -> true
  | _ -> false

(* Compile an expression to an operand.  [self] is the unit struct under
   construction; [elem] (when in a &until_elem context) is the
   just-parsed list element and its type.  Evaluating an expression
   writes no field, so each field it names is read once. *)
let rec compile_expr ctx b ?elem (e : expr) : Instr.operand =
  compile_expr_in ctx b ?elem (Hashtbl.create 4) e

(* Compile a condition as a branch to [then_] or [else_]: [&&] and [||]
   short-circuit and [!]/[!=] swap the targets, so an operand is evaluated
   only when the ones before it have not decided.  A right operand runs
   conditionally, so the fields it reads are not reused after it. *)
and compile_cond ctx b ?elem reads (e : expr) ~then_ ~else_ =
  match e with
  | E_not e -> compile_cond ctx b ?elem reads e ~then_:else_ ~else_:then_
  | E_binop ("!=", l, r) ->
      compile_cond ctx b ?elem reads (E_binop ("==", l, r)) ~then_:else_ ~else_:then_
  | E_binop ((("&&" | "||") as op), l, r) ->
      let mid = fresh ctx (if op = "&&" then "and" else "or") in
      if op = "&&" then compile_cond ctx b ?elem reads l ~then_:mid ~else_
      else compile_cond ctx b ?elem reads l ~then_ ~else_:mid;
      Builder.set_block b mid;
      compile_cond ctx b ?elem (Hashtbl.copy reads) r ~then_ ~else_
  | e -> Builder.if_else b (compile_expr_in ctx b ?elem reads e) ~then_ ~else_

and compile_expr_in ctx b ?elem reads (e : expr) : Instr.operand =
  let recur e = compile_expr_in ctx b ?elem reads e in
  let read key f =
    match Hashtbl.find_opt reads key with
    | Some op -> op
    | None ->
        let op = f () in
        Hashtbl.add reads key op;
        op
  in
  match e with
  | E_int i -> Instr.Const (Constant.Int (i, 64))
  | E_bool v -> Instr.Const (Constant.Bool v)
  | E_bytes s -> Instr.Const (Constant.Bytes s)
  | E_field f ->
      read f (fun () ->
          Builder.emit b (field_type ctx ctx.self_type f) "struct.get"
            [ Instr.Local "self"; Instr.Member f ])
  | E_elem_field f -> (
      match elem with
      | Some (elem_op, elem_ty) ->
          read ("$$." ^ f) (fun () ->
              Builder.emit b (field_type ctx (struct_name elem_ty) f) "struct.get"
                [ elem_op; Instr.Member f ])
      | None -> fail "$$ used outside &until_elem")
  | E_not e -> Builder.emit b Htype.Bool "bool.not" [ recur e ]
  | E_binop (("&&" | "||"), _, _) ->
      let v = Builder.tmp b Htype.Bool in
      let yes = fresh ctx "true" and no = fresh ctx "false" and join = fresh ctx "bool" in
      compile_cond ctx b ?elem reads e ~then_:yes ~else_:no;
      List.iter
        (fun (l, k) ->
          Builder.set_block b l;
          Builder.instr b ~target:v "assign" [ Builder.const_bool k ];
          Builder.jump b join)
        [ (yes, true); (no, false) ];
      Builder.set_block b join;
      Instr.Local v
  | E_binop (op, l, r) -> (
      let lo = recur l and ro = recur r in
      let int_cmp = is_int ctx ?elem l && is_int ctx ?elem r in
      match op with
      | "==" when int_cmp -> Builder.emit b Htype.Bool "int.eq" [ lo; ro ]
      | "==" -> Builder.emit b Htype.Bool "equal" [ lo; ro ]
      | "!=" ->
          let eq =
            Builder.emit b Htype.Bool (if int_cmp then "int.eq" else "equal") [ lo; ro ]
          in
          Builder.emit b Htype.Bool "bool.not" [ eq ]
      | "<" -> Builder.emit b Htype.Bool "int.lt" [ lo; ro ]
      | ">" -> Builder.emit b Htype.Bool "int.gt" [ lo; ro ]
      | "<=" -> Builder.emit b Htype.Bool "int.leq" [ lo; ro ]
      | ">=" -> Builder.emit b Htype.Bool "int.geq" [ lo; ro ]
      | "+" -> Builder.emit b (Htype.Int 64) "int.add" [ lo; ro ]
      | "-" -> Builder.emit b (Htype.Int 64) "int.sub" [ lo; ro ]
      | "*" -> Builder.emit b (Htype.Int 64) "int.mul" [ lo; ro ]
      | op -> fail "unknown operator %s" op)
  | E_call ("to_int", [ a ]) ->
      Builder.emit b (Htype.Int 64) "bytes.to_int" [ recur a ]
  | E_call ("to_int16", [ a ]) ->
      Builder.emit b (Htype.Int 64) "bytes.to_int" [ recur a; Builder.const_int 16 ]
  | E_call ("len", [ a ]) -> Builder.emit b (Htype.Int 64) "bytes.length" [ recur a ]
  | E_call ("lower", [ a ]) -> Builder.emit b Htype.Bytes "bytes.to_lower" [ recur a ]
  | E_call ("has", [ E_field f ]) ->
      Builder.emit b Htype.Bool "struct.is_set" [ Instr.Local "self"; Instr.Member f ]
  | E_call ("find_header", [ l; n ]) ->
      (* First header whose lowercased name equals the (lowercase) needle;
         empty bytes if absent.  Compiles to a helper function shared by
         every list of the same header unit. *)
      let hdr =
        match l with
        | E_field f -> (
            match field_type ctx ctx.self_type f with
            | Htype.Ref (Htype.List t) -> struct_name t
            | t -> fail "find_header: %s is a %s, not a list of units" f (Htype.to_string t))
        | _ -> fail "find_header: the header list must be a field"
      in
      if not (List.mem hdr ctx.find_headers) then ctx.find_headers <- ctx.find_headers @ [ hdr ];
      Builder.emit b Htype.Bytes "call"
        [ Instr.Fname (find_header_name hdr); Instr.Tuple_op [ recur l; recur n ] ]
  | E_call ("offset", []) ->
      (* Bytes consumed so far in the current unit's parse function: the
         distance from its start iterator [cur0] to the cursor [cur].
         Only meaningful inside field expressions (conditions, &length,
         &until_elem); hooks do not have the iterators in scope. *)
      Builder.emit b (Htype.Int 64) "iter.distance"
        [ Instr.Local "cur0"; Instr.Local "cur" ]
  | E_call ("band", [ x; y ]) ->
      Builder.emit b (Htype.Int 64) "int.and" [ recur x; recur y ]
  | E_call ("shr", [ x; y ]) ->
      Builder.emit b (Htype.Int 64) "int.shr" [ recur x; recur y ]
  | E_call (fn, _) -> fail "unknown builtin %s" fn

(* ---- Statements ------------------------------------------------------------------ *)

let rec compile_stmt ctx b (s : stmt) =
  match s with
  | S_assign (f, e) ->
      let v = compile_expr ctx b e in
      Builder.instr b "struct.set" [ Instr.Local "self"; Instr.Member f; v ]
  | S_if (c, thens, elses) ->
      let lt = fresh ctx "then" and le = fresh ctx "else" and la = fresh ctx "fi" in
      compile_cond ctx b (Hashtbl.create 4) c ~then_:lt ~else_:le;
      Builder.set_block b lt;
      List.iter (compile_stmt ctx b) thens;
      Builder.jump b la;
      Builder.set_block b le;
      List.iter (compile_stmt ctx b) elses;
      Builder.jump b la;
      Builder.set_block b la

(* ---- Hooks ------------------------------------------------------------------------- *)

let hook_name ctx (u : unit_decl) target =
  match target with
  | "%done" -> qualified ctx u.uname
  | "%init" -> qualified ctx u.uname ^ "::%init"
  | f -> qualified ctx u.uname ^ "::" ^ f

let compile_hook_body ctx (u : unit_decl) target stmts =
  ctx.self_type <- qualified ctx u.uname;
  let b =
    Builder.func ctx.m ~cc:Module_ir.Cc_hook (hook_name ctx u target)
      ~params:[ ("self", Htype.Ref (Htype.Struct (qualified ctx u.uname))) ]
      ~result:Htype.Void
  in
  List.iter (compile_stmt ctx b) stmts;
  Builder.return_ b

(* ---- Parse-error helper --------------------------------------------------------------- *)

let throw_parse_error _ctx b msg =
  let e =
    Builder.emit b Htype.Exception "exception.new"
      [ Builder.const_string "BinPAC::ParseError"; Builder.const_string msg ]
  in
  Builder.instr b "throw" [ e ]

(* Wait for more input: if the stream is frozen the data will never come,
   so fail the parse; otherwise suspend. *)
let emit_wait_or_fail ctx b ~cur ~retry_label ~what =
  let frozen = Builder.emit b Htype.Bool "iter.is_frozen" [ Instr.Local cur ] in
  let fail_l = fresh ctx "nodata" and wait_l = fresh ctx "wait" in
  Builder.if_else b frozen ~then_:fail_l ~else_:wait_l;
  Builder.set_block b fail_l;
  throw_parse_error ctx b ("out of input in " ^ what);
  Builder.set_block b wait_l;
  Builder.instr b "yield" [];
  Builder.jump b retry_label

(* ---- Field parsing --------------------------------------------------------------------- *)

(* Emit code parsing [spec]; [cur] is the iterator local (updated in
   place); returns an operand holding the parsed value. *)
let rec emit_parse ctx b (u : unit_decl) ~cur (spec : parse_spec) : Instr.operand =
  match spec with
  | P_regexp pattern ->
      let re = regex_global ctx pattern in
      let t =
        Builder.emit b
          (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
          "regexp.match_token"
          [ Instr.Global re; Instr.Local cur ]
      in
      let id = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
      let ok = Builder.emit b Htype.Bool "int.geq" [ id; Builder.const_int 0 ] in
      let ok_l = fresh ctx "tok" and err_l = fresh ctx "tokerr" in
      Builder.if_else b ok ~then_:ok_l ~else_:err_l;
      Builder.set_block b err_l;
      throw_parse_error ctx b (Printf.sprintf "token /%s/ mismatch in %s" pattern u.uname);
      Builder.set_block b ok_l;
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ]
      in
      let v = Builder.emit b Htype.Bytes "bytes.sub" [ Instr.Local cur; after ] in
      Builder.instr b ~target:cur "assign" [ after ];
      v
  | P_literal lit ->
      let ok =
        Builder.emit b Htype.Bool "bytes.match_prefix"
          [ Instr.Local cur; Builder.const_bytes lit ]
      in
      let ok_l = fresh ctx "lit" and err_l = fresh ctx "literr" in
      Builder.if_else b ok ~then_:ok_l ~else_:err_l;
      Builder.set_block b err_l;
      throw_parse_error ctx b (Printf.sprintf "expected %S in %s" lit u.uname);
      Builder.set_block b ok_l;
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "iter.advance"
          [ Instr.Local cur; Builder.const_int (String.length lit) ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      Builder.const_bytes lit
  | P_uint (w, endian) ->
      let t =
        Builder.emit b
          (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
          "bytes.unpack_uint"
          [ Instr.Local cur; Builder.const_int w; Builder.const_bool (endian = Big) ]
      in
      let v = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      v
  | P_varint ->
      (* Base-128 variable-length integer (MQTT remaining-length style):
         little groups first, 7 data bits per byte, bit 7 = continue,
         at most 4 bytes. *)
      let v = Builder.tmp b (Htype.Int 64) in
      Builder.instr b ~target:v "assign" [ Builder.const_int 0 ];
      let shift = Builder.tmp b (Htype.Int 64) in
      Builder.instr b ~target:shift "assign" [ Builder.const_int 0 ];
      let head = fresh ctx "vint" in
      let body_l = fresh ctx "vintbody" in
      let bad_l = fresh ctx "vintbad" in
      let done_l = fresh ctx "vintdone" in
      Builder.jump b head;
      Builder.set_block b head;
      (* A 5th continuation group would shift by 28: malformed. *)
      let too_long =
        Builder.emit b Htype.Bool "int.geq" [ Instr.Local shift; Builder.const_int 28 ]
      in
      Builder.if_else b too_long ~then_:bad_l ~else_:body_l;
      Builder.set_block b bad_l;
      throw_parse_error ctx b (Printf.sprintf "varint longer than 4 bytes in %s" u.uname);
      Builder.set_block b body_l;
      let t =
        Builder.emit b
          (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
          "bytes.unpack_uint"
          [ Instr.Local cur; Builder.const_int 1; Builder.const_bool true ]
      in
      let byte = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
      let byte_local = Builder.tmp b (Htype.Int 64) in
      Builder.instr b ~target:byte_local "assign" [ byte ];
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      let low =
        Builder.emit b (Htype.Int 64) "int.and"
          [ Instr.Local byte_local; Builder.const_int 0x7f ]
      in
      let shifted = Builder.emit b (Htype.Int 64) "int.shl" [ low; Instr.Local shift ] in
      let v' = Builder.emit b (Htype.Int 64) "int.or" [ Instr.Local v; shifted ] in
      Builder.instr b ~target:v "assign" [ v' ];
      let s' =
        Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local shift; Builder.const_int 7 ]
      in
      Builder.instr b ~target:shift "assign" [ s' ];
      let cont =
        Builder.emit b Htype.Bool "int.geq"
          [ Instr.Local byte_local; Builder.const_int 0x80 ]
      in
      Builder.if_else b cont ~then_:head ~else_:done_l;
      Builder.set_block b done_l;
      Instr.Local v
  | P_bytes_length e ->
      let n = compile_expr ctx b e in
      let t =
        Builder.emit b
          (Htype.Tuple [ Htype.Bytes; Htype.Iter Htype.Bytes ])
          "bytes.read" [ Instr.Local cur; n ]
      in
      let v = Builder.emit b Htype.Bytes "tuple.get" [ t; Builder.const_int 0 ] in
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      v
  | P_bytes_until lit ->
      let head = fresh ctx "find" in
      let found_l = fresh ctx "found" in
      Builder.jump b head;
      Builder.set_block b head;
      let t =
        Builder.emit b
          (Htype.Tuple [ Htype.Bool; Htype.Iter Htype.Bytes ])
          "bytes.find"
          [ Instr.Local cur; Builder.const_bytes lit ]
      in
      let found = Builder.emit b Htype.Bool "tuple.get" [ t; Builder.const_int 0 ] in
      let wait_check = fresh ctx "findwait" in
      Builder.if_else b found ~then_:found_l ~else_:wait_check;
      Builder.set_block b wait_check;
      emit_wait_or_fail ctx b ~cur ~retry_label:head
        ~what:(Printf.sprintf "&until %S in %s" lit u.uname);
      Builder.set_block b found_l;
      let at = Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ] in
      let v = Builder.emit b Htype.Bytes "bytes.sub" [ Instr.Local cur; at ] in
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "iter.advance"
          [ at; Builder.const_int (String.length lit) ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      v
  | P_bytes_eod ->
      (* Everything until the definite end: wait for freeze, then take the
         rest. *)
      let head = fresh ctx "eod" in
      let done_l = fresh ctx "eoddone" in
      Builder.jump b head;
      Builder.set_block b head;
      let frozen = Builder.emit b Htype.Bool "iter.is_frozen" [ Instr.Local cur ] in
      let wait_l = fresh ctx "eodwait" in
      Builder.if_else b frozen ~then_:done_l ~else_:wait_l;
      Builder.set_block b wait_l;
      Builder.instr b "yield" [];
      Builder.jump b head;
      Builder.set_block b done_l;
      let e = Builder.emit b (Htype.Iter Htype.Bytes) "iter.end" [ Instr.Local cur ] in
      let v = Builder.emit b Htype.Bytes "bytes.sub" [ Instr.Local cur; e ] in
      Builder.instr b ~target:cur "assign" [ e ];
      v
  | P_unit uname ->
      let t =
        Builder.emit b
          (Htype.Tuple
             [ Htype.Ref (Htype.Struct (qualified ctx uname)); Htype.Iter Htype.Bytes ])
          "call"
          [ Instr.Fname (qualified ctx ("parse_" ^ uname));
            Instr.Tuple_op [ Instr.Local cur; Instr.Local "msg" ] ]
      in
      let v =
        Builder.emit b (Htype.Ref (Htype.Struct (qualified ctx uname))) "tuple.get"
          [ t; Builder.const_int 0 ]
      in
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      v
  | P_dnsname ->
      ctx.need_dnsname <- true;
      let t =
        Builder.emit b
          (Htype.Tuple [ Htype.Bytes; Htype.Iter Htype.Bytes ])
          "call"
          [ Instr.Fname (qualified ctx "parse_dnsname");
            Instr.Tuple_op [ Instr.Local cur; Instr.Local "msg" ] ]
      in
      let v = Builder.emit b Htype.Bytes "tuple.get" [ t; Builder.const_int 0 ] in
      let after =
        Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ]
      in
      Builder.instr b ~target:cur "assign" [ after ];
      v
  | P_list (elem_spec, stop, trim) ->
      let elem_ty = field_htype ctx elem_spec in
      let lst =
        Builder.emit b
          (Htype.Ref (Htype.List elem_ty))
          "new"
          [ Instr.Type_op (Htype.List elem_ty) ]
      in
      let lst_local = Builder.tmp b (Htype.Ref (Htype.List elem_ty)) in
      Builder.instr b ~target:lst_local "assign" [ lst ];
      let head = fresh ctx "list" in
      let body_l = fresh ctx "listbody" in
      let done_l = fresh ctx "listdone" in
      (* Count-based iteration keeps an explicit counter. *)
      let counter = Builder.tmp b (Htype.Int 64) in
      Builder.instr b ~target:counter "assign" [ Builder.const_int 0 ];
      let bound =
        match stop with
        | Stop_count e ->
            let n = compile_expr ctx b e in
            let bl = Builder.tmp b (Htype.Int 64) in
            Builder.instr b ~target:bl "assign" [ n ];
            Some bl
        | _ -> None
      in
      Builder.jump b head;
      Builder.set_block b head;
      (match stop with
      | Stop_count _ ->
          let c =
            Builder.emit b Htype.Bool "int.geq"
              [ Instr.Local counter; Instr.Local (Option.get bound) ]
          in
          Builder.if_else b c ~then_:done_l ~else_:body_l
      | Stop_until_literal lit ->
          let ok =
            Builder.emit b Htype.Bool "bytes.match_prefix"
              [ Instr.Local cur; Builder.const_bytes lit ]
          in
          let consume = fresh ctx "consume" in
          Builder.if_else b ok ~then_:consume ~else_:body_l;
          Builder.set_block b consume;
          let after =
            Builder.emit b (Htype.Iter Htype.Bytes) "iter.advance"
              [ Instr.Local cur; Builder.const_int (String.length lit) ]
          in
          Builder.instr b ~target:cur "assign" [ after ];
          Builder.jump b done_l
      | Stop_until_elem _ -> Builder.jump b body_l
      | Stop_eod ->
          let at_end = Builder.emit b Htype.Bool "iter.at_end" [ Instr.Local cur ] in
          let maybe = fresh ctx "maybeeod" and wait_l = fresh ctx "eodwait" in
          Builder.if_else b at_end ~then_:maybe ~else_:body_l;
          Builder.set_block b maybe;
          let eod = Builder.emit b Htype.Bool "iter.is_eod" [ Instr.Local cur ] in
          Builder.if_else b eod ~then_:done_l ~else_:wait_l;
          Builder.set_block b wait_l;
          Builder.instr b "yield" [];
          Builder.jump b head);
      Builder.set_block b body_l;
      let ev = emit_parse ctx b u ~cur elem_spec in
      let ev_local = Builder.tmp b elem_ty in
      Builder.instr b ~target:ev_local "assign" [ ev ];
      Builder.instr b "list.append" [ Instr.Local lst_local; Instr.Local ev_local ];
      (* &trim: the element is fully parsed and stored (element values are
         fresh copies, never views into the input), so everything before
         [cur] can be dropped from the stream buffer. *)
      if trim then
        Builder.instr b "bytes.trim" [ Instr.Local cur; Instr.Local cur ];
      let one = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local counter; Builder.const_int 1 ] in
      Builder.instr b ~target:counter "assign" [ one ];
      (match stop with
      | Stop_until_elem e ->
          compile_cond ctx b ~elem:(Instr.Local ev_local, elem_ty) (Hashtbl.create 4) e
            ~then_:done_l ~else_:head
      | _ -> Builder.jump b head);
      Builder.set_block b done_l;
      Instr.Local lst_local

(* ---- Unit parse functions -------------------------------------------------------------- *)

let compile_unit ctx (u : unit_decl) =
  let sname = qualified ctx u.uname in
  ctx.self_type <- sname;
  let b =
    Builder.func ctx.m
      (qualified ctx ("parse_" ^ u.uname))
      ~exported:true
      ~params:
        [ ("cur0", Htype.Iter Htype.Bytes); ("msg", Htype.Iter Htype.Bytes) ]
      ~result:
        (Htype.Tuple [ Htype.Ref (Htype.Struct sname); Htype.Iter Htype.Bytes ])
  in
  let cur = Builder.local b "cur" (Htype.Iter Htype.Bytes) in
  Builder.instr b ~target:cur "assign" [ Instr.Local "cur0" ];
  let self = Builder.local b "self" (Htype.Ref (Htype.Struct sname)) in
  let s = Builder.emit b (Htype.Ref (Htype.Struct sname)) "new" [ Instr.Type_op (Htype.Struct sname) ] in
  Builder.instr b ~target:self "assign" [ s ];
  (* Variable initialization. *)
  List.iter
    (fun (n, ty, init) ->
      let v =
        match init with
        | Some e -> compile_expr ctx b e
        | None -> (
            match ty with
            | V_int -> Builder.const_int 0
            | V_bool -> Builder.const_bool false
            | V_bytes -> Builder.const_bytes "")
      in
      Builder.instr b "struct.set" [ Instr.Local self; Instr.Member n; v ])
    (unit_vars u);
  Builder.instr b "hook.run"
    [ Instr.Fname (hook_name ctx u "%init"); Instr.Tuple_op [ Instr.Local self ] ];
  (* Fields, in order. *)
  List.iter
    (fun (f : field) ->
      let parse_one () =
        let v = emit_parse ctx b u ~cur f.parse in
        (match f.fname with
        | Some n ->
            Builder.instr b "struct.set" [ Instr.Local self; Instr.Member n; v ];
            Builder.instr b "hook.run"
              [ Instr.Fname (hook_name ctx u n); Instr.Tuple_op [ Instr.Local self ] ]
        | None -> ())
      in
      match f.cond with
      | None -> parse_one ()
      | Some c ->
          let yes = fresh ctx "cond" and no = fresh ctx "condskip" in
          compile_cond ctx b (Hashtbl.create 4) c ~then_:yes ~else_:no;
          Builder.set_block b yes;
          parse_one ();
          Builder.jump b no;
          Builder.set_block b no)
    (unit_fields u);
  Builder.instr b "hook.run"
    [ Instr.Fname (hook_name ctx u "%done"); Instr.Tuple_op [ Instr.Local self ] ];
  Builder.return_result b (Instr.Tuple_op [ Instr.Local self; Instr.Local cur ]);
  (* Hook bodies declared inside the grammar. *)
  List.iter
    (function
      | Hook (target, stmts) -> compile_hook_body ctx u target stmts
      | _ -> ())
    u.items

(* ---- DNS-name helper --------------------------------------------------------------------- *)

(* parse_dnsname(cur, msg) -> (bytes, iter): length-prefixed labels joined
   with '.', following RFC 1035 compression pointers relative to [msg]. *)
let compile_dnsname_helper ctx =
  let b =
    Builder.func ctx.m
      (qualified ctx "parse_dnsname")
      ~params:[ ("cur0", Htype.Iter Htype.Bytes); ("msg", Htype.Iter Htype.Bytes) ]
      ~result:(Htype.Tuple [ Htype.Bytes; Htype.Iter Htype.Bytes ])
  in
  let cur = Builder.local b "cur" (Htype.Iter Htype.Bytes) in
  Builder.instr b ~target:cur "assign" [ Instr.Local "cur0" ];
  let out = Builder.local b "out" (Htype.Ref Htype.Bytes) in
  let o = Builder.emit b (Htype.Ref Htype.Bytes) "new" [ Instr.Type_op Htype.Bytes ] in
  Builder.instr b ~target:out "assign" [ o ];
  let ret = Builder.local b "ret" (Htype.Iter Htype.Bytes) in
  Builder.instr b ~target:ret "assign" [ Instr.Local cur ];
  let jumped = Builder.local b "jumped" Htype.Bool in
  Builder.instr b ~target:jumped "assign" [ Builder.const_bool false ];
  let guard = Builder.local b "guard" (Htype.Int 64) in
  Builder.instr b ~target:guard "assign" [ Builder.const_int 0 ];
  Builder.jump b "loop";
  Builder.set_block b "loop";
  (* Pointer-chase guard against malicious loops. *)
  let g1 = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local guard; Builder.const_int 1 ] in
  Builder.instr b ~target:guard "assign" [ g1 ];
  let too_many = Builder.emit b Htype.Bool "int.gt" [ Instr.Local guard; Builder.const_int 255 ] in
  Builder.if_else b too_many ~then_:"bad" ~else_:"read_len";
  Builder.set_block b "bad";
  throw_parse_error ctx b "DNS name: looping compression pointers";
  Builder.set_block b "read_len";
  let t =
    Builder.emit b
      (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
      "bytes.unpack_uint"
      [ Instr.Local cur; Builder.const_int 1; Builder.const_bool true ]
  in
  let len = Builder.emit b (Htype.Int 64) "tuple.get" [ t; Builder.const_int 0 ] in
  let len_local = Builder.local b "len" (Htype.Int 64) in
  Builder.instr b ~target:len_local "assign" [ len ];
  let after_len = Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t; Builder.const_int 1 ] in
  Builder.instr b ~target:cur "assign" [ after_len ];
  let is_zero = Builder.emit b Htype.Bool "int.eq" [ Instr.Local len_local; Builder.const_int 0 ] in
  Builder.if_else b is_zero ~then_:"finish" ~else_:"check_ptr";
  Builder.set_block b "check_ptr";
  let is_ptr = Builder.emit b Htype.Bool "int.geq" [ Instr.Local len_local; Builder.const_int 0xc0 ] in
  Builder.if_else b is_ptr ~then_:"pointer" ~else_:"label";
  (* Compression pointer: 14-bit offset from message start. *)
  Builder.set_block b "pointer";
  let t2 =
    Builder.emit b
      (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
      "bytes.unpack_uint"
      [ Instr.Local cur; Builder.const_int 1; Builder.const_bool true ]
  in
  let b2 = Builder.emit b (Htype.Int 64) "tuple.get" [ t2; Builder.const_int 0 ] in
  let after2 = Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t2; Builder.const_int 1 ] in
  let hi = Builder.emit b (Htype.Int 64) "int.and" [ Instr.Local len_local; Builder.const_int 0x3f ] in
  let hi8 = Builder.emit b (Htype.Int 64) "int.shl" [ hi; Builder.const_int 8 ] in
  let off = Builder.emit b (Htype.Int 64) "int.or" [ hi8; b2 ] in
  (* First pointer decides where parsing continues afterwards. *)
  let fixup = fresh ctx "fixret" and follow = fresh ctx "follow" in
  Builder.if_else b (Instr.Local jumped) ~then_:follow ~else_:fixup;
  Builder.set_block b fixup;
  Builder.instr b ~target:ret "assign" [ after2 ];
  Builder.instr b ~target:jumped "assign" [ Builder.const_bool true ];
  Builder.jump b follow;
  Builder.set_block b follow;
  let target_it = Builder.emit b (Htype.Iter Htype.Bytes) "iter.advance" [ Instr.Local "msg"; off ] in
  Builder.instr b ~target:cur "assign" [ target_it ];
  Builder.jump b "loop";
  (* Ordinary label of [len] bytes. *)
  Builder.set_block b "label";
  let t3 =
    Builder.emit b
      (Htype.Tuple [ Htype.Bytes; Htype.Iter Htype.Bytes ])
      "bytes.read" [ Instr.Local cur; Instr.Local len_local ]
  in
  let label = Builder.emit b Htype.Bytes "tuple.get" [ t3; Builder.const_int 0 ] in
  let after3 = Builder.emit b (Htype.Iter Htype.Bytes) "tuple.get" [ t3; Builder.const_int 1 ] in
  Builder.instr b ~target:cur "assign" [ after3 ];
  let outlen = Builder.emit b (Htype.Int 64) "bytes.length" [ Instr.Local out ] in
  let nonempty = Builder.emit b Htype.Bool "int.gt" [ outlen; Builder.const_int 0 ] in
  let dot = fresh ctx "dot" and nodot = fresh ctx "nodot" in
  Builder.if_else b nonempty ~then_:dot ~else_:nodot;
  Builder.set_block b dot;
  Builder.instr b "bytes.append" [ Instr.Local out; Builder.const_bytes "." ];
  Builder.jump b nodot;
  Builder.set_block b nodot;
  Builder.instr b "bytes.append" [ Instr.Local out; label ];
  Builder.jump b "loop";
  (* Zero length: the name is complete. *)
  Builder.set_block b "finish";
  let final = fresh ctx "ptrret" and plain = fresh ctx "plainret" in
  Builder.if_else b (Instr.Local jumped) ~then_:final ~else_:plain;
  Builder.set_block b plain;
  Builder.instr b ~target:ret "assign" [ Instr.Local cur ];
  Builder.jump b final;
  Builder.set_block b final;
  Builder.return_result b (Instr.Tuple_op [ Instr.Local out; Instr.Local ret ])

(* <Header>::find_header(headers: ref<list<ref<Header>>>, name: bytes) -> bytes
   Lookup over a list of one header-shaped unit (fields "name"/"value"). *)
let compile_find_header_helper ctx hdr =
  let hty = Htype.Ref (Htype.Struct hdr) in
  let b =
    Builder.func ctx.m (find_header_name hdr)
      ~params:[ ("headers", Htype.Ref (Htype.List hty)); ("needle", Htype.Bytes) ]
      ~result:Htype.Bytes
  in
  let it = Builder.local b "it" (Htype.Iter (Htype.List Htype.Any)) in
  let i0 = Builder.emit b (Htype.Iter (Htype.List Htype.Any)) "iter.begin" [ Instr.Local "headers" ] in
  Builder.instr b ~target:it "assign" [ i0 ];
  Builder.jump b "loop";
  Builder.set_block b "loop";
  let at_end = Builder.emit b Htype.Bool "iter.at_end" [ Instr.Local it ] in
  Builder.if_else b at_end ~then_:"missing" ~else_:"check";
  Builder.set_block b "check";
  let h = Builder.emit b Htype.Any "iter.deref" [ Instr.Local it ] in
  let hl = Builder.local b "h" hty in
  Builder.instr b ~target:hl "assign" [ h ];
  let hn = Builder.emit b Htype.Bytes "struct.get" [ Instr.Local hl; Instr.Member "name" ] in
  let hn_low = Builder.emit b Htype.Bytes "bytes.to_lower" [ hn ] in
  let eq = Builder.emit b Htype.Bool "equal" [ hn_low; Instr.Local "needle" ] in
  Builder.if_else b eq ~then_:"found" ~else_:"next";
  Builder.set_block b "next";
  let it2 = Builder.emit b (Htype.Iter (Htype.List Htype.Any)) "iter.incr" [ Instr.Local it ] in
  Builder.instr b ~target:it "assign" [ it2 ];
  Builder.jump b "loop";
  Builder.set_block b "found";
  let v = Builder.emit b Htype.Bytes "struct.get" [ Instr.Local hl; Instr.Member "value" ] in
  Builder.return_result b v;
  Builder.set_block b "missing";
  Builder.return_result b (Builder.const_bytes "")

(* ---- Module assembly ------------------------------------------------------------------------- *)

(** Compile a grammar into a HILTI module.  The module exports one
    [parse_<Unit>] per unit plus [<G>::init], which must run once to
    compile the token regexps. *)
let compile (g : grammar) : Module_ir.t =
  let m = Module_ir.create g.gname in
  let ctx =
    { g; m; regexes = []; label_counter = 0; need_dnsname = false;
      find_headers = []; self_type = "" }
  in
  (* Struct declarations first so all unit references resolve. *)
  List.iter
    (function
      | Unit u -> Module_ir.add_type m (qualified ctx u.uname) (struct_decl ctx u)
      | Const _ -> ())
    g.decls;
  List.iter (function Unit u -> compile_unit ctx u | Const _ -> ()) g.decls;
  if ctx.need_dnsname then compile_dnsname_helper ctx;
  List.iter (compile_find_header_helper ctx) ctx.find_headers;
  (* init: compile every token regexp into its global. *)
  let b = Builder.func m (qualified ctx "init") ~exported:true ~params:[] ~result:Htype.Void in
  List.iter
    (fun (pattern, gname) ->
      let re =
        Builder.emit b Htype.Regexp "regexp.compile" [ Builder.const_string pattern ]
      in
      Builder.instr b ~target:gname "assign" [ re ])
    ctx.regexes;
  Builder.return_ b;
  m
