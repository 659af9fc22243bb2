(** The Bro script compiler: Mini-Bro scripts -> HILTI IR (§4 "Bro Script
    Compiler", Fig. 8).

    Mapping, as the paper describes: Bro event handlers become HILTI hooks
    (functions with multiple bodies), Bro data types map to HILTI
    equivalents (tables to maps, sets to sets, vectors to lists, records
    to structs, strings to bytes), and interactions with the host Bro —
    printing, fmt, logging, event queuing — go through C-level calls into
    the engine (the glue layer of §5/§6). *)

open Bro_ast

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let record_type name = "bro::" ^ name
let event_hook name = "bro::event::" ^ name
let func_name name = "bro::fn::" ^ name

let rec htype_of (t : btype) : Htype.t =
  match t with
  | T_bool -> Htype.Bool
  | T_count | T_int -> Htype.Int 64
  | T_double -> Htype.Double
  | T_string -> Htype.Bytes
  | T_addr -> Htype.Addr
  | T_port -> Htype.Port
  | T_subnet -> Htype.Net
  | T_time -> Htype.Time
  | T_interval -> Htype.Interval
  | T_pattern -> Htype.Regexp
  | T_void -> Htype.Void
  | T_any -> Htype.Any
  | T_set ks -> (
      match ks with
      | [ k ] -> Htype.Ref (Htype.Set (htype_of k))
      | ks -> Htype.Ref (Htype.Set (Htype.Tuple (List.map htype_of ks))))
  | T_table (ks, v) -> (
      match ks with
      | [ k ] -> Htype.Ref (Htype.Map (htype_of k, htype_of v))
      | ks -> Htype.Ref (Htype.Map (Htype.Tuple (List.map htype_of ks), htype_of v)))
  | T_vector t -> Htype.Ref (Htype.List (htype_of t))
  | T_record n -> Htype.Ref (Htype.Struct (record_type n))

type ctx = {
  script : script;
  m : Module_ir.t;
  mutable label_counter : int;
  mutable anon_counter : int;
  (* static types for globals/params/locals where declared *)
  global_types : (string, btype) Hashtbl.t;
  func_results : (string, btype) Hashtbl.t;
  formats : (string, int) Hashtbl.t;  (** literal [fmt] formats, by index *)
}

(* The index of the literal [fmt] format [f]; equal formats share one. *)
let format_index ctx f =
  match Hashtbl.find_opt ctx.formats f with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ctx.formats in
      Hashtbl.add ctx.formats f i;
      i

let fresh ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf "__%s%d" prefix ctx.label_counter

(* Does the builder's current block already end in a terminator (e.g. a
   [return] inside an if-branch)?  Then no fall-through jump is needed. *)
let terminated b =
  match List.rev b.Builder.current.Module_ir.instrs with
  | last :: _ -> List.mem last.Instr.mnemonic Validate.terminators
  | [] -> false

(* ---- Static typing (best effort, for operation selection) -------------------- *)

type tenv = (string * btype) list

let record_fields ctx name =
  match find_record ctx.script name with
  | Some fs -> fs
  | None -> fail "unknown record type %s" name

let rec type_of ctx (tenv : tenv) (e : expr) : btype option =
  match e with
  | E_bool _ -> Some T_bool
  | E_count _ -> Some T_count
  | E_double _ -> Some T_double
  | E_string _ -> Some T_string
  | E_pattern _ -> Some T_pattern
  | E_addr _ -> Some T_addr
  | E_subnet _ -> Some T_subnet
  | E_port _ -> Some T_port
  | E_interval _ -> Some T_interval
  | E_id n -> (
      match List.assoc_opt n tenv with
      | Some t -> Some t
      | None -> Hashtbl.find_opt ctx.global_types n)
  | E_field (e, f) -> (
      match type_of ctx tenv e with
      | Some (T_record rn) -> List.assoc_opt f (record_fields ctx rn)
      | _ -> None)
  | E_index (e, _) -> (
      match type_of ctx tenv e with
      | Some (T_table (_, v)) -> Some v
      | Some (T_vector t) -> Some t
      | _ -> None)
  | E_in _ | E_not_in _ | E_match _ | E_not _ -> Some T_bool
  | E_binop (("==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||"), _, _) -> Some T_bool
  | E_binop (_, a, b) -> (
      match type_of ctx tenv a with Some t -> Some t | None -> type_of ctx tenv b)
  | E_neg e -> type_of ctx tenv e
  | E_size _ -> Some T_count
  | E_record_ctor _ -> None
  | E_vector_ctor es -> (
      match es with
      | e :: _ -> Option.map (fun t -> T_vector t) (type_of ctx tenv e)
      | [] -> None)
  | E_call ("fmt", _) | E_call ("cat", _) | E_call ("lower", _)
  | E_call ("to_lower", _) | E_call ("to_upper", _) | E_call ("sha1", _)
  | E_call ("join", _) ->
      Some T_string
  | E_call ("to_count", _) -> Some T_count
  | E_call ("network_time", _) -> Some T_time
  | E_call ("shift", [ v ]) -> (
      match type_of ctx tenv v with Some (T_vector t) -> Some t | _ -> None)
  | E_call (fn, _) -> Hashtbl.find_opt ctx.func_results fn

(* ---- Expression compilation ----------------------------------------------------- *)

(* Host-call helper ("C stubs" into the engine). *)
let host_call b ?result name args =
  match result with
  | Some ty -> Builder.emit b ty "call" [ Instr.Fname name; Instr.Tuple_op args ]
  | None ->
      Builder.instr b "call" [ Instr.Fname name; Instr.Tuple_op args ];
      Instr.Const (Constant.Bool true)

(* The declared IR type of a local operand. *)
let operand_htype b (op : Instr.operand) =
  match op with
  | Instr.Local n ->
      List.assoc_opt n (b.Builder.func.Module_ir.locals @ b.Builder.func.Module_ir.params)
  | _ -> None

(* [expect] is the static type of the slot the value flows into: a record
   constructor builds a struct of that record type (Bro's coercion), so
   compiled accesses through the declared type find its layout. *)
let rec compile_expr ?expect ctx b (tenv : tenv) (e : expr) : Instr.operand =
  let recur e = compile_expr ctx b tenv e in
  match e with
  | E_bool v -> Builder.const_bool v
  | E_count c -> Instr.Const (Constant.Int (c, 64))
  | E_double d -> Instr.Const (Constant.Double d)
  | E_string s -> Builder.const_bytes s
  | E_pattern src ->
      Builder.emit b Htype.Regexp "regexp.compile" [ Builder.const_string src ]
  | E_addr a -> Instr.Const (Constant.Addr (Hilti_types.Addr.of_string a))
  | E_subnet (a, l) ->
      Instr.Const (Constant.Net (Hilti_types.Network.make (Hilti_types.Addr.of_string a) l))
  | E_port (n, proto) ->
      Instr.Const
        (Constant.Port (Hilti_types.Port.make n (Hilti_types.Port.proto_of_string proto)))
  | E_interval secs -> Instr.Const (Constant.Interval (Hilti_types.Interval_ns.of_float secs))
  | E_id n ->
      if List.mem_assoc n tenv then Instr.Local n
      else if Hashtbl.mem ctx.global_types n then Instr.Global n
      else fail "unknown identifier %s" n
  | E_field (r, f) ->
      let ty = Option.fold ~none:Htype.Any ~some:htype_of (type_of ctx tenv e) in
      Builder.emit b ty "struct.get" [ recur r; Instr.Member f ]
  | E_index (e, keys) -> (
      let container = recur e in
      let key = compile_key ctx b tenv keys in
      match type_of ctx tenv e with
      | Some (T_table (_, v)) -> Builder.emit b (htype_of v) "map.get" [ container; key ]
      | None -> Builder.emit b Htype.Any "map.get" [ container; key ]
      | Some (T_vector _) -> fail "vector indexing is not supported in compiled scripts"
      | Some t -> fail "indexing %s" (btype_to_string t))
  | E_in (k, c) -> compile_membership ctx b tenv k c
  | E_not_in (k, c) ->
      let m = compile_membership ctx b tenv k c in
      Builder.emit b Htype.Bool "bool.not" [ m ]
  | E_match (pat, s) ->
      let re = recur pat in
      let str = recur s in
      let id = Builder.emit b (Htype.Int 64) "regexp.find" [ re; str ] in
      Builder.emit b Htype.Bool "int.geq" [ id; Builder.const_int 0 ]
  | E_binop ("==", a, c) -> Builder.emit b Htype.Bool "equal" [ recur a; recur c ]
  | E_binop ("!=", a, c) ->
      let eq = Builder.emit b Htype.Bool "equal" [ recur a; recur c ] in
      Builder.emit b Htype.Bool "bool.not" [ eq ]
  | E_binop ("&&", a, c) ->
      (* Short-circuit, as Bro requires: guards like
         [k in t && |t[k]| > 0] must not evaluate the rhs when absent. *)
      let res = Builder.local b (fresh ctx "and") Htype.Bool in
      let la = recur a in
      let rhs_l = fresh ctx "rhs" and false_l = fresh ctx "sc" and done_l = fresh ctx "scdone" in
      Builder.if_else b la ~then_:rhs_l ~else_:false_l;
      Builder.set_block b rhs_l;
      let rv = recur c in
      Builder.instr b ~target:res "assign" [ rv ];
      Builder.jump b done_l;
      Builder.set_block b false_l;
      Builder.instr b ~target:res "assign" [ Builder.const_bool false ];
      Builder.jump b done_l;
      Builder.set_block b done_l;
      Instr.Local res
  | E_binop ("||", a, c) ->
      let res = Builder.local b (fresh ctx "or") Htype.Bool in
      let rhs_l = fresh ctx "rhs" and true_l = fresh ctx "sc" and done_l = fresh ctx "scdone" in
      let la = recur a in
      Builder.if_else b la ~then_:true_l ~else_:rhs_l;
      Builder.set_block b true_l;
      Builder.instr b ~target:res "assign" [ Builder.const_bool true ];
      Builder.jump b done_l;
      Builder.set_block b rhs_l;
      let rv = recur c in
      Builder.instr b ~target:res "assign" [ rv ];
      Builder.jump b done_l;
      Builder.set_block b done_l;
      Instr.Local res
  | E_binop (("<" | "<=" | ">" | ">=") as op, a, c) ->
      let mn =
        match op with "<" -> "int.lt" | "<=" -> "int.leq" | ">" -> "int.gt" | _ -> "int.geq"
      in
      Builder.emit b Htype.Bool mn [ recur a; recur c ]
  | E_binop ("+", a, c) -> (
      match (type_of ctx tenv a, type_of ctx tenv c) with
      | Some T_string, _ | _, Some T_string ->
          host_call b ~result:Htype.Bytes "Bro::cat" [ recur a; recur c ]
      | Some T_double, _ | _, Some T_double ->
          Builder.emit b Htype.Double "double.add" [ recur a; recur c ]
      | Some T_time, _ ->
          Builder.emit b Htype.Time "time.add" [ recur a; recur c ]
      | _ -> Builder.emit b (Htype.Int 64) "int.add" [ recur a; recur c ])
  | E_binop (op, a, c) -> (
      let mn =
        match op with
        | "-" -> "int.sub"
        | "*" -> "int.mul"
        | "/" -> "int.div"
        | "%" -> "int.mod"
        | op -> fail "operator %s" op
      in
      match (type_of ctx tenv a, type_of ctx tenv c) with
      | Some T_double, _ | _, Some T_double ->
          Builder.emit b Htype.Double ("double." ^ String.sub mn 4 (String.length mn - 4))
            [ recur a; recur c ]
      | _ -> Builder.emit b (Htype.Int 64) mn [ recur a; recur c ])
  | E_not e -> Builder.emit b Htype.Bool "bool.not" [ recur e ]
  | E_neg e -> Builder.emit b (Htype.Int 64) "int.neg" [ recur e ]
  | E_size e -> (
      let v = recur e in
      match type_of ctx tenv e with
      | Some (T_set _) -> Builder.emit b (Htype.Int 64) "set.size" [ v ]
      | Some (T_table _) -> Builder.emit b (Htype.Int 64) "map.size" [ v ]
      | Some (T_vector _) -> Builder.emit b (Htype.Int 64) "list.size" [ v ]
      | Some T_string | None -> Builder.emit b (Htype.Int 64) "bytes.length" [ v ]
      | Some t -> fail "|..| on %s" (btype_to_string t))
  | E_record_ctor fields ->
      (* Coerced to the expected record type when every field belongs to
         it; otherwise an anonymous record type per constructor site. *)
      let declared =
        match expect with
        | Some (T_record rn) -> (
            match find_record ctx.script rn with
            | Some fs when List.for_all (fun (n, _) -> List.mem_assoc n fs) fields ->
                Some (rn, fs)
            | _ -> None)
        | _ -> None
      in
      let tname, field_ty =
        match declared with
        | Some (rn, fs) -> (record_type rn, fun n -> List.assoc_opt n fs)
        | None ->
            ctx.anon_counter <- ctx.anon_counter + 1;
            let tname = Printf.sprintf "bro::anon%d" ctx.anon_counter in
            Module_ir.add_type ctx.m tname
              (Module_ir.Struct_decl (List.map (fun (n, _) -> (n, Htype.Any)) fields));
            (tname, fun _ -> None)
      in
      let s =
        Builder.emit b (Htype.Ref (Htype.Struct tname)) "new"
          [ Instr.Type_op (Htype.Struct tname) ]
      in
      let local = Builder.tmp b (Htype.Ref (Htype.Struct tname)) in
      Builder.instr b ~target:local "assign" [ s ];
      List.iter
        (fun (n, e) ->
          let v = compile_expr ?expect:(field_ty n) ctx b tenv e in
          Builder.instr b "struct.set" [ Instr.Local local; Instr.Member n; v ])
        fields;
      Instr.Local local
  | E_vector_ctor es ->
      let l =
        Builder.emit b (Htype.Ref (Htype.List Htype.Any)) "new"
          [ Instr.Type_op (Htype.List Htype.Any) ]
      in
      let local = Builder.tmp b (Htype.Ref (Htype.List Htype.Any)) in
      Builder.instr b ~target:local "assign" [ l ];
      List.iter
        (fun e -> Builder.instr b "list.append" [ Instr.Local local; recur e ])
        es;
      Instr.Local local
  | E_call (fn, args) -> compile_call ctx b tenv fn args

and compile_key ctx b tenv keys : Instr.operand =
  match keys with
  | [ k ] -> compile_expr ctx b tenv k
  | ks -> Instr.Tuple_op (List.map (compile_expr ctx b tenv) ks)

and compile_membership ctx b tenv k c =
  let kv = compile_expr ctx b tenv k in
  let cv = compile_expr ctx b tenv c in
  match type_of ctx tenv c with
  | Some (T_set _) -> Builder.emit b Htype.Bool "set.exists" [ cv; kv ]
  | Some (T_table _) -> Builder.emit b Htype.Bool "map.exists" [ cv; kv ]
  | Some T_string | None -> Builder.emit b Htype.Bool "bytes.contains" [ cv; kv ]
  | Some t -> fail "'in' on %s" (btype_to_string t)

and compile_call ctx b tenv fn args : Instr.operand =
  let vals () = List.map (compile_expr ctx b tenv) args in
  match fn with
  | "fmt" -> (
      (* The first argument is the index of the format's plan, which the
         engine builds once at load; a computed format follows index -1. *)
      match args with
      | E_string f :: rest ->
          host_call b ~result:Htype.Bytes "Bro::fmt"
            (Builder.const_int (format_index ctx f) :: List.map (compile_expr ctx b tenv) rest)
      | _ -> host_call b ~result:Htype.Bytes "Bro::fmt" (Builder.const_int (-1) :: vals ()))
  | "cat" -> host_call b ~result:Htype.Bytes "Bro::cat" (vals ())
  | "lower" | "to_lower" -> (
      match vals () with
      | [ v ] -> Builder.emit b Htype.Bytes "bytes.to_lower" [ v ]
      | _ -> fail "to_lower arity")
  | "to_upper" -> (
      match vals () with
      | [ v ] -> Builder.emit b Htype.Bytes "bytes.to_upper" [ v ]
      | _ -> fail "to_upper arity")
  | "to_count" -> host_call b ~result:(Htype.Int 64) "Bro::to_count" (vals ())
  | "sha1" -> host_call b ~result:Htype.Bytes "Bro::sha1" (vals ())
  | "join" -> host_call b ~result:Htype.Bytes "Bro::join" (vals ())
  | "network_time" -> host_call b ~result:Htype.Time "Bro::network_time" []
  | "push" -> (
      match args with
      | [ v; x ] ->
          let elem = match type_of ctx tenv v with Some (T_vector t) -> Some t | _ -> None in
          let vv = compile_expr ctx b tenv v in
          let xv = compile_expr ?expect:elem ctx b tenv x in
          Builder.instr b "list.append" [ vv; xv ];
          Builder.const_bool true
      | _ -> fail "push arity")
  | "shift" -> (
      match vals () with
      | [ v ] -> Builder.emit b Htype.Any "list.pop_front" [ v ]
      | _ -> fail "shift arity")
  | "Log::write" -> (
      match vals () with
      | [ stream; record ] -> host_call b ~result:Htype.Bool "Bro::log_write" [ stream; record ]
      | _ -> fail "Log::write arity")
  | fn when List.mem_assoc fn (functions ctx) ->
      let params = fst (List.assoc fn (functions ctx)) in
      let vals () =
        List.mapi
          (fun i a ->
            let expect = Option.map snd (List.nth_opt params i) in
            compile_expr ?expect ctx b tenv a)
          args
      in
      let result =
        match Hashtbl.find_opt ctx.func_results fn with
        | Some t -> htype_of t
        | None -> Htype.Any
      in
      if result = Htype.Void then begin
        Builder.instr b "call" [ Instr.Fname (func_name fn); Instr.Tuple_op (vals ()) ];
        Builder.const_bool true
      end
      else Builder.emit b result "call" [ Instr.Fname (func_name fn); Instr.Tuple_op (vals ()) ]
  | fn -> fail "unknown function %s" fn

and functions ctx =
  List.filter_map
    (function D_function (n, p, r, _) -> Some (n, (p, r)) | _ -> None)
    ctx.script

(* ---- Statement compilation --------------------------------------------------------- *)

let rec compile_stmt ctx b (tenv : tenv ref) (s : stmt) =
  match s with
  | S_expr e -> ignore (compile_expr ctx b !tenv e)
  | S_local (name, None, Some e) ->
      (* Typed by its initializer; a record constructor's value keeps its
         anonymous struct type. *)
      let bty = Option.value ~default:T_any (type_of ctx !tenv e) in
      let v = compile_expr ctx b !tenv e in
      let hty =
        match (bty, operand_htype b v) with
        | T_any, Some t -> t
        | _ -> htype_of bty
      in
      let name = Builder.local b name hty in
      tenv := (name, bty) :: !tenv;
      Builder.instr b ~target:name "assign" [ v ]
  | S_local (name, ty, init) ->
      let bty =
        match ty with
        | Some t -> t
        | None -> fail "local %s needs type or initializer" name
      in
      let hty = htype_of bty in
      let name = Builder.local b name hty in
      tenv := (name, bty) :: !tenv;
      (match init with
      | Some e ->
          let v = compile_expr ~expect:bty ctx b !tenv e in
          Builder.instr b ~target:name "assign" [ v ]
      | None -> (
          (* Containers and records need allocation even without an
             initializer. *)
          match bty with
          | T_set _ | T_table _ | T_vector _ | T_record _ ->
              let v =
                Builder.emit b hty "new" [ Instr.Type_op (Htype.deref hty) ]
              in
              Builder.instr b ~target:name "assign" [ v ]
          | _ -> ()))
  | S_assign (lhs, rhs) -> (
      let expect =
        match lhs with
        | E_index (e, _) -> (
            match type_of ctx !tenv e with Some (T_table (_, v)) -> Some v | _ -> None)
        | _ -> type_of ctx !tenv lhs
      in
      let v = compile_expr ?expect ctx b !tenv rhs in
      match lhs with
      | E_id n ->
          if List.mem_assoc n !tenv then Builder.instr b ~target:n "assign" [ v ]
          else if Hashtbl.mem ctx.global_types n then
            Builder.instr b ~target:n "assign" [ v ]
          else fail "unknown assignment target %s" n
      | E_field (e, f) ->
          let r = compile_expr ctx b !tenv e in
          Builder.instr b "struct.set" [ r; Instr.Member f; v ]
      | E_index (e, keys) ->
          let c = compile_expr ctx b !tenv e in
          let k = compile_key ctx b !tenv keys in
          Builder.instr b "map.insert" [ c; k; v ]
      | _ -> fail "bad assignment target")
  | S_add e -> (
      match e with
      | E_index (se, keys) ->
          let s = compile_expr ctx b !tenv se in
          let k = compile_key ctx b !tenv keys in
          Builder.instr b "set.insert" [ s; k ]
      | _ -> fail "add expects s[k]")
  | S_delete e -> (
      match e with
      | E_index (se, keys) -> (
          let c = compile_expr ctx b !tenv se in
          let k = compile_key ctx b !tenv keys in
          match type_of ctx !tenv se with
          | Some (T_set _) -> Builder.instr b "set.remove" [ c; k ]
          | _ -> Builder.instr b "map.remove" [ c; k ])
      | _ -> fail "delete expects t[k]")
  | S_print args ->
      Builder.instr b "call"
        [ Instr.Fname "Bro::print";
          Instr.Tuple_op (List.map (compile_expr ctx b !tenv) args) ]
  | S_if (c, thens, elses) ->
      let cond = compile_expr ctx b !tenv c in
      let lt = fresh ctx "then" and le = fresh ctx "else" and fi = fresh ctx "fi" in
      Builder.if_else b cond ~then_:lt ~else_:le;
      Builder.set_block b lt;
      let saved = !tenv in
      List.iter (compile_stmt ctx b tenv) thens;
      tenv := saved;
      if not (terminated b) then Builder.jump b fi;
      Builder.set_block b le;
      List.iter (compile_stmt ctx b tenv) elses;
      tenv := saved;
      if not (terminated b) then Builder.jump b fi;
      Builder.set_block b fi
  | S_for (var, e, body) ->
      let container = compile_expr ctx b !tenv e in
      let cty = type_of ctx !tenv e in
      let it = Builder.tmp b (Htype.Iter Htype.Any) in
      let i0 = Builder.emit b (Htype.Iter Htype.Any) "iter.begin" [ container ] in
      Builder.instr b ~target:it "assign" [ i0 ];
      let head = fresh ctx "for" and body_l = fresh ctx "forbody" and done_l = fresh ctx "fordone" in
      Builder.jump b head;
      Builder.set_block b head;
      let at_end = Builder.emit b Htype.Bool "iter.at_end" [ Instr.Local it ] in
      Builder.if_else b at_end ~then_:done_l ~else_:body_l;
      Builder.set_block b body_l;
      let elem = Builder.emit b Htype.Any "iter.deref" [ Instr.Local it ] in
      let elem_ty, elem_op =
        match cty with
        | Some (T_table (ks, _)) ->
            (* map iteration yields (key, value); Bro iterates keys *)
            let k = Builder.emit b Htype.Any "tuple.get" [ elem; Builder.const_int 0 ] in
            ((match ks with [ k1 ] -> k1 | _ -> T_any), k)
        | Some (T_set [ k1 ]) -> (k1, elem)
        | Some (T_vector t) -> (t, elem)
        | _ -> (T_any, elem)
      in
      let var = Builder.local b var (htype_of elem_ty) in
      Builder.instr b ~target:var "assign" [ elem_op ];
      let saved = !tenv in
      tenv := (var, elem_ty) :: !tenv;
      List.iter (compile_stmt ctx b tenv) body;
      tenv := saved;
      let it2 = Builder.emit b (Htype.Iter Htype.Any) "iter.incr" [ Instr.Local it ] in
      Builder.instr b ~target:it "assign" [ it2 ];
      Builder.jump b head;
      Builder.set_block b done_l
  | S_return None -> Builder.instr b "return.void" []
  | S_return (Some e) ->
      let v = compile_expr ctx b !tenv e in
      Builder.return_result b v
  | S_event (name, args) ->
      Builder.instr b "call"
        [ Instr.Fname "Bro::queue_event";
          Instr.Tuple_op
            (Builder.const_string name :: List.map (compile_expr ctx b !tenv) args) ]

(* ---- Declaration compilation -------------------------------------------------------- *)

let compile_body ctx name ~cc params result body =
  let b =
    Builder.func ctx.m ~cc name ~exported:true
      ~params:(List.map (fun (n, t) -> (n, htype_of t)) params)
      ~result:(htype_of result)
  in
  let tenv = ref params in
  List.iter (compile_stmt ctx b tenv) body;
  if not (terminated b) then
    match htype_of result with
    | Htype.Void -> Builder.return_ b
    | _ ->
        (* Falling off a value-returning function is a runtime error. *)
        let e =
          Builder.emit b Htype.Exception "exception.new"
            [ Builder.const_string "Bro::NoReturn"; Builder.const_string name ]
        in
        Builder.instr b "throw" [ e ]

(** Compile a script into a HILTI module.  Also returns the script's
    literal [fmt] formats, in the order of the plan indices the module's
    [Bro::fmt] calls carry. *)
let compile (script : script) : Module_ir.t * string array =
  let m = Module_ir.create "BroScripts" in
  let ctx =
    {
      script;
      m;
      label_counter = 0;
      anon_counter = 0;
      global_types = Hashtbl.create 16;
      func_results = Hashtbl.create 16;
      formats = Hashtbl.create 8;
    }
  in
  (* Declare the engine's C-level API (the host-application functions the
     compiled scripts call out to, §3.4). *)
  List.iter
    (fun (name, params, result) ->
      Module_ir.add_func m
        {
          Module_ir.fname = name;
          params;
          result;
          locals = [];
          blocks = [];
          cc = Module_ir.Cc_c;
          hook_priority = 0;
          exported = true;
        })
    [ ("Bro::print", [ ("args", Htype.Any) ], Htype.Void);
      ("Bro::fmt", [ ("args", Htype.Any) ], Htype.Bytes);
      ("Bro::cat", [ ("args", Htype.Any) ], Htype.Bytes);
      ("Bro::to_count", [ ("s", Htype.Bytes) ], Htype.Int 64);
      ("Bro::sha1", [ ("s", Htype.Bytes) ], Htype.Bytes);
      ("Bro::join", [ ("v", Htype.Any); ("sep", Htype.Bytes) ], Htype.Bytes);
      ("Bro::network_time", [], Htype.Time);
      ("Bro::log_write", [ ("stream", Htype.Bytes); ("rec", Htype.Any) ], Htype.Bool);
      ("Bro::queue_event", [ ("args", Htype.Any) ], Htype.Void) ];
  (* Records -> structs. *)
  List.iter
    (function
      | D_record (n, fields) ->
          Module_ir.add_type m (record_type n)
            (Module_ir.Struct_decl (List.map (fun (fn, ft) -> (fn, htype_of ft)) fields))
      | _ -> ())
    script;
  (* Globals + their types. *)
  List.iter
    (function
      | D_global (n, ty, _, _) ->
          Hashtbl.replace ctx.global_types n ty;
          Module_ir.add_global m n (htype_of ty)
      | D_function (n, _, r, _) -> Hashtbl.replace ctx.func_results n r
      | _ -> ())
    script;
  (* bro::init_globals: allocate containers, run initializers, defaults. *)
  let b = Builder.func m "bro::init_globals" ~exported:true ~params:[] ~result:Htype.Void in
  let tenv = ref [] in
  List.iter
    (function
      | D_global (name, ty, init, attrs) -> (
          (match ty with
          | T_set _ | T_table _ | T_vector _ ->
              let hty = htype_of ty in
              let v = Builder.emit b hty "new" [ Instr.Type_op (Htype.deref hty) ] in
              Builder.instr b ~target:name "assign" [ v ]
          | _ -> ());
          (match init with
          | Some e ->
              let v = compile_expr ctx b !tenv e in
              Builder.instr b ~target:name "assign" [ v ]
          | None -> ());
          List.iter
            (function
              | A_default d ->
                  let dv = compile_expr ctx b !tenv d in
                  Builder.instr b "map.default" [ Instr.Global name; dv ]
              | A_create_expire e ->
                  let iv = compile_expr ctx b !tenv e in
                  Builder.instr b "map.timeout"
                    [ Instr.Global name;
                      Instr.Const (Constant.Enum_label ("Hilti::ExpireStrategy", "Create"));
                      iv ]
              | A_read_expire e ->
                  let iv = compile_expr ctx b !tenv e in
                  Builder.instr b "map.timeout"
                    [ Instr.Global name;
                      Instr.Const (Constant.Enum_label ("Hilti::ExpireStrategy", "Access"));
                      iv ])
            attrs)
      | _ -> ())
    script;
  Builder.return_ b;
  (* Functions and event handlers (handlers become hooks, Fig. 8). *)
  List.iter
    (function
      | D_function (n, params, result, body) ->
          compile_body ctx (func_name n) ~cc:Module_ir.Cc_hilti params result body
      | D_event (n, params, body) ->
          compile_body ctx (event_hook n) ~cc:Module_ir.Cc_hook params T_void body
      | _ -> ())
    script;
  let formats = Array.make (Hashtbl.length ctx.formats) "" in
  Hashtbl.iter (fun f i -> formats.(i) <- f) ctx.formats;
  (m, formats)
