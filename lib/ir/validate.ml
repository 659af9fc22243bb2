(** Static validation of IR modules.

    Checks performed per function:
    - every mnemonic exists in the {!Isa} table, with arity and target
      presence as declared;
    - every [Local] operand is a declared parameter or local, every
      [Global] a declared module global, every [Label] an existing block,
      and every [Fname] a known function or hook;
    - blocks are terminator-correct: no instructions after a terminator,
      and every block ends in one (the lowering pass inserts the implicit
      [return.void] for void functions, so a missing final terminator is
      only an error for value-returning functions);
    - container instructions receive a container of their group's kind as
      first operand (e.g. [list.append] on a [ref<list<T>>]).

    Returns the list of error strings; empty means valid. *)

open Module_ir

let terminators =
  [ "jump"; "if.else"; "return.void"; "return.result"; "throw"; "switch" ]

let is_terminator (i : Instr.t) = List.mem i.Instr.mnemonic terminators

type env = {
  modul : t;
  func : func;
  vars : (string, Htype.t) Hashtbl.t;
  labels : (string, unit) Hashtbl.t;  (* block labels, for O(1) target checks *)
  mutable errors : string list;
}

let error env fmt =
  Printf.ksprintf
    (fun msg ->
      env.errors <- Printf.sprintf "%s.%s: %s" env.modul.mname env.func.fname msg
                    :: env.errors)
    fmt

let rec operand_type env (op : Instr.operand) : Htype.t option =
  match op with
  | Instr.Const c -> Some (Constant.typ c)
  | Instr.Local n -> Hashtbl.find_opt env.vars n
  | Instr.Global n -> find_global env.modul n
  | Instr.Label _ | Instr.Fname _ | Instr.Member _ -> None
  | Instr.Type_op _ -> None
  | Instr.Tuple_op ops ->
      let ts = List.map (operand_type env) ops in
      if List.for_all Option.is_some ts then
        Some (Htype.Tuple (List.map Option.get ts))
      else None

let check_operand_refs env (i : Instr.t) =
  (* Fully recursive: [Tuple_op] nests arbitrarily (switch cases are
     [Tuple_op [value; Label target]]), and the labels, globals and
     function names inside must be checked exactly like top-level
     operands. *)
  let rec go op =
    match op with
    | Instr.Local n ->
        (* Module globals may be referenced bare; the lowerer resolves
           them to thread-local slots. *)
        if not (Hashtbl.mem env.vars n) && find_global env.modul n = None then
          error env "%s: undeclared local '%s'" i.Instr.mnemonic n
    | Instr.Global n ->
        if find_global env.modul n = None then
          error env "%s: undeclared global '%s'" i.Instr.mnemonic n
    | Instr.Label l ->
        if not (Hashtbl.mem env.labels l) then
          error env "%s: unknown block label '%s'" i.Instr.mnemonic l
    | Instr.Fname f ->
        (* Names under the Hilti:: namespace are runtime-provided host
           functions; hook names may gain bodies only at link time; any
           other function must be declared (possibly Cc_c). *)
        let known =
          i.Instr.mnemonic = "hook.run"
          || find_func env.modul f <> None
          || List.exists (fun h -> h.fname = f) env.modul.hooks
          || String.length f > 7 && String.sub f 0 7 = "Hilti::"
          || List.mem f env.modul.imports
        in
        if not known then error env "%s: unknown function '%s'" i.Instr.mnemonic f
    | Instr.Tuple_op ops -> List.iter go ops
    | Instr.Const _ | Instr.Member _ | Instr.Type_op _ -> ()
  in
  List.iter go i.Instr.operands;
  (* switch has a fixed shape the lowerer depends on: value operand,
     default label, then (constant, label) case pairs. *)
  if i.Instr.mnemonic = "switch" then
    match i.Instr.operands with
    | _value :: _default :: cases ->
        List.iter
          (function
            | Instr.Tuple_op [ Instr.Const _; Instr.Label _ ] -> ()
            | op ->
                error env "switch: malformed case %s (expected (const, label))"
                  (Instr.operand_to_string op))
          cases
    | _ -> ()

(* First-operand kind check for container groups. *)
let container_kind_ok group (ty : Htype.t) =
  match (group, Htype.deref ty) with
  | "list", Htype.List _
  | "vector", Htype.Vector _
  | "set", Htype.Set _
  | "map", Htype.Map _
  | "channel", Htype.Channel _
  | "classifier", Htype.Classifier _
  | "struct", Htype.Struct _ ->
      true
  | ("list" | "vector" | "set" | "map" | "channel" | "classifier" | "struct"), Htype.Any
    ->
      true
  | _ -> false

let check_container env (i : Instr.t) entry =
  let container_groups = [ "list"; "vector"; "set"; "map"; "channel"; "classifier"; "struct" ] in
  if List.mem entry.Isa.group container_groups then
    match i.Instr.operands with
    | first :: _ -> (
        match operand_type env first with
        | Some ty when not (container_kind_ok entry.Isa.group ty) ->
            error env "%s: first operand has type %s, expected a %s"
              i.Instr.mnemonic (Htype.to_string ty) entry.Isa.group
        | _ -> ())
    | [] -> ()

let check_instr env (i : Instr.t) =
  match Isa.find i.Instr.mnemonic with
  | None -> error env "unknown instruction '%s'" i.Instr.mnemonic
  | Some entry ->
      let n = List.length i.Instr.operands in
      if n < entry.Isa.min_ops || n > entry.Isa.max_ops then
        error env "%s: %d operands, expected %d..%d" i.Instr.mnemonic n
          entry.Isa.min_ops entry.Isa.max_ops;
      (match (entry.Isa.target, i.Instr.target) with
      | Isa.No_target, Some _ ->
          error env "%s: does not produce a result" i.Instr.mnemonic
      | Isa.Needs_target, None ->
          error env "%s: requires a target" i.Instr.mnemonic
      | _ -> ());
      check_operand_refs env i;
      check_container env i entry

(* Blocks without a final terminator fall through to the next block in
   declaration order (and lowering emits them consecutively); only the
   final block of a value-returning function must end in one. *)
let check_block env ~is_last (b : block) =
  let rec go = function
    | [] -> ()
    | [ last ] ->
        check_instr env last;
        if is_last && (not (is_terminator last)) && env.func.result <> Htype.Void
        then error env "block '%s' does not end in a terminator" b.label
    | i :: rest ->
        check_instr env i;
        if is_terminator i then
          error env "block '%s': instructions after terminator '%s'" b.label
            i.Instr.mnemonic;
        go rest
  in
  (match b.instrs with
  | [] when is_last && env.func.result <> Htype.Void ->
      error env "final block '%s' is empty in a value-returning function" b.label
  | _ -> ());
  go b.instrs

let check_func modul (f : func) =
  let env =
    { modul; func = f; vars = Hashtbl.create 16;
      labels = Hashtbl.create (2 * List.length f.blocks); errors = [] }
  in
  List.iter (fun (b : block) -> Hashtbl.replace env.labels b.label ()) f.blocks;
  List.iter (fun (n, t) -> Hashtbl.replace env.vars n t) f.params;
  List.iter (fun (n, t) -> Hashtbl.replace env.vars n t) f.locals;
  (* Duplicate declarations. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      if Hashtbl.mem seen n then error env "duplicate variable '%s'" n
      else Hashtbl.add seen n ())
    (f.params @ f.locals);
  if f.cc <> Cc_c then begin
    (match f.blocks with
    | [] -> error env "function has no blocks"
    | _ -> ());
    let nblocks = List.length f.blocks in
    List.iteri (fun i b -> check_block env ~is_last:(i = nblocks - 1) b) f.blocks;
    (* Duplicate block labels. *)
    let labels = Hashtbl.create 8 in
    List.iter
      (fun (b : block) ->
        if Hashtbl.mem labels b.label then error env "duplicate block '%s'" b.label
        else Hashtbl.add labels b.label ())
      f.blocks
  end;
  env.errors

(** Validate a whole module; returns all errors (empty = valid). *)
let check_module (m : t) =
  let dup_funcs =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun (f : func) ->
        if Hashtbl.mem seen f.fname then Some (m.mname ^ ": duplicate function " ^ f.fname)
        else begin
          Hashtbl.add seen f.fname ();
          None
        end)
      m.funcs
  in
  dup_funcs
  @ List.concat_map (check_func m) m.funcs
  @ List.concat_map (check_func m) m.hooks
