(** Constant folding and propagation (named in §6.6 as a basic optimization
    the prototype lacks — we implement it at the HILTI level).

    Within each block: tracks locals assigned constants, substitutes them
    into later operand positions, evaluates pure instructions whose
    operands are all constants, and turns [if.else] on a constant condition
    into a [jump].  Returns the number of rewrites performed. *)

open Module_ir

(* [Int_arith] is the VM's own arithmetic; a division by zero stays in the
   program and raises when run. *)
let eval_int_binop op width a b =
  match Int_arith.of_name op with
  | Some (Int_arith.A_div | Int_arith.A_mod) when b = 0L -> None
  | Some op -> Some (Int_arith.apply op width a b)
  | None -> None

let eval_int_cmp op a b =
  let c = Int64.compare a b in
  match op with
  | "eq" -> Some (c = 0)
  | "lt" -> Some (c < 0)
  | "gt" -> Some (c > 0)
  | "leq" -> Some (c <= 0)
  | "geq" -> Some (c >= 0)
  | _ -> None

let rec const_equal (a : Constant.t) (b : Constant.t) =
  match (a, b) with
  | Constant.Tuple xs, Constant.Tuple ys ->
      List.length xs = List.length ys && List.for_all2 const_equal xs ys
  | _ -> a = b

(* Evaluate a pure instruction with constant operands. *)
let eval (i : Instr.t) (consts : Constant.t list) : Constant.t option =
  let m = i.Instr.mnemonic in
  match (m, consts) with
  | "equal", [ a; b ] -> Some (Constant.Bool (const_equal a b))
  | "select", [ Constant.Bool c; a; b ] -> Some (if c then a else b)
  | "bool.and", [ Constant.Bool a; Constant.Bool b ] -> Some (Constant.Bool (a && b))
  | "bool.or", [ Constant.Bool a; Constant.Bool b ] -> Some (Constant.Bool (a || b))
  | "bool.not", [ Constant.Bool a ] -> Some (Constant.Bool (not a))
  | "string.concat", [ Constant.String a; Constant.String b ] ->
      Some (Constant.String (a ^ b))
  | "string.length", [ Constant.String a ] ->
      Some (Constant.Int (Int64.of_int (String.length a), 64))
  | "string.eq", [ Constant.String a; Constant.String b ] -> Some (Constant.Bool (a = b))
  | _ -> (
      match String.index_opt m '.' with
      | Some d when String.sub m 0 d = "int" -> (
          let sub = String.sub m (d + 1) (String.length m - d - 1) in
          match consts with
          | [ Constant.Int (a, w); Constant.Int (b, _) ] -> (
              match eval_int_binop sub w a b with
              | Some v -> Some (Constant.Int (v, w))
              | None -> (
                  match eval_int_cmp sub a b with
                  | Some bv -> Some (Constant.Bool bv)
                  | None -> None))
          | [ Constant.Int (a, w) ] when sub = "neg" -> Some (Constant.Int (Int_arith.neg w a, w))
          | [ Constant.Int (a, w) ] when sub = "abs" -> Some (Constant.Int (Int_arith.abs w a, w))
          | _ -> None)
      | _ -> None)

let fold_block ~local_type (b : block) : int =
  let is_local n = local_type n <> None in
  let changes = ref 0 in
  let known : (string, Constant.t) Hashtbl.t = Hashtbl.create 16 in
  (* A propagated int keeps the local's declared width, which is the width
     lowering gives an instruction whose first operand is that local.  Its
     value is what the local's register holds: an [assign] wraps at a
     narrow local's width, an instruction's result does not. *)
  let width n = Int_arith.width_of_type (local_type n) in
  let subst (op : Instr.operand) =
    match op with
    | Instr.Local n -> (
        match Hashtbl.find_opt known n with
        | Some c ->
            incr changes;
            Instr.Const
              (match c with
              | Constant.Int (v, _) -> Constant.Int (v, width n)
              | c -> c)
        | None -> op)
    | _ -> op
  in
  let rewritten =
    List.map
      (fun (i : Instr.t) ->
        let operands = List.map subst i.Instr.operands in
        let i = { i with Instr.operands } in
        (* A local overwritten by any instruction loses its known value. *)
        (match i.Instr.target with Some t -> Hashtbl.remove known t | None -> ());
        (* Impure instructions (e.g. calls) may write globals behind our
           back: forget every non-local fact. *)
        if not (Purity.is_foldable i) then
          Hashtbl.iter
            (fun n _ -> if not (is_local n) then Hashtbl.remove known n)
            (Hashtbl.copy known);
        match i.Instr.mnemonic with
        | "assign" -> (
            match (i.Instr.target, operands) with
            | Some t, [ Instr.Const c ] when is_local t ->
                Hashtbl.replace known t
                  (match c with
                  | Constant.Int (v, w) -> Constant.Int (Int_arith.wrap (width t) v, w)
                  | c -> c);
                i
            | _ -> i)
        | "if.else" -> (
            match operands with
            | [ Instr.Const (Constant.Bool c); Instr.Label lt; Instr.Label le ] ->
                incr changes;
                Instr.make "jump" [ Instr.Label (if c then lt else le) ]
            | _ -> i)
        | _ ->
            if Purity.is_foldable i && i.Instr.target <> None
               && is_local (Option.get i.Instr.target) then begin
              let consts =
                List.filter_map
                  (function Instr.Const c -> Some c | _ -> None)
                  operands
              in
              if List.length consts = List.length operands then
                let t = Option.get i.Instr.target in
                match eval i consts with
                | Some c ->
                    Hashtbl.replace known t c;
                    (* Stored by an [assign], a result too wide for a narrow
                       local would wrap. *)
                    (match c with
                    | Constant.Int (v, _) when Int_arith.wrap (width t) v <> v -> i
                    | c ->
                        incr changes;
                        Instr.make ?target:i.Instr.target "assign" [ Instr.Const c ])
                | None -> i
              else i
            end
            else i)
      b.instrs
  in
  b.instrs <- rewritten;
  !changes

(** Run over every block of every function; returns total rewrites. *)
let run (m : t) : int =
  List.fold_left
    (fun acc (f : func) ->
      let vars = f.locals @ f.params in
      let local_type n = List.assoc_opt n vars in
      List.fold_left (fun acc b -> acc + fold_block ~local_type b) acc f.blocks)
    0 (m.funcs @ m.hooks)
