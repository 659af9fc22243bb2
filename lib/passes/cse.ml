(** Common-subexpression elimination (§6.6 calls out "subsequent lookups
    for the same map element" as the kind of redundancy to compress; we
    implement the classic local CSE for pure instructions).

    Within a block: two pure instructions with identical mnemonic and
    operands compute the same value, so the second becomes an [assign] from
    the first's target.  A write to any local invalidates expressions
    mentioning it. *)

open Module_ir

let rec operand_key (op : Instr.operand) =
  match op with
  | Instr.Const c -> "c:" ^ Constant.to_string c
  | Instr.Local n -> "l:" ^ n
  | Instr.Global n -> "g:" ^ n
  | Instr.Label l -> "L:" ^ l
  | Instr.Fname f -> "f:" ^ f
  | Instr.Member m -> "m:" ^ m
  | Instr.Type_op t -> "t:" ^ Htype.to_string t
  | Instr.Tuple_op ops -> "(" ^ String.concat "," (List.map operand_key ops) ^ ")"

let instr_key (i : Instr.t) =
  i.Instr.mnemonic ^ " " ^ String.concat " " (List.map operand_key i.Instr.operands)

let rec mentions name (op : Instr.operand) =
  match op with
  | Instr.Local n -> n = name
  | Instr.Tuple_op ops -> List.exists (mentions name) ops
  | _ -> false

(* [narrow t]: [t] is a narrow [int<N>] local, which an [assign] would
   wrap, so an instruction storing into it is never replaced by one. *)
let cse_block ~narrow (b : block) : int =
  let changes = ref 0 in
  (* available: expression key -> local holding its value *)
  let available : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let invalidate name =
    let stale =
      Hashtbl.fold
        (fun key holder acc ->
          if holder = name || String.length key > 0 &&
             (* conservative: if the key mentions the local textually *)
             (let marker = "l:" ^ name in
              let rec find i =
                i + String.length marker <= String.length key
                && (String.sub key i (String.length marker) = marker || find (i + 1))
              in
              find 0)
          then key :: acc
          else acc)
        available []
    in
    List.iter (Hashtbl.remove available) stale
  in
  let rewritten =
    List.map
      (fun (i : Instr.t) ->
        (* Impure instructions may change globals: drop expressions whose
           key mentions one. *)
        if not (Purity.is_foldable i) then begin
          let stale =
            Hashtbl.fold
              (fun key _ acc ->
                let has_global =
                  let rec find j =
                    j + 2 <= String.length key
                    && (String.sub key j 2 = "g:" || find (j + 1))
                  in
                  find 0
                in
                if has_global then key :: acc else acc)
              available []
          in
          List.iter (Hashtbl.remove available) stale
        end;
        (* The target's previous value dies first: expressions mentioning
           it are stale. *)
        (match i.Instr.target with Some t -> invalidate t | None -> ());
        if Purity.is_foldable i && i.Instr.target <> None && i.Instr.mnemonic <> "assign"
        then begin
          let key = instr_key i in
          match Hashtbl.find_opt available key with
          | Some holder when Some holder <> i.Instr.target && not (narrow (Option.get i.Instr.target)) ->
              incr changes;
              Instr.make ?target:i.Instr.target "assign" [ Instr.Local holder ]
          | _ ->
              (* Self-referential definitions (x = x + 1) are not
                 available afterwards: the key names the old value. *)
              let tgt = Option.get i.Instr.target in
              if not (List.exists (mentions tgt) i.Instr.operands) then
                Hashtbl.replace available key tgt;
              i
        end
        else i)
      b.instrs
  in
  b.instrs <- rewritten;
  !changes

let run (m : t) : int =
  List.fold_left
    (fun acc (f : func) ->
      let narrow n = Int_arith.store_width (List.assoc_opt n (f.params @ f.locals)) <> None in
      List.fold_left (fun acc b -> acc + cse_block ~narrow b) acc f.blocks)
    0 (m.funcs @ m.hooks)
