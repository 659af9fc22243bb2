(** Programmatic IR construction — the equivalent of HILTI's C++ AST API
    (§3.4), which host-application compilers (BinPAC++, the Bro script
    compiler, the BPF and firewall rule compilers) use to emit HILTI code
    in memory before handing it to the toolchain. *)

open Module_ir

type t = {
  modul : Module_ir.t;
  func : func;
  mutable current : block;
  mutable tmp_counter : int;
  block_index : (string, block) Hashtbl.t;  (* label -> block, O(1) lookup *)
}

(** Begin a new function in [modul]; its entry block is current. *)
let func modul ?(cc = Cc_hilti) ?(hook_priority = 0) ?(exported = false) fname
    ~params ~result =
  let entry = { label = "entry"; instrs = [] } in
  let f =
    { fname; params; result; locals = []; blocks = [ entry ]; cc; hook_priority; exported }
  in
  (match cc with Cc_hook -> add_hook modul f | _ -> add_func modul f);
  let block_index = Hashtbl.create 16 in
  Hashtbl.add block_index entry.label entry;
  { modul; func = f; current = entry; tmp_counter = 0; block_index }

(** Declare (or re-use) a local variable. *)
let local b name ty =
  if not (List.mem_assoc name b.func.locals || List.mem_assoc name b.func.params)
  then b.func.locals <- b.func.locals @ [ (name, ty) ];
  name

(** A fresh temporary local of the given type. *)
let tmp b ty =
  b.tmp_counter <- b.tmp_counter + 1;
  let name = Printf.sprintf "__t%d" b.tmp_counter in
  local b name ty

(** Create a new block (without switching to it). *)
let new_block b label =
  match Hashtbl.find_opt b.block_index label with
  | Some blk -> blk
  | None ->
      let blk = { label; instrs = [] } in
      Hashtbl.add b.block_index label blk;
      b.func.blocks <- b.func.blocks @ [ blk ];
      blk

(** Switch emission to the given block, creating it if necessary. *)
let set_block b label = b.current <- new_block b label

(** Append an instruction to the current block. *)
let instr b ?target ?location mnemonic operands =
  let i = Instr.make ?target ?location mnemonic operands in
  b.current.instrs <- b.current.instrs @ [ i ]

(* Shorthands for common emission patterns ------------------------------- *)

let assign b ~target op = instr b ~target "assign" [ op ]

let call b ?target fname args =
  instr b ?target "call" [ Instr.Fname fname; Instr.Tuple_op args ]

let jump b label = instr b "jump" [ Instr.Label label ]

let if_else b cond ~then_ ~else_ =
  instr b "if.else" [ cond; Instr.Label then_; Instr.Label else_ ]

let return_ b = instr b "return.void" []
let return_result b op = instr b "return.result" [ op ]

(** Emit [target = <mnemonic> ops] with a fresh temporary as target;
    returns the temporary's name as an operand. *)
let emit b ty mnemonic operands =
  let target = tmp b ty in
  instr b ~target mnemonic operands;
  Instr.Local target

let const_int ?(width = 64) v = Instr.Const (Constant.Int (Int64.of_int v, width))
let const_bool v = Instr.Const (Constant.Bool v)
let const_string s = Instr.Const (Constant.String s)
let const_bytes s = Instr.Const (Constant.Bytes s)
