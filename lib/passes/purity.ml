(** Purity classification of IR instructions, shared by the optimization
    passes (constant folding, CSE, DCE, dead-store elimination).

    "Pure" is split in two, because the passes need two different licences:

    - {b foldable}: no side effects, deterministic in its operands.  Such an
      instruction may be constant-folded or deduplicated (CSE) — if it
      raises (e.g. [int.div] by zero), identical operands raise identically,
      and control never reaches a second copy after the first raise, so
      merging is behaviour-preserving.

    - {b deletable}: foldable {e and} cannot raise.  Only these may be
      removed when their result is unused (DCE, dead-store elimination):
      deleting an unused [int.div] whose divisor might be zero would erase
      an observable [Hilti::DivisionByZero].

    Division and modulo are deletable when the divisor is a non-zero
    constant — the one case where "may raise" is statically refutable. *)

let pure_groups =
  [ "int"; "double"; "bool"; "addr"; "port"; "net"; "interval"; "tuple";
    "enum"; "bitset" ]

let pure_flow = [ "equal"; "select"; "assign"; "nop" ]

(* time.wall reads the clock; every other time op is pure.  String ops are
   pure.  Bytes/containers are mutable heap objects: conservatively impure. *)
let is_foldable (i : Instr.t) =
  let m = i.Instr.mnemonic in
  if List.mem m pure_flow then true
  else if m = "time.wall" then false
  else
    match String.index_opt m '.' with
    | Some d ->
        let g = String.sub m 0 d in
        List.mem g pure_groups || g = "time" || g = "string"
    | None -> false

(* Foldable mnemonics whose evaluation can raise a HILTI exception
   depending on operand VALUES (not just types): these stay observable
   even when the result is unused. *)
let raising_mnemonics =
  [ "int.div"; "int.mod";        (* Hilti::DivisionByZero *)
    "double.div";                (* Hilti::DivisionByZero *)
    "int.to_string";             (* ValueError: base must be 8, 10 or 16 *)
    "string.format";             (* ValueError: bad directive / arity *)
    "string.substr";             (* out-of-range substring *)
    "tuple.get" ]                (* IndexError on bad constant index *)

let divisor_operand (i : Instr.t) =
  match i.Instr.operands with [ _; d ] -> Some d | _ -> None

(* The raise is statically refuted when the decisive operand is a constant
   with a known-safe value: a non-zero divisor for div/mod. *)
let cannot_raise (i : Instr.t) =
  match i.Instr.mnemonic with
  | "int.div" | "int.mod" -> (
      match divisor_operand i with
      | Some (Instr.Const (Constant.Int (d, _))) -> d <> 0L
      | _ -> false)
  | "double.div" -> (
      match divisor_operand i with
      | Some (Instr.Const (Constant.Double d)) -> d <> 0.0
      | _ -> false)
  | _ -> false

let may_raise (i : Instr.t) =
  List.mem i.Instr.mnemonic raising_mnemonics && not (cannot_raise i)

let is_deletable (i : Instr.t) = is_foldable i && not (may_raise i)
