(** The audited effect table: one classification shared by every consumer.

    Two layers of the toolchain need to know what code is allowed to do:

    - the {e IR optimization passes} ({!Purity}) ask whether an instruction
      may be folded, deduplicated or deleted;
    - the {e interprocedural analyses} ([Hilti_vm.Summary], the shard-race
      detector) ask what a call out of HILTI — a host-API ("C") function —
      can touch: globals, the event stream, the outside world.

    Both questions used to be answered from separate ad-hoc lists that
    could drift.  This module is the single source: the mnemonic
    classification that {!Purity} re-exports, plus the audited host-API
    table covering every builtin the repo's frontends and runtimes
    register.  A host function absent from the table is {e unknown} and
    every client must treat it maximally conservatively. *)

(* ---- Effect classes ---------------------------------------------------- *)

type effect_class =
  | Pure          (** deterministic in its arguments, touches nothing *)
  | Reads_global  (** reads host- or runtime-global mutable state *)
  | Writes_global (** writes host- or runtime-global mutable state *)
  | Emits_event   (** appends to an event/log stream consumed downstream *)
  | Io            (** reads or writes the outside world (terminal, files) *)

let effect_class_to_string = function
  | Pure -> "pure"
  | Reads_global -> "reads-global"
  | Writes_global -> "writes-global"
  | Emits_event -> "emits-event"
  | Io -> "io"

(* ---- Audited host-API functions ----------------------------------------- *)

type host_fn = {
  hf_name : string;
  hf_effects : effect_class list;
  hf_sink : bool;
      (** arguments may be retained past the call (queued, logged):
          anything passed in escapes the calling activation *)
  hf_reenters_vm : bool;
      (** may synchronously call back into HILTI bytecode — a frame of the
          caller could be re-entered while still live *)
}

let hf ?(sink = false) ?(reenter = false) name effects =
  { hf_name = name; hf_effects = effects; hf_sink = sink; hf_reenters_vm = reenter }

(** Every host function a shipped component registers, audited by hand.
    Test- and bench-only helpers (the Host::, Par:: and Bench:: families)
    are left out deliberately: they stay unknown and force conservative
    treatment. *)
let host_table =
  [
    (* Host_api.compile's standard library surface. *)
    hf "Hilti::print" [ Io ];
    hf "Hilti::abort" [];  (* raises Hilti::Abort; retains nothing *)
    (* Mini-Bro runtime (bro_engine.ml). *)
    hf "Bro::print" [ Io ];
    hf "Bro::fmt" [ Pure ];
    hf "Bro::cat" [ Pure ];
    hf "Bro::to_count" [ Pure ];
    hf "Bro::sha1" [ Pure ];
    hf "Bro::join" [ Pure ];
    hf "Bro::network_time" [ Reads_global ];
    hf ~sink:true "Bro::log_write" [ Emits_event; Io ];
    hf ~sink:true "Bro::queue_event" [ Emits_event ];
    (* The BinPAC++ hook bridge (binpac/runtime.ml): every analyzer's unit
       hooks call it, and the session's handler turns the unit into
       events — event emission, not shared-state writes. *)
    hf ~sink:true "BinPAC::hook" [ Emits_event ];
  ]

let host_index : (string, host_fn) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter (fun h -> Hashtbl.replace t h.hf_name h) host_table;
  t

(** The audited entry for a host function, or [None] when unknown. *)
let host_effects name = Hashtbl.find_opt host_index name

let host_has name cls =
  match host_effects name with
  | Some h -> List.mem cls h.hf_effects
  | None -> false

(** Unknown host functions must be assumed to do all of it. *)
let host_is_unknown name = not (Hashtbl.mem host_index name)

(* ---- IR mnemonic classification ----------------------------------------- *)

(* The purity split the optimization passes consume; see {!Purity} for the
   foldable/deletable contract.  Kept here so the optimizer's notion of
   "no effects" and the analyses' effect vectors come from one table. *)

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
