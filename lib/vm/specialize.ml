(** Register-bank specialization: rewrite verified bytecode onto unboxed
    int/float register banks and fuse hot instruction pairs.

    This is the stage between {!Lower} and execution that the HILTI paper
    leaves to LLVM: keeping scalar locals out of boxed heap values.  We
    partition each function's frame three ways, driven by the verifier's
    exported per-register type join ({!Bytecode.func.typing}):

    - registers whose every definition is provably [Int] move to a flat
      unboxed int bank (a [Bytes.t], 8 bytes per slot, accessed with the
      unboxing-aware [get/set_int64_ne] primitives);
    - registers provably [Double] move to a [float array] bank;
    - everything else stays in the boxed {!Value.t} frame.

    Arithmetic and comparisons over banked registers are re-emitted as
    type-specialized opcodes ([IArith_u], [FCmp_u], ...) that read and
    write the banks directly — no argument array, no [Value] allocation,
    no primitive dispatch.  Boxing/unboxing bridges ([BoxI]/[UnboxI]/...)
    are inserted only where a banked register crosses into generic code
    (calls, globals, container ops), and {!Hilti_obs} counts every
    crossing under [vm_regbank_transfers].

    The invariant that makes staleness safe: for a banked {e written}
    register the bank is authoritative and the boxed slot is a shadow
    refreshed by a [Box*] bridge immediately before every generic read;
    for a banked constant-pool register (never written, entry-initialized)
    the boxed default stays valid forever, so it needs no bridges at all
    and its value can be folded into [*K_u] immediate forms.

    Bytes iterators get the same treatment in two halves ({!Bytecode.IPos_u}):
    a split iterator register keeps a boxed base (some iterator into the
    right bytes object) and its position in the int bank, so [unpack],
    [read], [iter.advance], [iter.at_end] and [iter.distance] move
    positions without building an iterator.  The bank is authoritative; a
    boxed iterator is built only where one escapes: into generic code
    ([IterBox_u]), or out of the host entry of a parse function.  Parse
    functions — every return [make_tuple (value, iterator); ret] — return
    the pair without a tuple to a [CallP_u] caller, which also hands the
    callee its arguments' positions in the bank; a function with nothing to
    bank keeps [spec = None] and runs exactly the generic code.

    After expansion, a peephole pass (the generic engine in
    {!Hilti_passes.Peephole}) fuses the pairs that dominate the
    per-opcode-group retirement counters on the firewall/DNS workloads:
    compare+branch, arith+move, and the increment+jump loop backedge.
    Fusion iterates to a fixpoint so [arith; mov; jump] latches cascade
    into a single [IIncrJ_u].

    {!reset_regs}, built from the same instruction shape helpers, serves
    the VM's recycled frames: which registers a frame must restore before
    an activation runs in it. *)

open Bytecode

type stats = {
  mutable s_funcs : int;       (** functions rewritten *)
  mutable s_generic : int;     (** functions left generic: nothing to bank *)
  mutable s_int_regs : int;    (** registers moved to the int bank *)
  mutable s_float_regs : int;  (** registers moved to the float bank *)
  mutable s_iter_regs : int;   (** iterator registers split into base + bank position *)
  mutable s_parse_calls : int; (** call sites passing positions in the bank ([CallP_u]) *)
  mutable s_bridges : int;     (** static box/unbox bridge sites emitted *)
  mutable s_fused : int;       (** instruction pairs fused *)
}

(* ---- Instruction shape helpers -------------------------------------------- *)

(* Registers an instruction reads from the boxed frame.  Specialized
   opcodes read banks, not the frame — except the unbox bridges, whose
   source is a boxed register. *)
let boxed_reads (i : instr) : int list =
  match i with
  | Mov (_, s) | StoreGlobal (_, s) | Throw s | UnboxI (_, s) | UnboxF (_, s)
  | Unpack (_, s, _, _) | UnpackI_u (_, s, _, _)
  | IPos_u (_, s) | IterBox_u (s, _) | PUnpack_u (_, s, _, _, _, _)
  | PUnpackI_u (_, s, _, _, _, _) | PRead_u (s, _, _, _, _, _)
  | PAdvance_u (_, _, s, _, _) | PAtEnd_u (_, s, _) | BLength_u (_, s) ->
      [ s ]
  | Read (s, n, _, _) | PReadR_u (s, _, n, _, _, _) | PDistance_u (_, s, _, n, _)
  | RetP_u (s, n, _) ->
      [ s; n ]
  | CallP_u (_, args, _, _, _, _) -> Array.to_list args
  | Br (c, _, _) -> [ c ]
  | Switch (v, _, _) -> [ v ]
  | Ret r -> if r >= 0 then [ r ] else []
  | Call (_, args, _) | CallC (_, args, _) | HookRun (_, args)
  | Bind (_, args, _) | Prim (_, args, _) ->
      Array.to_list args
  | Schedule (_, args, tid) -> tid :: Array.to_list args
  | _ -> []

(* The boxed registers an instruction defines on fallthrough.  TryPush's
   exception register is defined on the exception edge, not here — and is
   [Texception]-tagged, so never banked anyway. *)
let boxed_defs (i : instr) : int list =
  match i with
  | Const (d, _) | Mov (d, _) | LoadGlobal (d, _) -> [ d ]
  | Call (_, _, d) | CallC (_, _, d) | Bind (_, _, d) | Prim (_, _, d) -> [ d ]
  | BoxI (d, _) | BoxF (d, _) | ICmp_u (_, d, _, _) | ICmpK_u (_, d, _, _)
  | FCmp_u (_, d, _, _) ->
      [ d ]
  | Unpack (_, _, v, it) | Read (_, _, v, it) -> [ v; it ]
  | UnpackI_u (_, _, _, it) -> [ it ]
  | IterBox_u (r, _) | PUnpackI_u (_, _, _, _, r, _) | PAdvance_u (r, _, _, _, _)
  | PAtEnd_u (r, _, _) ->
      [ r ]
  | PUnpack_u (_, _, _, v, it, _) | PRead_u (_, _, _, v, it, _) | PReadR_u (_, _, _, v, it, _)
  | CallP_u (_, _, _, v, it, _) ->
      [ v; it ]
  | _ -> []

let ibank_reads (i : instr) : int list =
  match i with
  | IMov_u (_, s) | BoxI (_, s) | IterBox_u (_, s) | PUnpack_u (_, _, s, _, _, _)
  | PUnpackI_u (_, _, s, _, _, _) | PReadR_u (_, s, _, _, _, _) | PAtEnd_u (_, _, s)
  | RetP_u (_, _, s) ->
      [ s ]
  | IArith_u (_, _, _, a, b) | ICmp_u (_, _, a, b) | IBrCmp_u (_, a, b, _, _)
  | PRead_u (_, a, b, _, _, _) | PAdvance_u (_, _, _, a, b) | PDistance_u (_, _, a, _, b) ->
      [ a; b ]
  | IArithK_u (_, _, _, a, _) | ICmpK_u (_, _, a, _) | IBrCmpK_u (_, a, _, _, _) -> [ a ]
  | IIncrJ_u (_, d, _, _) -> [ d ]
  | CallP_u (_, _, apos, _, _, _) -> List.filter (fun p -> p >= 0) (Array.to_list apos)
  | _ -> []

let fbank_reads (i : instr) : int list =
  match i with
  | FMov_u (_, s) | BoxF (_, s) -> [ s ]
  | FArith_u (_, _, a, b) | FCmp_u (_, _, a, b) | FBrCmp_u (_, a, b, _, _) -> [ a; b ]
  | _ -> []

let targets_of (i : instr) : int list =
  match i with
  | Jump t | IIncrJ_u (_, _, _, t) -> [ t ]
  | Br (_, t, e) | IBrCmp_u (_, _, _, t, e) | IBrCmpK_u (_, _, _, t, e)
  | FBrCmp_u (_, _, _, t, e) ->
      [ t; e ]
  | Switch (_, d, cases) -> d :: List.map snd (Array.to_list cases)
  | TryPush (pc, _) -> [ pc ]
  | _ -> []

let retarget (f : int -> int) (i : instr) : instr =
  match i with
  | Jump t -> Jump (f t)
  | Br (c, t, e) -> Br (c, f t, f e)
  | Switch (v, d, cases) -> Switch (v, f d, Array.map (fun (c, pc) -> (c, f pc)) cases)
  | TryPush (pc, r) -> TryPush (f pc, r)
  | IBrCmp_u (c, a, b, t, e) -> IBrCmp_u (c, a, b, f t, f e)
  | IBrCmpK_u (c, a, k, t, e) -> IBrCmpK_u (c, a, k, f t, f e)
  | IIncrJ_u (w, d, k, t) -> IIncrJ_u (w, d, k, f t)
  | FBrCmp_u (c, a, b, t, e) -> FBrCmp_u (c, a, b, f t, f e)
  | i -> i

(* The generic interpreter supports the full [int_arith] table for ints
   but only these four for doubles — everything else must stay on the
   generic path so error behaviour is identical. *)
let double_arith_ok = function
  | A_add | A_sub | A_mul | A_div -> true
  | _ -> false

(* ---- Frame reset sets ------------------------------------------------------ *)

(** [(reset, stale)] for a recycled frame of [f].  [reset]: the
    registers it must restore from [reg_defaults] — every register some
    instruction writes whose entry value an activation can observe, read
    on some path from entry before any write.  [stale]: the other written
    registers, which every activation writes before reading them, so they
    may keep a previous activation's value.  Registers no instruction
    writes keep their default in the frame.  Parameters are in neither:
    every call binds each one, to its argument or to its default.  A
    forward must-analysis over the instructions; an exception edge
    carries the state at its [TryPush], as in {!Verify}. *)
let reset_regs (f : func) : int array * int array =
  let n = max f.nregs 1 in
  let code = f.code in
  let len = Array.length code in
  let writes (i : instr) =
    match i with
    | TryPush (_, r) -> [ r ]
    | i -> boxed_defs i
  in
  let written = Array.make n false in
  Array.iter (fun i -> List.iter (fun d -> if d >= 0 && d < n then written.(d) <- true) (writes i)) code;
  let states : Bytes.t option array = Array.make len None in
  let work = Queue.create () in
  let flow pc st =
    if pc >= 0 && pc < len then
      match states.(pc) with
      | None ->
          states.(pc) <- Some (Bytes.copy st);
          Queue.add pc work
      | Some cur ->
          let changed = ref false in
          Bytes.iteri
            (fun r c ->
              if c = '\001' && Bytes.get st r = '\000' then begin
                Bytes.set cur r '\000';
                changed := true
              end)
            cur;
          if !changed then Queue.add pc work
  in
  let set st r = if r >= 0 && r < n then Bytes.set st r '\001' in
  if len > 0 then flow 0 (Bytes.make n '\000');
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    let st = Bytes.copy (Option.get states.(pc)) in
    let i = code.(pc) in
    (match i with
    | TryPush (h, r) ->
        (* [r] is written on the exception edge only. *)
        let hs = Bytes.copy st in
        set hs r;
        flow h hs
    | _ ->
        List.iter (set st) (writes i);
        List.iter (fun t -> flow t st) (targets_of i));
    match i with
    | Jump _ | Br _ | Switch _ | Ret _ | RetP_u _ | Throw _
    | IIncrJ_u _ | IBrCmp_u _ | IBrCmpK_u _ | FBrCmp_u _ ->
        ()
    | _ -> flow (pc + 1) st
  done;
  let reset = Array.make n false in
  Array.iteri
    (fun pc i ->
      match states.(pc) with
      | Some st ->
          List.iter
            (fun r ->
              if r >= 0 && r < n && written.(r) && Bytes.get st r = '\000' then reset.(r) <- true)
            (boxed_reads i)
      | None -> ())
    code;
  let pick keep =
    Array.of_list (List.filter (fun r -> r >= f.nparams && keep r) (List.init n Fun.id))
  in
  (pick (fun r -> reset.(r)), pick (fun r -> written.(r) && not reset.(r)))

(* ---- Iterator splitting ---------------------------------------------------- *)

(* The iterator operands of an instruction that has a bank form: the
   source and destination iterators of [unpack], [read] and
   [iter.advance], the operands of [iter.at_end] and [iter.distance]. *)
let iter_sites (i : instr) : int list =
  match i with
  | Unpack (_, s, _, it) | Read (s, _, _, it) | Prim (P_iter I_advance, [| s; _ |], it) ->
      [ s; it ]
  | Prim (P_iter I_at_end, [| s |], _) -> [ s ]
  | Prim (P_iter I_distance, [| a; b |], _) -> [ a; b ]
  | _ -> []

(* A parse call: a [Call] whose result is read only by a [tuple.get 0]
   and a [tuple.get 1] right after it (value, iterator). *)
type call_pat = { c_callee : int; c_args : int array; c_value : int; c_iter : int }

(* What {!specialize} decides for a function before rewriting any, so a
   caller sees its callees' conventions.  [split]: the iterator registers
   split into a boxed base and an int-bank position.  [calls]/[rets]: the
   parse calls and position-pair returns ([make_tuple (v, it); ret]), by
   the pc of their first instruction, whose iterator is split; [folded]:
   their other instructions.  [pair]: every return is such a pair. *)
type plan = {
  split : bool array;
  calls : call_pat option array;
  rets : (int * int) option array;
  folded : bool array;
  pair : bool;
}

(* Splitting is exact for any register (see {!Bytecode.IPos_u}), so the
   choice is only about cost.  Registers copied into one another form one
   group; a group is split when its sites with a bank form are at least as
   many as the generic reads and writes that would need a bridge. *)
let plan_func (f : func) (is_pair : int -> bool) : plan =
  let n = max f.nregs 1 in
  let code = f.code in
  let len = Array.length code in
  let targeted = Array.make (len + 1) false in
  Array.iter
    (fun i -> List.iter (fun t -> if t >= 0 && t < len then targeted.(t) <- true) (targets_of i))
    code;
  let reads = Array.make n 0 in
  Array.iter
    (fun i -> List.iter (fun r -> if r >= 0 && r < n then reads.(r) <- reads.(r) + 1) (boxed_reads i))
    code;
  let iterish r =
    r >= 0 && r < f.nregs && match f.typing.(r) with Any | Tnull | Titer -> true | _ -> false
  in
  let calls = Array.make (max len 1) None and rets = Array.make (max len 1) None in
  let inside = Array.make (max len 1) false in
  for pc = 0 to len - 1 do
    match code.(pc) with
    | Call (fi, args, d)
      when d >= 0 && pc + 2 < len && is_pair fi && reads.(d) = 2
           && (not targeted.(pc + 1)) && not targeted.(pc + 2) -> (
        match (code.(pc + 1), code.(pc + 2)) with
        | Prim (P_tuple_get k1, [| d1 |], x1), Prim (P_tuple_get k2, [| d2 |], x2)
          when d1 = d && d2 = d && k1 + k2 = 1 && k1 * k2 = 0 ->
            let v, it = if k1 = 0 then (x1, x2) else (x2, x1) in
            if iterish it && v <> it && v <> d && it <> d then begin
              calls.(pc) <- Some { c_callee = fi; c_args = args; c_value = v; c_iter = it };
              inside.(pc + 1) <- true;
              inside.(pc + 2) <- true
            end
        | _ -> ())
    | Prim (P_make_tuple, [| v; it |], t)
      when pc + 1 < len && t >= 0 && reads.(t) = 1 && (not targeted.(pc + 1))
           && iterish it && t <> v && t <> it && v <> it -> (
        match code.(pc + 1) with
        | Ret r when r = t ->
            rets.(pc) <- Some (v, it);
            inside.(pc + 1) <- true
        | _ -> ())
    | _ -> ()
  done;
  let parent = Array.init n Fun.id in
  let rec find r = if parent.(r) = r then r else begin
      let p = find parent.(r) in
      parent.(r) <- p;
      p
    end
  in
  Array.iter
    (function
      | Mov (d, s) when iterish d && iterish s ->
          let a = find d and b = find s in
          if a <> b then parent.(a) <- b
      | _ -> ())
    code;
  let bank = Array.make n 0 and cost = Array.make n 0 in
  let add tbl r = if iterish r then tbl.(find r) <- tbl.(find r) + 1 in
  Array.iteri
    (fun pc i ->
      if not inside.(pc) then
        match (i, calls.(pc), rets.(pc)) with
        | _, Some c, _ -> add bank c.c_iter
        | _, _, Some (_, it) -> add bank it
        | Mov (d, s), _, _ when iterish d && iterish s -> ()
        | i, _, _ -> (
            match iter_sites i with
            | [] ->
                List.iter (add cost) (List.sort_uniq compare (boxed_reads i));
                List.iter (add cost) (boxed_defs i)
            | sites -> List.iter (add bank) (List.sort_uniq compare sites)))
    code;
  let split =
    Array.init n (fun r ->
        iterish r && bank.(find r) > 0 && bank.(find r) >= cost.(find r))
  in
  (* The value half stays boxed ([tuple.get] results are never banked). *)
  let boxed v = v < 0 || not split.(v) in
  let calls =
    Array.map (function Some c when split.(c.c_iter) && boxed c.c_value -> Some c | _ -> None) calls
  in
  let rets = Array.map (function Some (v, it) as r when split.(it) && boxed v -> r | _ -> None) rets in
  let folded =
    Array.init (max len 1) (fun pc ->
        (pc >= 1 && (calls.(pc - 1) <> None || rets.(pc - 1) <> None))
        || (pc >= 2 && calls.(pc - 2) <> None))
  in
  let pair =
    let any = ref false and all = ref true in
    Array.iteri
      (fun pc i ->
        match i with
        | Ret _ ->
            any := true;
            if pc = 0 || rets.(pc - 1) = None then all := false
        | _ -> ())
      code;
    !any && !all
  in
  { split; calls; rets; folded; pair }

(* ---- Per-function rewrite -------------------------------------------------- *)

(* [param_split callee k]: the callee keeps parameter [k]'s position in
   its bank, so a [CallP_u] passes it there. *)
let specialize_func (st : stats) (param_split : int -> int -> bool) (f : func) (pl : plan) :
    unit =
  let nregs = f.nregs in
  let code = f.code in
  let len = Array.length code in
  let split r = r >= 0 && pl.split.(r) in
  (* Which registers are written by any instruction (vs. constant-pool /
     parameter registers whose boxed value never goes stale). *)
  let written = Array.make nregs false in
  Array.iter
    (fun i -> List.iter (fun d -> if d >= 0 then written.(d) <- true) (boxed_defs i))
    code;
  (* Registers that participate in a specializable primitive site. *)
  let spec_use = Array.make nregs false in
  let mark r = if r >= 0 then spec_use.(r) <- true in
  Array.iter
    (fun i ->
      match i with
      | Prim (P_int_arith _, [| a; b |], d)
      | Prim (P_int_cmp _, [| a; b |], d)
      | Prim (P_double_cmp _, [| a; b |], d) ->
          mark a; mark b; mark d
      | Prim (P_double_arith op, [| a; b |], d) when double_arith_ok op ->
          mark a; mark b; mark d
      (* Lengths, offsets and distances of split iterators, and
         [bytes.length] results, have bank forms too. *)
      | Read (s, n, _, it) | Prim (P_iter I_advance, [| s; n |], it) when split s && split it ->
          mark n
      | Prim (P_iter I_distance, [| a; b |], d) when split a && split b -> mark d
      | Prim (P_bytes B_length, [| _ |], d) -> mark d
      | _ -> ())
    code;
  (* Bank assignment: provably-typed, non-parameter registers that feed a
     specializable site; then the positions of split iterators. *)
  let int_slot = Array.make nregs (-1) in
  let float_slot = Array.make nregs (-1) in
  let iter_slot = Array.make nregs (-1) in
  let n_int = ref 0 and n_float = ref 0 in
  for r = f.nparams to nregs - 1 do
    if spec_use.(r) then
      match f.typing.(r) with
      | Tint ->
          int_slot.(r) <- !n_int;
          incr n_int
      | Tdouble ->
          float_slot.(r) <- !n_float;
          incr n_float
      | _ -> ()
  done;
  let n_iregs = !n_int in
  for r = 0 to nregs - 1 do
    if split r then begin
      iter_slot.(r) <- !n_int;
      incr n_int
    end
  done;
  let n_iters = !n_int - n_iregs in
  if !n_int = 0 && !n_float = 0 then st.s_generic <- st.s_generic + 1
  else begin
  (* Constant-pool registers foldable into *K_u immediates. *)
  let imm_int = Array.make nregs None in
  for r = f.nparams to nregs - 1 do
    if (not written.(r)) && f.entry_init.(r) then
      match f.reg_defaults.(r) with
      | Value.Int k -> imm_int.(r) <- Some k
      | _ -> ()
  done;
  (* Two scratch slots per bank for unboxing generic operands at mixed
     sites; slot ids follow the banked registers. *)
  let si0 = !n_int and si1 = !n_int + 1 in
  let sf0 = !n_float and sf1 = !n_float + 1 in
  let n_int = if !n_int > 0 then !n_int + 2 else 0 in
  let n_float = if !n_float > 0 then !n_float + 2 else 0 in
  let ibanked r = r >= 0 && int_slot.(r) >= 0 in
  let fbanked r = r >= 0 && float_slot.(r) >= 0 in
  let pos r = iter_slot.(r) in
  (* A split register whose base always carries its position: written
     only by generic instructions, each followed by [IPos_u].  Generic
     reads of the others first move their base to the position. *)
  let exact = Array.make nregs true in
  for r = 0 to min f.nparams nregs - 1 do
    exact.(r) <- false  (* a [CallP_u] passes a base and a position *)
  done;
  Array.iteri
    (fun pc i ->
      match (pl.calls.(pc), i) with
      | Some c, _ -> exact.(c.c_iter) <- false
      | None, Mov (d, s) when split d && split s -> exact.(d) <- false
      | None, i when iter_sites i <> [] ->
          List.iter (fun r -> if r >= 0 then exact.(r) <- false) (boxed_defs i)
      | _ -> ())
    code;
  (* Bank templates, preloading entry-initialized defaults so a banked
     local read before its first store sees its typed default. *)
  let ibank_init = Bytes.make (8 * n_int) '\000' in
  let fbank_init = Array.make n_float 0.0 in
  for r = 0 to nregs - 1 do
    if int_slot.(r) >= 0 && f.entry_init.(r) then (
      match f.reg_defaults.(r) with
      | Value.Int k -> Bytes.set_int64_ne ibank_init (int_slot.(r) * 8) k
      | _ -> ());
    if float_slot.(r) >= 0 && f.entry_init.(r) then (
      match f.reg_defaults.(r) with
      | Value.Double x -> fbank_init.(float_slot.(r)) <- x
      | _ -> ())
  done;
  (* ---- Expansion: rewrite each instruction into its specialized block.
     Pre-bridges come first so control transfers into the block execute
     them; post-bridges run only on fallthrough (a completed definition). *)
  let bridge i =
    st.s_bridges <- st.s_bridges + 1;
    i
  in
  (* Resolve an int operand to a bank slot, unboxing a generic register
     into a scratch slot.  Operand-order unboxing preserves the generic
     path's as_int failure order, so dynamic-check counters match. *)
  let int_operand scratch r pre =
    if ibanked r then (int_slot.(r), pre)
    else (scratch, bridge (UnboxI (scratch, r)) :: pre)
  in
  let float_operand scratch r pre =
    if fbanked r then (float_slot.(r), pre)
    else (scratch, bridge (UnboxF (scratch, r)) :: pre)
  in
  (* Refresh the boxed shadows of banked registers a generic instruction
     reads, and pull any banked register it defines back into its bank
     afterwards. *)
  let pre_bridges reads =
    List.filter_map
      (fun r ->
        if ibanked r && written.(r) then Some (bridge (BoxI (r, int_slot.(r))))
        else if fbanked r && written.(r) then Some (bridge (BoxF (r, float_slot.(r))))
        else if split r && not exact.(r) then Some (bridge (IterBox_u (r, pos r)))
        else None)
      (List.sort_uniq compare reads)
  in
  let post_bridges defs =
    List.filter_map
      (fun d ->
        if ibanked d then Some (bridge (UnboxI (int_slot.(d), d)))
        else if fbanked d then Some (bridge (UnboxF (float_slot.(d), d)))
        else if split d then Some (bridge (IPos_u (pos d, d)))
        else None)
      defs
  in
  let generic i = pre_bridges (boxed_reads i) @ (i :: post_bridges (boxed_defs i)) in
  let boxed r = not (split r || ibanked r || fbanked r) in
  let expand (pc : int) (i : instr) : instr list =
    match (pl.calls.(pc), pl.rets.(pc)) with
    | Some c, _ ->
        (* Positions travel in the banks: a split argument to a split
           parameter needs no iterator, any other argument its boxed
           value. *)
        let apos =
          Array.mapi
            (fun k r -> if split r && param_split c.c_callee k then pos r else -1)
            c.c_args
        in
        st.s_parse_calls <- st.s_parse_calls + 1;
        pre_bridges (List.filteri (fun k _ -> apos.(k) < 0) (Array.to_list c.c_args))
        @ [ CallP_u (c.c_callee, c.c_args, apos, c.c_value, c.c_iter, pos c.c_iter) ]
    | None, Some (v, it) -> pre_bridges [ v ] @ [ RetP_u (v, it, pos it) ]
    | None, None -> (
    match i with
    | _ when pl.folded.(pc) -> []
    (* Definitions of banked registers: write the bank only; the boxed
       shadow goes stale and is refreshed by Box* before generic reads. *)
    | Const (d, Value.Int k) when ibanked d -> [ IConst_u (int_slot.(d), k) ]
    | Const (d, Value.Double x) when fbanked d -> [ FConst_u (float_slot.(d), x) ]
    | Mov (d, s) when ibanked d && ibanked s -> [ IMov_u (int_slot.(d), int_slot.(s)) ]
    | Mov (d, s) when fbanked d && fbanked s -> [ FMov_u (float_slot.(d), float_slot.(s)) ]
    | Mov (d, s) when ibanked d -> [ bridge (UnboxI (int_slot.(d), s)) ]
    | Mov (d, s) when fbanked d -> [ bridge (UnboxF (float_slot.(d), s)) ]
    | Mov (d, s) when ibanked s && written.(s) -> [ bridge (BoxI (d, int_slot.(s))) ]
    | Mov (d, s) when fbanked s && written.(s) -> [ bridge (BoxF (d, float_slot.(s))) ]
    | Mov (d, s) when split d && split s -> [ Mov (d, s); IMov_u (pos d, pos s) ]
    | Prim (P_int_arith (op, w), [| a; b |], d)
      when ibanked a || ibanked b || ibanked d ->
        let sa, pre = int_operand si0 a [] in
        let dst = if ibanked d then int_slot.(d) else si0 in
        let core, pre =
          match imm_int.(b) with
          | Some k -> (IArithK_u (op, w, dst, sa, k), pre)
          | None ->
              let sb, pre = int_operand si1 b pre in
              (IArith_u (op, w, dst, sa, sb), pre)
        in
        let post = if d >= 0 && not (ibanked d) then [ bridge (BoxI (d, dst)) ] else [] in
        List.rev pre @ (core :: post)
    | Prim (P_int_cmp c, [| a; b |], d) when ibanked a || ibanked b ->
        let sa, pre = int_operand si0 a [] in
        let core, pre =
          match imm_int.(b) with
          | Some k -> (ICmpK_u (c, d, sa, k), pre)
          | None ->
              let sb, pre = int_operand si1 b pre in
              (ICmp_u (c, d, sa, sb), pre)
        in
        List.rev pre @ [ core ]
    | Prim (P_double_arith op, [| a; b |], d)
      when double_arith_ok op && (fbanked a || fbanked b || fbanked d) ->
        let sa, pre = float_operand sf0 a [] in
        let sb, pre = float_operand sf1 b pre in
        let dst = if fbanked d then float_slot.(d) else sf0 in
        let post = if d >= 0 && not (fbanked d) then [ bridge (BoxF (d, dst)) ] else [] in
        List.rev pre @ (FArith_u (op, dst, sa, sb) :: post)
    | Prim (P_double_cmp c, [| a; b |], d) when fbanked a || fbanked b ->
        let sa, pre = float_operand sf0 a [] in
        let sb, pre = float_operand sf1 b pre in
        List.rev pre @ [ FCmp_u (c, d, sa, sb) ]
    (* Split iterators: the bank forms read and write positions. *)
    | Unpack (fmt, s, v, it) when split s && split it && not (split v || fbanked v) ->
        if ibanked v then [ PUnpackI_u (fmt, s, pos s, int_slot.(v), it, pos it) ]
        else [ PUnpack_u (fmt, s, pos s, v, it, pos it) ]
    | Read (s, n, v, it) when split s && split it && boxed v && not (split n || fbanked n) ->
        if ibanked n then [ PRead_u (s, pos s, int_slot.(n), v, it, pos it) ]
        else [ PReadR_u (s, pos s, n, v, it, pos it) ]
    | Prim (P_iter I_advance, [| s; n |], d) when split s && split d && not (split n || fbanked n)
      ->
        let sn, pre = int_operand si0 n [] in
        List.rev pre @ [ PAdvance_u (d, pos d, s, pos s, sn) ]
    | Prim (P_iter I_at_end, [| s |], d) when split s && boxed d -> [ PAtEnd_u (d, s, pos s) ]
    | Prim (P_iter I_distance, [| a; b |], d) when split a && split b && not (split d || fbanked d)
      ->
        if ibanked d then [ PDistance_u (int_slot.(d), a, pos a, b, pos b) ]
        else
          PDistance_u (si0, a, pos a, b, pos b)
          :: (if d >= 0 then [ bridge (BoxI (d, si0)) ] else [])
    | Prim (P_bytes B_length, [| s |], d) when ibanked d && boxed s ->
        [ BLength_u (int_slot.(d), s) ]
    (* An unpacked value feeding int arithmetic goes straight to its bank. *)
    | Unpack (fmt, s, v, it) when ibanked v ->
        pre_bridges [ s ] @ (UnpackI_u (fmt, s, int_slot.(v), it) :: post_bridges [ it ])
    | i -> generic i)
  in
  (* The generic entry's prologue reads split parameters' positions off
     their boxed values; a [CallP_u] enters past it. *)
  let prologue =
    List.filter_map
      (fun r -> if split r then Some (bridge (IPos_u (pos r, r))) else None)
      (List.init (min f.nparams nregs) Fun.id)
  in
  let entry_pc = List.length prologue in
  let starts = Array.make (max len 1) 0 in
  let out = ref (List.rev prologue) in
  let n = ref entry_pc in
  Array.iteri
    (fun pc i ->
      starts.(pc) <- !n;
      List.iter
        (fun j ->
          out := j :: !out;
          incr n)
        (expand pc i))
    code;
  let expanded = Array.of_list (List.rev !out) in
  let remap t = if t >= 0 && t < len then starts.(t) else t in
  let expanded = Array.map (retarget remap) expanded in
  (* ---- Superinstruction fusion: iterate so latch sequences cascade
     (arith+mov collapses first, then incr+jump).  No rule starts with
     [IPos_u], so the prologue keeps its length. *)
  let cur = ref expanded in
  let rounds = ref 0 in
  let progress = ref true in
  while !progress && !rounds < 8 do
    incr rounds;
    let breads = Array.make (max nregs 1) 0 in
    let ireads = Array.make (max n_int 1) 0 in
    let freads = Array.make (max n_float 1) 0 in
    let tally arr ls = List.iter (fun r -> if r >= 0 then arr.(r) <- arr.(r) + 1) ls in
    Array.iter
      (fun i ->
        tally breads (boxed_reads i);
        tally ireads (ibank_reads i);
        tally freads (fbank_reads i))
      !cur;
    let try_fuse a b =
      match (a, b) with
      | ICmp_u (c, d, x, y), Br (c', t, e) when c' = d && d >= 0 && breads.(d) = 1 ->
          Some (IBrCmp_u (c, x, y, t, e))
      | ICmpK_u (c, d, x, k), Br (c', t, e) when c' = d && d >= 0 && breads.(d) = 1 ->
          Some (IBrCmpK_u (c, x, k, t, e))
      | FCmp_u (c, d, x, y), Br (c', t, e) when c' = d && d >= 0 && breads.(d) = 1 ->
          Some (FBrCmp_u (c, x, y, t, e))
      | IArith_u (op, w, d, x, y), IMov_u (d2, s) when s = d && ireads.(d) = 1 ->
          Some (IArith_u (op, w, d2, x, y))
      | IArithK_u (op, w, d, x, k), IMov_u (d2, s) when s = d && ireads.(d) = 1 ->
          Some (IArithK_u (op, w, d2, x, k))
      | FArith_u (op, d, x, y), FMov_u (d2, s) when s = d && freads.(d) = 1 ->
          Some (FArith_u (op, d2, x, y))
      | IArithK_u (A_add, w, d, x, k), Jump t when x = d -> Some (IIncrJ_u (w, d, k, t))
      | _ -> None
    in
    let fused_code, nfused = Hilti_passes.Peephole.run ~targets_of ~retarget ~try_fuse !cur in
    cur := fused_code;
    st.s_fused <- st.s_fused + nfused;
    if nfused = 0 then progress := false
  done;
  f.code <- !cur;
  f.spec <-
    Some
      { n_int; n_float; ibank_init; fbank_init; int_slot; float_slot; iter_slot; entry_pc;
        pair_ret = pl.pair };
  st.s_funcs <- st.s_funcs + 1;
  st.s_int_regs <- st.s_int_regs + n_iregs;
  st.s_iter_regs <- st.s_iter_regs + n_iters;
  st.s_float_regs <- st.s_float_regs + (if n_float > 0 then n_float - 2 else 0)
  end

(** Rewrite every function of a verified program onto register banks and
    mark it [specialized].  A function with nothing to bank keeps
    [spec = None] and its generic code.  Idempotent: already-specialized
    functions are skipped.  Raises [Invalid_argument] on unverified
    programs — bank assignment is only sound on top of the verifier's
    typing export. *)
let specialize (p : program) : stats =
  if not p.verified then
    invalid_arg "Specialize.specialize: program must be verified first";
  let st =
    { s_funcs = 0; s_generic = 0; s_int_regs = 0; s_float_regs = 0; s_iter_regs = 0;
      s_parse_calls = 0; s_bridges = 0; s_fused = 0 }
  in
  let todo (f : func) = f.spec = None && Array.length f.typing >= f.nregs in
  let pair = Array.map (fun f -> match f.spec with Some sp -> sp.pair_ret | None -> false) p.funcs in
  (* Whether a callee returns position pairs decides its callers' parse
     calls, which in turn decide what the callers split: iterate to the
     fixpoint (it only grows, one call level per round). *)
  let make_plans () =
    Array.map (fun f -> if todo f then Some (plan_func f (fun fi -> pair.(fi))) else None) p.funcs
  in
  let rec settle plans =
    let changed = ref false in
    Array.iteri
      (fun fi pl ->
        match pl with
        | Some pl when pl.pair <> pair.(fi) ->
            pair.(fi) <- pl.pair;
            changed := true
        | _ -> ())
      plans;
    if !changed then settle (make_plans ()) else plans
  in
  let plans = settle (make_plans ()) in
  let param_split fi k =
    match (plans.(fi), p.funcs.(fi).spec) with
    | Some pl, _ -> pl.split.(k)
    | None, Some sp -> sp.iter_slot.(k) >= 0
    | None, None -> false
  in
  Array.iteri
    (fun fi f -> match plans.(fi) with Some pl -> specialize_func st param_split f pl | None -> ())
    p.funcs;
  p.specialized <- true;
  st
