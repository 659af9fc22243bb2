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
  mutable s_int_regs : int;    (** registers moved to the int bank *)
  mutable s_float_regs : int;  (** registers moved to the float bank *)
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
  | Unpack (_, s, _, _) | UnpackI_u (_, s, _, _) ->
      [ s ]
  | Read (_, s, n, _) -> [ s; n ]
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
  | _ -> []

let ibank_reads (i : instr) : int list =
  match i with
  | IMov_u (_, s) | BoxI (_, s) -> [ s ]
  | IArith_u (_, _, _, a, b) | ICmp_u (_, _, a, b) | IBrCmp_u (_, a, b, _, _) -> [ a; b ]
  | IArithK_u (_, _, _, a, _) | ICmpK_u (_, _, a, _) | IBrCmpK_u (_, a, _, _, _) -> [ a ]
  | IIncrJ_u (_, d, _, _) -> [ d ]
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
    | Jump _ | Br _ | Switch _ | Ret _ | Throw _
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

(* ---- Per-function rewrite -------------------------------------------------- *)

let specialize_func (st : stats) (f : func) : unit =
  let nregs = f.nregs in
  let code = f.code in
  let len = Array.length code in
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
      | _ -> ())
    code;
  (* Bank assignment: provably-typed, non-parameter registers that feed a
     specializable site. *)
  let int_slot = Array.make nregs (-1) in
  let float_slot = Array.make nregs (-1) in
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
  let expand (i : instr) : instr list =
    match i with
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
    (* An unpacked value feeding int arithmetic goes straight to its bank. *)
    | Unpack (fmt, s, v, it) when ibanked v -> [ UnpackI_u (fmt, s, int_slot.(v), it) ]
    | i ->
        (* Generic instruction: refresh boxed shadows of banked written
           registers it reads, and pull any banked register it defines
           back into its bank afterwards. *)
        let reads = List.sort_uniq compare (boxed_reads i) in
        let pre =
          List.filter_map
            (fun r ->
              if ibanked r && written.(r) then Some (bridge (BoxI (r, int_slot.(r))))
              else if fbanked r && written.(r) then Some (bridge (BoxF (r, float_slot.(r))))
              else None)
            reads
        in
        let post =
          List.filter_map
            (fun d ->
              if ibanked d then Some (bridge (UnboxI (int_slot.(d), d)))
              else if fbanked d then Some (bridge (UnboxF (float_slot.(d), d)))
              else None)
            (boxed_defs i)
        in
        pre @ (i :: post)
  in
  let starts = Array.make (max len 1) 0 in
  let out = ref [] in
  let n = ref 0 in
  Array.iteri
    (fun pc i ->
      starts.(pc) <- !n;
      List.iter
        (fun j ->
          out := j :: !out;
          incr n)
        (expand i))
    code;
  let expanded = Array.of_list (List.rev !out) in
  let remap t = if t >= 0 && t < len then starts.(t) else t in
  let expanded = Array.map (retarget remap) expanded in
  (* ---- Superinstruction fusion: iterate so latch sequences cascade
     (arith+mov collapses first, then incr+jump). *)
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
    Some { n_int; n_float; ibank_init; fbank_init; int_slot; float_slot };
  st.s_funcs <- st.s_funcs + 1;
  st.s_int_regs <- st.s_int_regs + (if n_int > 0 then n_int - 2 else 0);
  st.s_float_regs <- st.s_float_regs + (if n_float > 0 then n_float - 2 else 0)

(** Rewrite every function of a verified program onto register banks and
    mark it [specialized].  Idempotent: already-specialized functions are
    skipped.  Raises [Invalid_argument] on unverified programs — bank
    assignment is only sound on top of the verifier's typing export. *)
let specialize (p : program) : stats =
  if not p.verified then
    invalid_arg "Specialize.specialize: program must be verified first";
  let st = { s_funcs = 0; s_int_regs = 0; s_float_regs = 0; s_bridges = 0; s_fused = 0 } in
  Array.iter
    (fun f ->
      if f.spec = None && Array.length f.typing >= f.nregs then specialize_func st f)
    p.funcs;
  p.specialized <- true;
  st
