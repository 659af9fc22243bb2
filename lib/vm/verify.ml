(** eBPF-style static verifier for lowered bytecode (run after {!Lower}).

    Verification is a precondition of execution: {!Host_api.compile}
    always runs it, [Vm.create] refuses unverified programs, and program
    images are verified again on load.  Every function is checked once,
    statically:

    - {b control flow}: every [Jump]/[Br]/[Switch]/[TryPush] target is a
      valid instruction index, and no path falls off the end of the code
      array (lowering always terminates functions with [Ret]);
    - {b frame bounds}: register counts are sane and every register field
      of every instruction is inside the frame ([-1] is the "discard"
      destination the VM ignores); global slots and callee indices index
      their arrays; direct calls pass exactly the callee's parameter
      count; hook-run body indices and host slots index the function and
      host-name arrays; struct slots lie inside their layout; specialized
      opcodes index inside the register banks, whose templates match
      their declared sizes;
    - {b definedness}: along {e all} paths (including exceptional edges
      from [TryPush] to its handler) every register is written before it
      is read.  Parameters, declared locals (typed defaults) and
      constant-pool registers are defined at entry ([entry_init]);
      lowering temporaries must be proven;
    - {b type tags}: a forward abstract interpretation over coarse value
      tags (int/bool/double/string/...; [Any] for polymorphic or joined
      states) checks primitive operands against the {!Isa}-derived
      signatures — e.g. [P_int_arith] demands two ints, [Br] a bool.

    The analysis is a joined forward dataflow at instruction granularity:
    definedness is a must-set (bitwise AND at joins), tags join to [Any]
    on conflict.  On success {!verify_exn} marks the program
    {!Bytecode.program.verified}, which lets the VM's one dispatch loop
    skip the checks proven here; the count of statically discharged checks is
    exported as the [vm_safety_checks{mode="static_discharged"}] metric
    (its dynamic counterpart counts runtime check failures). *)

open Bytecode

exception Verify_error of string list

type report = {
  funcs : int;
  instrs : int;
  checks_discharged : int;  (** per-use checks proven once, statically *)
  errors : string list;
}

let m_discharged =
  Hilti_obs.Metrics.counter "vm_safety_checks"
    ~label:("mode", "static_discharged")
    ~help:"Safety checks proven statically by the bytecode verifier"

(* ---- Abstract value tags ------------------------------------------------- *)

(* The [tag] type and its helpers live in {!Bytecode} (opened above) so the
   exported per-register [typing] can be stored on the function record. *)

(* [Any] is unknown (checks pass); [Tnull] is the default of
   reference-typed slots before first assignment, and joins freely. *)
let compatible ~expected ~actual =
  expected = Any || actual = Any || actual = Tnull || expected = actual

(** Expected operand tags for a primitive ([None] = unchecked /
    polymorphic position) and the tag of its result.  Coarse on purpose:
    only families whose operand kinds are fixed by the {!Isa} signature
    are constrained. *)
let prim_sig (p : prim) : tag option array option * tag =
  let a1 x = Some [| x |] in
  let a2 x y = Some [| x; y |] in
  let t x = Some x in
  let sig_ args ret = (Option.map (Array.map t) args, ret) in
  match p with
  | P_select -> (Some [| t Tbool; None; None |], Any)
  | P_equal | P_tuple_eq -> sig_ None Tbool
  | P_make_tuple -> sig_ None Ttuple
  | P_bool_and | P_bool_or -> sig_ (a2 Tbool Tbool) Tbool
  | P_bool_not -> sig_ (a1 Tbool) Tbool
  | P_int_arith _ -> sig_ (a2 Tint Tint) Tint
  | P_int_cmp _ -> sig_ (a2 Tint Tint) Tbool
  | P_int_neg _ | P_int_abs _ -> sig_ (a1 Tint) Tint
  | P_int_to_double -> sig_ (a1 Tint) Tdouble
  | P_int_to_time -> sig_ (a1 Tint) Ttime
  | P_int_to_interval -> sig_ (a1 Tint) Tinterval
  | P_int_to_string -> (Some [| t Tint; t Tint |], Tstring)  (* base optional *)
  | P_double_arith _ -> sig_ (a2 Tdouble Tdouble) Tdouble
  | P_double_cmp _ -> sig_ (a2 Tdouble Tdouble) Tbool
  | P_double_neg | P_double_abs -> sig_ (a1 Tdouble) Tdouble
  | P_double_to_int -> sig_ (a1 Tdouble) Tint
  | P_string op -> (
      match op with
      | S_concat -> sig_ (a2 Tstring Tstring) Tstring
      | S_length -> sig_ (a1 Tstring) Tint
      | S_eq | S_lt | S_starts_with | S_contains ->
          sig_ (a2 Tstring Tstring) Tbool
      | S_find -> sig_ (a2 Tstring Tstring) Tint
      | S_substr -> (Some [| t Tstring; t Tint; t Tint |], Tstring)
      | S_to_bytes -> sig_ (a1 Tstring) Tbytes
      | S_upper | S_lower -> sig_ (a1 Tstring) Tstring
      | S_split1 -> sig_ (a2 Tstring Tstring) Ttuple
      | S_format -> (None, Tstring))  (* varargs after the format string *)
  | P_bytes op -> (
      (* First operand may be bytes or a bytes iterator: unchecked. *)
      match op with
      | B_length | B_to_int | B_offset -> (None, Tint)
      | B_is_frozen | B_can_read | B_eq | B_starts_with | B_contains
      | B_match_prefix ->
          (None, Tbool)
      | B_to_string -> (None, Tstring)
      | B_new | B_sub -> (None, Tbytes)
      | B_find -> (None, Ttuple)  (* (found, iterator) pair *)
      | _ -> (None, Any))
  | P_iter op -> (
      match op with
      | I_distance -> (None, Tint)
      | I_eq | I_at_end | I_is_eod | I_is_frozen -> (None, Tbool)
      | _ -> (None, Any))
  | P_addr op -> (
      match op with
      | AD_family -> sig_ (a1 Taddr) Tenum
      | AD_eq -> sig_ (a2 Taddr Taddr) Tbool
      | AD_mask -> (Some [| t Taddr; t Tint; t Tint |], Taddr)
      | AD_to_string -> sig_ (a1 Taddr) Tstring)
  | P_port op -> (
      match op with
      | PO_protocol -> sig_ (a1 Tport) Tenum
      | PO_number -> sig_ (a1 Tport) Tint
      | PO_eq -> sig_ (a2 Tport Tport) Tbool)
  | P_net op -> (
      match op with
      | NE_contains -> sig_ (a2 Tnet Taddr) Tbool
      | NE_prefix -> sig_ (a1 Tnet) Taddr
      | NE_length -> sig_ (a1 Tnet) Tint
      | NE_eq -> sig_ (a2 Tnet Tnet) Tbool)
  | P_time op -> (
      match op with
      | TI_add -> sig_ (a2 Ttime Tinterval) Ttime
      | TI_sub -> (None, Any)  (* time-time or time-interval *)
      | TI_cmp _ -> sig_ (a2 Ttime Ttime) Tbool
      | TI_wall -> sig_ (Some [||]) Ttime
      | TI_to_double -> sig_ (a1 Ttime) Tdouble
      | TI_nsecs -> sig_ (a1 Ttime) Tint)
  | P_interval op -> (
      match op with
      | IV_add | IV_sub -> sig_ (a2 Tinterval Tinterval) Tinterval
      | IV_mul -> sig_ (a2 Tinterval Tint) Tinterval
      | IV_eq | IV_lt -> sig_ (a2 Tinterval Tinterval) Tbool
      | IV_to_double -> sig_ (a1 Tinterval) Tdouble
      | IV_nsecs -> sig_ (a1 Tinterval) Tint)
  | P_tuple_get _ -> sig_ (a1 Ttuple) Any
  | P_tuple_length -> sig_ (a1 Ttuple) Tint
  | P_enum_from_int _ -> sig_ (a1 Tint) Tenum
  | P_enum_value -> sig_ (a1 Tenum) Tint
  | P_enum_eq -> sig_ (a2 Tenum Tenum) Tbool
  | P_bitset_set _ | P_bitset_clear _ -> sig_ (a1 Tbitset) Tbitset
  | P_bitset_has _ -> sig_ (a1 Tbitset) Tbool
  | P_bitset_eq -> sig_ (a2 Tbitset Tbitset) Tbool
  | P_exc_new -> (None, Texception)
  | P_exc_name -> sig_ (a1 Texception) Tstring
  | P_exc_data -> sig_ (a1 Texception) Any
  | P_thread_id -> (None, Tint)
  | _ -> (None, Any)

(* ---- Per-function verification ------------------------------------------- *)

let max_frame_regs = 1 lsl 16

type state = { init : Bytes.t; tags : tag array }

let copy_state s = { init = Bytes.copy s.init; tags = Array.copy s.tags }

(* Meet [src] into [dst]; returns true if [dst] changed.  Definedness is a
   must-set (AND); tags join towards [Any]. *)
let meet_into ~src ~dst =
  let changed = ref false in
  Bytes.iteri
    (fun i c ->
      if c = '\001' && Bytes.get src.init i = '\000' then begin
        Bytes.set dst.init i '\000';
        changed := true
      end)
    dst.init;
  Array.iteri
    (fun i t ->
      let j = join_tag t src.tags.(i) in
      if j <> t then begin
        dst.tags.(i) <- j;
        changed := true
      end)
    dst.tags;
  !changed

let verify_func (p : program) (f : func) : int * string list =
  let errors = ref [] in
  let checks = ref 0 in
  let err pc fmt =
    Printf.ksprintf
      (fun msg -> errors := Printf.sprintf "%s@%d: %s" f.name pc msg :: !errors)
      fmt
  in
  let len = Array.length f.code in
  (* Frame shape. *)
  if f.nregs < 0 || f.nregs > max_frame_regs then
    err (-1) "frame size %d out of bounds (max %d)" f.nregs max_frame_regs;
  if f.nparams < 0 || f.nparams > f.nregs then
    err (-1) "%d parameters do not fit in %d registers" f.nparams f.nregs;
  if Array.length f.reg_defaults < max f.nregs 1 then
    err (-1) "reg_defaults shorter than frame (%d < %d)"
      (Array.length f.reg_defaults) f.nregs;
  if Array.length f.entry_init < max f.nregs 1 then
    err (-1) "entry_init shorter than frame (%d < %d)"
      (Array.length f.entry_init) f.nregs;
  if len = 0 then err (-1) "empty code array";
  (match f.spec with
  | Some sp
    when Bytes.length sp.ibank_init <> 8 * sp.n_int
         || Array.length sp.fbank_init <> sp.n_float ->
      err (-1) "register-bank templates do not match the bank sizes"
  | Some sp
    when Array.length sp.iter_slot < f.nregs
         || Array.exists (fun p -> p < -1 || p >= sp.n_int) sp.iter_slot ->
      (* A [CallP_u] writes the callee's parameter positions through
         these slots. *)
      err (-1) "iterator position slots outside the int bank"
  | Some sp when sp.entry_pc < 0 || sp.entry_pc >= max len 1 ->
      err (-1) "entry pc %d out of range" sp.entry_pc
  | _ -> ());
  if !errors <> [] then (0, List.rev !errors)
  else begin
    let nglobals = Array.length p.globals in
    let nfuncs = Array.length p.funcs in
    let nhosts = Array.length p.host_names in
    let check_target pc t what =
      incr checks;
      if t < 0 || t >= len then err pc "%s target %d out of range [0,%d)" what t len
    in
    let check_dst pc d =
      incr checks;
      if d < -1 || d >= f.nregs then err pc "destination r%d out of frame" d
    in
    (* Instruction-granularity forward dataflow. *)
    let entry =
      {
        init =
          Bytes.init f.nregs (fun i ->
              if i < f.nparams || f.entry_init.(i) then '\001' else '\000');
        tags =
          Array.init f.nregs (fun i ->
              if i < f.nparams then Any
              else if f.entry_init.(i) then tag_of_value f.reg_defaults.(i)
              else Any);
      }
    in
    let states : state option array = Array.make len None in
    let work = Queue.create () in
    let flow pc st =
      if pc >= 0 && pc < len then
        match states.(pc) with
        | None ->
            states.(pc) <- Some (copy_state st);
            Queue.add pc work
        | Some cur -> if meet_into ~src:st ~dst:cur then Queue.add pc work
    in
    flow 0 entry;
    let use st pc r what =
      incr checks;
      if r < 0 || r >= f.nregs then begin
        err pc "%s register r%d out of frame" what r;
        Any
      end
      else if Bytes.get st.init r = '\000' then begin
        err pc "register r%d used before definition (%s)" r what;
        Any
      end
      else st.tags.(r)
    in
    let def st pc d tag =
      check_dst pc d;
      if d >= 0 && d < f.nregs then begin
        Bytes.set st.init d '\001';
        st.tags.(d) <- tag
      end
    in
    let require pc what ~expected ~actual =
      incr checks;
      if not (compatible ~expected ~actual) then
        err pc "%s: type tag mismatch (expected %s, got %s)" what
          (tag_name expected) (tag_name actual)
    in
    (* Bank bounds for specialized opcodes: slots index the per-frame
       unboxed banks whose sizes come from the {!Specialize} metadata; a
       specialized opcode in a function without that metadata can never
       execute safely. *)
    let islot pc s what =
      incr checks;
      match f.spec with
      | None -> err pc "%s: specialized opcode without bank metadata" what
      | Some sp ->
          if s < 0 || s >= sp.n_int then
            err pc "%s: int-bank slot %d out of range [0,%d)" what s sp.n_int
    in
    let fslot pc s what =
      incr checks;
      match f.spec with
      | None -> err pc "%s: specialized opcode without bank metadata" what
      | Some sp ->
          if s < 0 || s >= sp.n_float then
            err pc "%s: float-bank slot %d out of range [0,%d)" what s sp.n_float
    in
    let unpack_width pc fmt =
      incr checks;
      if fmt.u_width < 1 || fmt.u_width > 8 then
        err pc "unpack width %d outside 1..8" fmt.u_width
    in
    while not (Queue.is_empty work) do
      let pc = Queue.pop work in
      let st = copy_state (Option.get states.(pc)) in
      let fallthrough = ref true in
      (match f.code.(pc) with
      | Const (d, v) -> def st pc d (tag_of_value v)
      | Mov (d, s) ->
          let t = use st pc s "mov source" in
          def st pc d t
      | LoadGlobal (d, slot) ->
          incr checks;
          if slot < 0 || slot >= nglobals then
            err pc "global slot %d out of range [0,%d)" slot nglobals;
          let t =
            if slot >= 0 && slot < nglobals then
              match tag_of_value p.global_defaults.(slot) with
              | Tnull -> Any  (* reference global: holds its real type later *)
              | t -> t
            else Any
          in
          def st pc d t
      | StoreGlobal (slot, s) ->
          incr checks;
          if slot < 0 || slot >= nglobals then
            err pc "global slot %d out of range [0,%d)" slot nglobals;
          ignore (use st pc s "store.global source")
      | Jump t ->
          check_target pc t "jump";
          flow t st;
          fallthrough := false
      | Br (c, t, e) ->
          let ct = use st pc c "branch condition" in
          require pc "branch condition" ~expected:Tbool ~actual:ct;
          check_target pc t "branch-then";
          check_target pc e "branch-else";
          flow t st;
          flow e st;
          fallthrough := false
      | Switch (v, d, cases) ->
          ignore (use st pc v "switch value");
          check_target pc d "switch-default";
          flow d st;
          Array.iter
            (fun (_, t) ->
              check_target pc t "switch-case";
              flow t st)
            cases;
          fallthrough := false
      | Call (fi, args, d) ->
          incr checks;
          if fi < 0 || fi >= nfuncs then
            err pc "callee index %d out of range [0,%d)" fi nfuncs
          else begin
            let callee = p.funcs.(fi) in
            incr checks;
            if Array.length args <> callee.nparams then
              err pc "call to %s passes %d args, expects %d" callee.name
                (Array.length args) callee.nparams
          end;
          Array.iteri (fun i r -> ignore (use st pc r (Printf.sprintf "call arg %d" i))) args;
          def st pc d Any
      | CallC (h, args, d) ->
          incr checks;
          if h < 0 || h >= nhosts then
            err pc "host slot %d out of range [0,%d)" h nhosts;
          Array.iteri (fun i r -> ignore (use st pc r (Printf.sprintf "callc arg %d" i))) args;
          def st pc d Any
      | Ret r ->
          if r >= 0 then ignore (use st pc r "return value");
          fallthrough := false
      | TryPush (h, r) ->
          check_target pc h "try.push handler";
          check_dst pc r;
          (* On the exceptional edge the handler sees everything defined
             at the push point, plus the caught exception. *)
          let hstate = copy_state st in
          def hstate pc r Texception;
          flow h hstate
      | TryPop -> ()
      | Throw r ->
          ignore (use st pc r "throw operand");
          fallthrough := false
      | Yield -> ()
      | HookRun (bodies, args) ->
          Array.iter
            (fun fi ->
              incr checks;
              if fi < 0 || fi >= nfuncs then
                err pc "hook body index %d out of range [0,%d)" fi nfuncs)
            bodies;
          Array.iteri (fun i r -> ignore (use st pc r (Printf.sprintf "hook arg %d" i))) args
      | Schedule (fi, args, tid) ->
          incr checks;
          if fi < 0 || fi >= nfuncs then
            err pc "schedule callee %d out of range [0,%d)" fi nfuncs;
          Array.iteri
            (fun i r -> ignore (use st pc r (Printf.sprintf "schedule arg %d" i)))
            args;
          let tt = use st pc tid "schedule thread id" in
          require pc "schedule thread id" ~expected:Tint ~actual:tt
      | Bind (fi, args, d) ->
          incr checks;
          if fi < 0 || fi >= nfuncs then
            err pc "bind callee %d out of range [0,%d)" fi nfuncs;
          Array.iteri (fun i r -> ignore (use st pc r (Printf.sprintf "bind arg %d" i))) args;
          def st pc d Tcallable
      | Prim (prim, args, d) ->
          (match prim with
          | P_struct (op, l, slot) ->
              incr checks;
              let n = Array.length l.Value.lfields in
              if slot < 0 || slot >= n then
                err pc "struct slot %d out of range [0,%d) for %s" slot n l.Value.lname;
              let arity = match op with ST_get_default | ST_set -> 2 | _ -> 1 in
              if Array.length args <> arity then
                err pc "struct operation takes %d operands, got %d" arity (Array.length args)
          | _ -> ());
          let expected, ret = prim_sig prim in
          Array.iteri
            (fun i r ->
              let actual = use st pc r (Printf.sprintf "prim arg %d" i) in
              match expected with
              | Some exp when i < Array.length exp -> (
                  match exp.(i) with
                  | Some e ->
                      require pc (Printf.sprintf "prim arg %d" i) ~expected:e
                        ~actual
                  | None -> ())
              | _ -> ())
            args;
          def st pc d ret
      | Unpack (fmt, s, v, it) ->
          unpack_width pc fmt;
          ignore (use st pc s "unpack source");
          def st pc v Tint;
          def st pc it Titer
      | Read (s, n, v, it) ->
          ignore (use st pc s "read source");
          let nt = use st pc n "read length" in
          require pc "read length" ~expected:Tint ~actual:nt;
          def st pc v Tbytes;
          def st pc it Titer
      | UnpackI_u (fmt, s, v, it) ->
          unpack_width pc fmt;
          ignore (use st pc s "unpack source");
          islot pc v "unpack dst";
          def st pc it Titer
      | Nop -> ()
      | IConst_u (d, _) -> islot pc d "iconst"
      | IMov_u (d, s) ->
          islot pc d "imov dst";
          islot pc s "imov src"
      | UnboxI (d, s) ->
          islot pc d "unbox.i dst";
          let t = use st pc s "unbox.i source" in
          require pc "unbox.i source" ~expected:Tint ~actual:t
      | BoxI (d, s) ->
          islot pc s "box.i source";
          def st pc d Tint
      | IArith_u (_, _, d, a, b) ->
          islot pc d "int-arith dst";
          islot pc a "int-arith operand";
          islot pc b "int-arith operand"
      | IArithK_u (_, _, d, a, _) ->
          islot pc d "int-arith dst";
          islot pc a "int-arith operand"
      | ICmp_u (_, d, a, b) ->
          islot pc a "int-cmp operand";
          islot pc b "int-cmp operand";
          def st pc d Tbool
      | ICmpK_u (_, d, a, _) ->
          islot pc a "int-cmp operand";
          def st pc d Tbool
      | IBrCmp_u (_, a, b, t, e) ->
          islot pc a "br-cmp operand";
          islot pc b "br-cmp operand";
          check_target pc t "br-cmp-then";
          check_target pc e "br-cmp-else";
          flow t st;
          flow e st;
          fallthrough := false
      | IBrCmpK_u (_, a, _, t, e) ->
          islot pc a "br-cmp operand";
          check_target pc t "br-cmp-then";
          check_target pc e "br-cmp-else";
          flow t st;
          flow e st;
          fallthrough := false
      | IIncrJ_u (_, d, _, t) ->
          islot pc d "incr-jump counter";
          check_target pc t "incr-jump";
          flow t st;
          fallthrough := false
      | FConst_u (d, _) -> fslot pc d "fconst"
      | FMov_u (d, s) ->
          fslot pc d "fmov dst";
          fslot pc s "fmov src"
      | UnboxF (d, s) ->
          fslot pc d "unbox.f dst";
          let t = use st pc s "unbox.f source" in
          require pc "unbox.f source" ~expected:Tdouble ~actual:t
      | BoxF (d, s) ->
          fslot pc s "box.f source";
          def st pc d Tdouble
      | FArith_u (_, d, a, b) ->
          fslot pc d "float-arith dst";
          fslot pc a "float-arith operand";
          fslot pc b "float-arith operand"
      | FCmp_u (_, d, a, b) ->
          fslot pc a "float-cmp operand";
          fslot pc b "float-cmp operand";
          def st pc d Tbool
      | FBrCmp_u (_, a, b, t, e) ->
          fslot pc a "br-cmp operand";
          fslot pc b "br-cmp operand";
          check_target pc t "br-cmp-then";
          check_target pc e "br-cmp-else";
          flow t st;
          flow e st;
          fallthrough := false
      (* Split iterators: the base register is a boxed operand, the
         position an int-bank slot. *)
      | IPos_u (p, r) ->
          islot pc p "iter.pos dst";
          ignore (use st pc r "iter.pos source")
      | IterBox_u (r, p) ->
          islot pc p "iter.box position";
          def st pc r (use st pc r "iter.box base")
      | PUnpack_u (fmt, s, ps, v, d, pd) | PUnpackI_u (fmt, s, ps, v, d, pd) ->
          unpack_width pc fmt;
          ignore (use st pc s "unpack source");
          islot pc ps "unpack source position";
          islot pc pd "unpack iterator position";
          (match f.code.(pc) with
          | PUnpackI_u _ -> islot pc v "unpack dst"
          | _ -> def st pc v Tint);
          def st pc d Titer
      | PRead_u (s, ps, n, v, d, pd) | PReadR_u (s, ps, n, v, d, pd) ->
          ignore (use st pc s "read source");
          islot pc ps "read source position";
          islot pc pd "read iterator position";
          (match f.code.(pc) with
          | PRead_u _ -> islot pc n "read length"
          | _ ->
              let nt = use st pc n "read length" in
              require pc "read length" ~expected:Tint ~actual:nt);
          def st pc v Tbytes;
          def st pc d Titer
      | PAdvance_u (d, pd, s, ps, n) ->
          ignore (use st pc s "advance source");
          islot pc ps "advance source position";
          islot pc n "advance offset";
          islot pc pd "advance position";
          def st pc d Any
      | PAtEnd_u (d, s, ps) ->
          ignore (use st pc s "at_end operand");
          islot pc ps "at_end position";
          def st pc d Tbool
      | PDistance_u (d, a, pa, b, pb) ->
          ignore (use st pc a "distance operand");
          ignore (use st pc b "distance operand");
          islot pc pa "distance position";
          islot pc pb "distance position";
          islot pc d "distance dst"
      | BLength_u (d, s) ->
          ignore (use st pc s "bytes.length operand");
          islot pc d "bytes.length dst"
      | CallP_u (fi, args, apos, v, d, pd) ->
          incr checks;
          if fi < 0 || fi >= nfuncs then
            err pc "callee index %d out of range [0,%d)" fi nfuncs
          else begin
            let callee = p.funcs.(fi) in
            incr checks;
            if Array.length args <> callee.nparams then
              err pc "call to %s passes %d args, expects %d" callee.name
                (Array.length args) callee.nparams;
            incr checks;
            match callee.spec with
            | Some sp when sp.pair_ret -> ()
            | _ -> err pc "parse call to %s, which returns no position pair" callee.name
          end;
          incr checks;
          if Array.length apos <> Array.length args then
            err pc "parse call: %d position slots for %d args" (Array.length apos)
              (Array.length args);
          Array.iteri (fun i r -> ignore (use st pc r (Printf.sprintf "call arg %d" i))) args;
          Array.iter (fun ap -> if ap >= 0 then islot pc ap "call arg position") apos;
          islot pc pd "call iterator position";
          def st pc v Any;
          def st pc d Any
      | RetP_u (v, r, ps) ->
          ignore (use st pc v "return value");
          ignore (use st pc r "return iterator");
          islot pc ps "return position";
          fallthrough := false);
      if !fallthrough then begin
        incr checks;
        if pc + 1 >= len then err pc "control falls off the end of the code"
        else flow (pc + 1) st
      end
    done;
    (!checks, List.rev !errors)
  end

(* ---- Per-register typing export ------------------------------------------- *)

(** A sound, flow-insensitive per-register tag assignment: the join of the
    entry state (parameters are [Any]; declared locals and constant-pool
    registers carry their default's tag) with every definition site's
    static result tag.  Definitions whose static tag is not guaranteed at
    runtime ([LoadGlobal] — stores are not type-checked — and calls)
    contribute [Any], so [typing.(r) = Tint] really does mean every value
    ever held by [r] is a [Value.Int]: exactly the guarantee
    {!Specialize} needs to move [r] into an unboxed bank.  [Mov] edges
    are resolved by fixpoint. *)
let compute_typing (f : func) : tag array =
  let n = max f.nregs 1 in
  let t = Array.make n Any in
  let have = Array.make n false in
  let contribute r tag =
    if r >= 0 && r < f.nregs then
      if not have.(r) then begin
        t.(r) <- tag;
        have.(r) <- true
      end
      else t.(r) <- join_tag t.(r) tag
  in
  for r = 0 to f.nregs - 1 do
    if r < f.nparams then contribute r Any
    else if f.entry_init.(r) then contribute r (tag_of_value f.reg_defaults.(r))
  done;
  let movs = ref [] in
  Array.iter
    (fun i ->
      match i with
      | Const (d, v) -> contribute d (tag_of_value v)
      | Mov (d, s) -> movs := (d, s) :: !movs
      | LoadGlobal (d, _) | Call (_, _, d) | CallC (_, _, d) -> contribute d Any
      | TryPush (_, r) -> contribute r Texception
      | Bind (_, _, d) -> contribute d Tcallable
      | Prim (p, _, d) -> contribute d (snd (prim_sig p))
      | Unpack (_, _, v, it) ->
          contribute v Tint;
          contribute it Titer
      | UnpackI_u (_, _, _, it) -> contribute it Titer
      | Read (_, _, v, it) | PRead_u (_, _, _, v, it, _) | PReadR_u (_, _, _, v, it, _) ->
          contribute v Tbytes;
          contribute it Titer
      | PUnpack_u (_, _, _, v, it, _) ->
          contribute v Tint;
          contribute it Titer
      | PUnpackI_u (_, _, _, _, it, _) -> contribute it Titer
      | PAdvance_u (d, _, _, _, _) -> contribute d Any
      | PAtEnd_u (d, _, _) -> contribute d Tbool
      | CallP_u (_, _, _, v, d, _) ->
          contribute v Any;
          contribute d Any
      | BoxI (d, _) -> contribute d Tint
      | BoxF (d, _) -> contribute d Tdouble
      | ICmp_u (_, d, _, _) | ICmpK_u (_, d, _, _) | FCmp_u (_, d, _, _) ->
          contribute d Tbool
      | _ -> ())
    f.code;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d, s) ->
        if s >= 0 && s < f.nregs && have.(s) && d >= 0 && d < f.nregs then begin
          let before_have = have.(d) and before_t = t.(d) in
          contribute d t.(s);
          if have.(d) <> before_have || t.(d) <> before_t then changed := true
        end)
      !movs
  done;
  t

(** Verify every function; never raises, never sets the flag. *)
let verify (p : program) : report =
  let instrs = code_size p in
  let checks = ref 0 and errors = ref [] in
  Array.iter
    (fun f ->
      let c, e = verify_func p f in
      checks := !checks + c;
      errors := !errors @ e)
    p.funcs;
  { funcs = Array.length p.funcs; instrs; checks_discharged = !checks;
    errors = !errors }

(** Verify and, on success, mark the program verified (admitting it to
    the VM), export each function's register typing, and account
    the discharged checks; raises {!Verify_error} otherwise. *)
let verify_exn (p : program) : report =
  let r = verify p in
  if r.errors <> [] then raise (Verify_error r.errors);
  Array.iter (fun f -> f.typing <- compute_typing f) p.funcs;
  Hilti_obs.Metrics.add m_discharged r.checks_discharged;
  p.verified <- true;
  r
