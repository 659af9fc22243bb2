(** The HILTI execution engine.

    Executes lowered bytecode that {!Verify} has accepted — verification
    is a precondition of execution, as in the eBPF model, and {!create}
    refuses anything else — in a single dispatch loop, with:
    - per-function register frames, recycled through a per-function free
      list so a call allocates no frame, each with an explicit handler
      stack for exceptions (HILTI propagates exceptions with explicit
      checks after calls, §5 "Runtime Model");
    - fiber integration: the [yield] instruction and all blocking
      operations suspend the enclosing {!Hilti_rt.Fiber}, giving the
      transparent incremental processing of §3.2 — a parser simply blocks
      reading bytes and the host resumes it when more data arrives;
    - virtual threads: each 64-bit thread id owns its own copy of the
      thread-local globals array and its own timer manager; [thread.schedule]
      deep-copies arguments (state isolation, §3.2);
    - an abstract cycle count: each context counts the instructions it
      retires and credits them to the profilers' cycle clock once per
      activation ({!credit}), standing in for PAPI cycle measurements in
      the evaluation. *)

open Bytecode

exception Runtime_error of string

exception Step_budget_exceeded
(** Raised by the dispatch loop when [step_kill] instructions have been
    retired.  Deliberately a raw OCaml exception, not a HILTI one, so
    generated [try] handlers cannot swallow it — the fuzzer uses it as a
    hang detector on hostile input. *)

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* ---- Dispatch observability -------------------------------------------------- *)

(* Executed instructions are attributed to coarse opcode groups.  The
   dispatch loop must stay tight, so per-activation tallies go into a
   local array and are flushed into the sharded counters when the function
   returns; with metrics disabled the loop carries no extra work at all. *)

let opgroup_names =
  [| "data"; "control"; "call"; "exception"; "thread"; "global"; "prim"; "misc";
     "ispec"; "fspec"; "fused"; "bridge" |]

let n_opgroups = Array.length opgroup_names

(* Index of the "bridge" group: box/unbox crossings between the unboxed
   register banks and the boxed frame, also surfaced as the dedicated
   [vm_regbank_transfers] counter. *)
let bridge_group = 11

let opgroup_of (i : Bytecode.instr) =
  match i with
  | Const _ | Mov _ -> 0
  | Jump _ | Br _ | Switch _ -> 1
  | Call _ | CallC _ | Ret _ | Bind _ | CallP_u _ | RetP_u _ -> 2
  | TryPush _ | TryPop | Throw _ -> 3
  | Yield | HookRun _ | Schedule _ -> 4
  | LoadGlobal _ | StoreGlobal _ -> 5
  | Prim _ | Unpack _ | Read _ -> 6
  | Nop -> 7
  | IConst_u _ | IMov_u _ | IArith_u _ | IArithK_u _ | ICmp_u _ | ICmpK_u _
  | UnpackI_u _ | PUnpack_u _ | PUnpackI_u _ | PRead_u _ | PReadR_u _ | PAdvance_u _
  | PAtEnd_u _ | PDistance_u _ | BLength_u _ ->
      8
  | FConst_u _ | FMov_u _ | FArith_u _ | FCmp_u _ -> 9
  | IBrCmp_u _ | IBrCmpK_u _ | IIncrJ_u _ | FBrCmp_u _ -> 10
  | UnboxI _ | BoxI _ | UnboxF _ | BoxF _ | IPos_u _ | IterBox_u _ -> bridge_group

let m_opgroup =
  Array.map
    (fun g ->
      Hilti_obs.Metrics.counter "vm_instructions"
        ~help:"VM instructions retired, by opcode group" ~label:("group", g))
    opgroup_names

let m_func_instrs =
  Hilti_obs.Metrics.histogram "vm_func_instrs"
    ~help:"Instructions retired per function activation"

let m_regbank_transfers =
  Hilti_obs.Metrics.counter "vm_regbank_transfers"
    ~help:"Box/unbox bridge crossings between unboxed register banks and the boxed frame"

(* ---- Frames --------------------------------------------------------------------- *)

(* An activation frame: the boxed registers, the unboxed register banks
   ({!Specialize}; empty without them) and the dispatch state.  Every
   activation pops a frame from its function's free list ({!pool}), or
   builds one, and pushes it back when it returns or raises.  A parked
   fiber keeps its frame off the list; an abandoned one's is garbage. *)
type frame = {
  regs : Value.t array;
  ibank : Bytes.t;
  fbank : float array;
  mutable pc : int;
  mutable tries : (int * int) list;  (* handler pc, exception register *)
}

(* One function's free frames on one context (each [Shard_plane] shard
   builds its own context).  Valid for the code and bank layout it was
   built for: {!Specialize} may rewrite a function after its first
   activation. *)
type pool = {
  p_code : Bytecode.instr array;
  p_spec : Bytecode.spec option;
  reset : int array;   (* registers restored per activation ({!Specialize.reset_regs}) *)
  stale : int array;   (* written registers left as the last activation left them *)
  free : frame array;  (* [free.(0 .. n_free - 1)] are free *)
  mutable n_free : int;
}

let no_frame = { regs = [||]; ibank = Bytes.empty; fbank = [||]; pc = 0; tries = [] }

(* The placeholder pool of a function not yet activated: its code matches
   no function's. *)
let no_pool =
  { p_code = [| Nop |]; p_spec = None; reset = [||]; stale = [||]; free = [||]; n_free = 0 }

type context = {
  program : Bytecode.program;
  host_slots : (context -> Value.t list -> Value.t) option array;
      (* by host slot ([program.host_names]) *)
  scheduler : Hilti_rt.Scheduler.t;
  vthread_globals : (int64, Value.t array) Hashtbl.t;
  mutable current_thread : int64;
  mutable cached_tid : int64;          (* thread whose globals are cached *)
  mutable cached_globals : Value.t array;
  instrs : int ref;
      (* instructions retired on this context: the step-budget clock *)
  mutable charged : int;
      (* [instrs] already credited to the profilers' shared cycle clock *)
  mutable step_kill : int;             (* raise once [instrs] reaches this; max_int = off *)
  mutable debug_sink : string -> unit;
  pools : pool array;  (* frame free lists, by func idx *)
  mutable ret_base : Value.t;
  mutable ret_pos : int;
      (* the iterator half of the last [RetP_u] to a [CallP_u]: base and
         position, read back by the caller as soon as the callee returns *)
}

let main_thread_id = 0L

(** An execution context for [program], which must have passed
    {!Verify.verify_exn}: the dispatch loop relies on the verifier's
    proofs instead of checking.  Raises [Invalid_argument] otherwise. *)
let create (program : Bytecode.program) =
  if not program.verified then invalid_arg "Vm.create: program is not verified";
  {
    program;
    host_slots = Array.make (Array.length program.host_names) None;
    scheduler = Hilti_rt.Scheduler.create ();
    vthread_globals = Hashtbl.create 8;
    current_thread = main_thread_id;
    cached_tid = Int64.min_int;
    cached_globals = [||];
    instrs = ref 0;
    charged = 0;
    step_kill = max_int;
    debug_sink = (fun s -> print_endline s);
    pools = Array.make (Array.length program.funcs) no_pool;
    ret_base = Value.Null;
    ret_pos = 0;
  }

(** Bind host function [name] to its slot.  A name the program never calls
    has no slot and nothing to bind. *)
let register_host ctx name fn =
  Array.iteri
    (fun i n -> if String.equal n name then ctx.host_slots.(i) <- Some fn)
    ctx.program.host_names

(** Instructions retired on [ctx]. *)
let instr_count ctx = Int64.of_int !(ctx.instrs)

(** Credit the instructions retired since the last credit to the cycle
    clock ({!Hilti_rt.Profiler.cycle_clock}): one add per activation, made
    wherever control can reach a profiler boundary — activation exit, a
    host call, a suspension, a [profiler.*] instruction. *)
let credit ctx =
  let n = !(ctx.instrs) in
  if n <> ctx.charged then begin
    let r = Hilti_obs.Metrics.shard Hilti_rt.Profiler.cycle_clock in
    r := !r + (n - ctx.charged);
    ctx.charged <- n
  end

(** The executing virtual thread's globals array (created on demand). *)
let globals_for ctx tid =
  match Hashtbl.find_opt ctx.vthread_globals tid with
  | Some g -> g
  | None ->
      let g = Array.map Value.deep_copy ctx.program.global_defaults in
      Hashtbl.add ctx.vthread_globals tid g;
      g

let current_globals ctx =
  if Int64.equal ctx.cached_tid ctx.current_thread then ctx.cached_globals
  else begin
    let g = globals_for ctx ctx.current_thread in
    ctx.cached_tid <- ctx.current_thread;
    ctx.cached_globals <- g;
    g
  end

(** The executing virtual thread's timer manager. *)
let current_timer_mgr ctx =
  Hilti_rt.Scheduler.timers_for ctx.scheduler ctx.current_thread

(* ---- Blocking operations ---------------------------------------------------- *)

(** Suspend the enclosing fiber.  Outside a fiber the suspension cannot
    happen, so it surfaces as Hilti::WouldBlock. *)
let suspend ctx =
  credit ctx;
  match Hilti_rt.Fiber.yield () with
  | () -> ()
  | exception Effect.Unhandled _ -> raise (Value.would_block ())

(** Run [f], suspending while it signals that more input is needed. *)
let blocking ctx f =
  let rec go () =
    match f () with
    | v -> v
    | exception Hilti_types.Hbytes.Would_block ->
        suspend ctx;
        go ()
  in
  go ()

(** Wait until [w] bytes are readable at absolute offset [pos] of [b],
    suspending while the stream may still grow. *)
let rec await_bytes ctx b pos w =
  match Hilti_types.Hbytes.require_at b pos w with
  | () -> ()
  | exception Hilti_types.Hbytes.Would_block ->
      suspend ctx;
      await_bytes ctx b pos w
  | exception Hilti_types.Hbytes.Out_of_range ->
      raise (Value.value_error "bytes: out of range")

(** The integer [bytes.unpack_*] reads at offset [pos] of [b] (after
    {!await_bytes}).  Inlined, so the int-bank path never boxes it. *)
let[@inline] unpack_value b pos (fmt : unpack_fmt) : int64 =
  let module H = Hilti_types.Hbytes in
  let w = fmt.u_width and big = fmt.u_big in
  let x =
    if w <= 7 then Int64.of_int (H.uint_at_pos b pos ~k:0 ~len:w ~big)
    else
      (* Eight bytes: two 4-byte halves, so the native ints never overflow. *)
      let hi = H.uint_at_pos b pos ~k:(if big then 0 else 4) ~len:4 ~big
      and lo = H.uint_at_pos b pos ~k:(if big then 4 else 0) ~len:4 ~big in
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
  in
  if fmt.u_signed && w < 8 then
    let sh = 64 - (8 * w) in
    Int64.shift_right (Int64.shift_left x sh) sh
  else x

(* ---- Iterator values ------------------------------------------------------------ *)

(* [iter.advance], [iter.at_end] and [iter.distance] on iterator values:
   the generic primitives, and the split forms' fallback when a base holds
   no bytes iterator. *)
let advance_value (v : Value.t) n : Value.t =
  match Value.as_iter v with
  | Value.Ibytes it -> Value.Iter (Value.Ibytes (Hilti_types.Hbytes.advance it n))
  | Value.Isnapshot l ->
      let rec drop k lst = if k <= 0 then lst else match lst with [] -> [] | _ :: r -> drop (k - 1) r in
      Value.Iter (Value.Isnapshot (ref (drop n !l)))
  | Value.Ivector (vec, i) -> Value.Iter (Value.Ivector (vec, i + n))

let at_end_value (v : Value.t) : bool =
  match Value.as_iter v with
  | Value.Ibytes it -> Hilti_types.Hbytes.at_end it
  | Value.Isnapshot l -> !l = []
  | Value.Ivector (vec, i) -> i >= Dynarray.size vec

let distance_value (a : Value.t) (b : Value.t) : int =
  match (Value.as_iter a, Value.as_iter b) with
  | Value.Ibytes x, Value.Ibytes y -> Hilti_types.Hbytes.distance x y
  | Value.Ivector (_, i), Value.Ivector (_, j) -> j - i
  | _ -> raise (Value.type_error "iter.distance")

(* Split iterators ({!Bytecode.IPos_u}): a base register plus an int-bank
   position.  [iter_pos]: the position a base carries, 0 when it holds no
   bytes iterator.  [iter_value]: the register's value, the base moved to
   [pos] — built only when the position moved. *)
let iter_pos (v : Value.t) =
  match v with Value.Iter (Value.Ibytes it) -> it.Hilti_types.Hbytes.pos | _ -> 0

let iter_value (v : Value.t) pos =
  match v with
  | Value.Iter (Value.Ibytes it) when it.Hilti_types.Hbytes.pos <> pos ->
      Value.Iter (Value.Ibytes (Hilti_types.Hbytes.iter_at it.Hilti_types.Hbytes.bytes pos))
  | v -> v

(* ---- Int semantics ------------------------------------------------------------ *)

let int_arith op width a b =
  match op with
  | (A_div | A_mod) when b = 0L -> raise (Value.division_by_zero ())
  | _ -> Int_arith.apply op width a b

let compare_by op c =
  match op with
  | C_eq -> c = 0
  | C_lt -> c < 0
  | C_gt -> c > 0
  | C_leq -> c <= 0
  | C_geq -> c >= 0

(* Debug mode for the frame pools: on acquire, every register the frame
   contract does not initialize ([entry_init] false — lowering
   temporaries the verifier proved defined-before-used) and every register
   a recycled frame does not restore ([stale]: written before read, by
   {!Specialize.reset_regs}) is filled with a physically-unique sentinel (a
   string) instead of its default.  The dispatch loop does not look for
   it — a per-read compare would tax every instruction — but any
   computation that consumes a stale slot then fails its type check or
   returns a different result, so a poison-on vs poison-off differential
   run turns "a recycled frame never observes a leftover value" into an
   executable assertion. *)
let arena_debug = ref false

let arena_poison : Value.t = Value.String "\xffhilti-arena-poison\xff"

(* Register accesses for the dispatch loop: {!Verify} proved every
   register field of every instruction to be inside the frame, so the
   bounds checks are statically discharged.  [-1] remains the "discard"
   destination. *)
let reg frame i = Array.unsafe_get frame.regs i

let setreg frame i v = if i >= 0 then Array.unsafe_set frame.regs i v

(* ---- Frame pools ------------------------------------------------------------------ *)

let m_frames_reused =
  Hilti_obs.Metrics.counter "frames_reused"
    ~help:"Activations served a recycled frame from their function's free list"

(* Free frames kept per function and context, a fixed cap so that a burst
   of parked fibers cannot pin memory once it drains.  The compiled
   [fib(21)] of [bench micro] allocates as little at 16 as at 64 (7.5
   minor words per activation; 10.5 at 4). *)
let max_free_frames = 16

(** The frame pool of function [fidx], rebuilt when the function's code or
    bank layout is no longer the one the pool was built for. *)
let pool_for ctx (fidx : int) (f : Bytecode.func) : pool =
  let p = Array.unsafe_get ctx.pools fidx in
  if p.p_code == f.code && p.p_spec == f.spec then p
  else begin
    let reset, stale = Specialize.reset_regs f in
    let p =
      { p_code = f.code; p_spec = f.spec; reset; stale;
        free = Array.make max_free_frames no_frame; n_free = 0 }
    in
    ctx.pools.(fidx) <- p;
    p
  end

let poison_uninit (f : Bytecode.func) (p : pool) (fr : frame) =
  if !arena_debug then begin
    Array.iteri (fun i init -> if not init then fr.regs.(i) <- arena_poison) f.entry_init;
    Array.iter (fun r -> fr.regs.(r) <- arena_poison) p.stale
  end

(** A frame for an activation of [f]: a free one from [p] with the
    observable registers restored and the bank templates blitted over its
    banks, so it computes exactly what a fresh copy would; or, when the
    free list is empty, a new one copied from the templates. *)
let acquire_frame (p : pool) (f : Bytecode.func) : frame =
  let n = p.n_free in
  let fr =
    if n > 0 then begin
      let fr = Array.unsafe_get p.free (n - 1) in
      p.n_free <- n - 1;
      (* Only the observable registers, and only those no longer at their
         default: a recycled frame is usually in the major heap, where
         every store pays the write barrier. *)
      let rs = p.reset in
      for k = 0 to Array.length rs - 1 do
        let r = Array.unsafe_get rs k in
        let d = Array.unsafe_get f.reg_defaults r in
        if Array.unsafe_get fr.regs r != d then Array.unsafe_set fr.regs r d
      done;
      (match f.spec with
      | Some sp ->
          Bytes.blit sp.ibank_init 0 fr.ibank 0 (Bytes.length sp.ibank_init);
          Array.blit sp.fbank_init 0 fr.fbank 0 (Array.length sp.fbank_init)
      | None -> ());
      fr.pc <- 0;
      fr.tries <- [];
      if Hilti_obs.Metrics.enabled () then Hilti_obs.Metrics.incr m_frames_reused;
      fr
    end
    else
      match f.spec with
      | Some sp ->
          { regs = Array.copy f.reg_defaults; ibank = Bytes.copy sp.ibank_init;
            fbank = Array.copy sp.fbank_init; pc = 0; tries = [] }
      | None ->
          { regs = Array.copy f.reg_defaults; ibank = Bytes.empty; fbank = [||];
            pc = 0; tries = [] }
  in
  poison_uninit f p fr;
  fr

(* Bind parameters [i ..] that the call passed no argument for to their
   defaults: {!Specialize.reset_regs} leaves every parameter to the call. *)
let default_params (f : Bytecode.func) (fr : frame) i =
  for r = i to f.nparams - 1 do
    fr.regs.(r) <- f.reg_defaults.(r)
  done

(* Return [fr] to the pool it came from; past [max_free_frames] it is
   left to the GC. *)
let release_frame (p : pool) (fr : frame) =
  let n = p.n_free in
  if n < Array.length p.free then begin
    (* A frame popped and pushed back in turn is still in its slot. *)
    if Array.unsafe_get p.free n != fr then Array.unsafe_set p.free n fr;
    p.n_free <- n + 1
  end

(* Unchecked 64-bit bank accesses for the specialized opcodes:
   {!Verify} type-checks every specialized opcode's slot against the bank
   sizes in [func.spec], so the bounds checks are statically discharged —
   same contract as [reg]/[setreg].  These are the unboxing-aware
   compiler primitives, so reads feed arithmetic without allocating. *)
external ibank_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external ibank_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Preallocated booleans so comparisons never allocate their boxed
   result. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

(* Operand [n] of a primitive: register [ar.(n)] of the frame [rg].  The
   verifier proved every register in [ar] inside the frame; the index into
   [ar] stays checked, since primitives of the wrong arity can reach here. *)
let arg (rg : Value.t array) (ar : int array) n = Array.unsafe_get rg ar.(n)

let sarg rg ar n = Value.as_string (arg rg ar n)

let arg_array rg ar =
  match Array.length ar with
  | 0 -> [||]
  | 2 -> [| arg rg ar 0; arg rg ar 1 |]  (* the common pair: no runtime call *)
  | n ->
      let a = Array.make n (arg rg ar 0) in
      for i = 1 to n - 1 do
        Array.unsafe_set a i (arg rg ar i)
      done;
      a

let rec args_from rg ar i =
  if i >= Array.length ar then [] else Array.unsafe_get rg ar.(i) :: args_from rg ar (i + 1)

let args_list rg ar = args_from rg ar 0

(* The entries of [m] sorted by their stored keys, each passed through [f]. *)
let key_ordered f m =
  Hilti_rt.Exp_map.fold (fun k v acc -> (k, v) :: acc) m []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (_, v) -> f v)

(* Printf-lite formatting for string.format: %s %d %f %%. *)
let format_string fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> raise (Value.value_error "string.format: not enough arguments")
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 's' -> Buffer.add_string buf (Value.to_string (next ()))
      | 'd' -> Buffer.add_string buf (Int64.to_string (Value.as_int (next ())))
      | 'f' -> Buffer.add_string buf (Printf.sprintf "%f" (Value.as_double (next ())))
      | 'g' -> Buffer.add_string buf (Printf.sprintf "%g" (Value.as_double (next ())))
      | 'x' -> Buffer.add_string buf (Printf.sprintf "%Lx" (Value.as_int (next ())))
      | '%' -> Buffer.add_char buf '%'
      | c -> raise (Value.value_error (Printf.sprintf "string.format: bad %%%c" c)));
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ---- Primitive dispatch ------------------------------------------------------------- *)

let rec exec_prim ctx (p : prim) (rg : Value.t array) (ar : int array) : Value.t =
  match p with
  | P_select -> if Value.as_bool (arg rg ar 0) then arg rg ar 1 else arg rg ar 2
  | P_equal -> vbool (Value.equal (arg rg ar 0) (arg rg ar 1))
  | P_make_tuple -> Value.Tuple (arg_array rg ar)
  | P_new spec -> exec_new ctx spec rg ar
  | P_bool_and -> vbool (Value.as_bool (arg rg ar 0) && Value.as_bool (arg rg ar 1))
  | P_bool_or -> vbool (Value.as_bool (arg rg ar 0) || Value.as_bool (arg rg ar 1))
  | P_bool_not -> vbool (not (Value.as_bool (arg rg ar 0)))
  | P_int_arith (op, w) -> Value.Int (int_arith op w (Value.as_int (arg rg ar 0)) (Value.as_int (arg rg ar 1)))
  | P_int_cmp c -> vbool (compare_by c (Int64.compare (Value.as_int (arg rg ar 0)) (Value.as_int (arg rg ar 1))))
  | P_int_neg w -> Value.Int (Int_arith.neg w (Value.as_int (arg rg ar 0)))
  | P_int_abs w -> Value.Int (Int_arith.abs w (Value.as_int (arg rg ar 0)))
  | P_int_to_double -> Value.Double (Int64.to_float (Value.as_int (arg rg ar 0)))
  | P_int_to_time -> Value.Time (Hilti_types.Time_ns.of_secs (Value.as_int_i (arg rg ar 0)))
  | P_int_to_interval -> Value.Interval (Hilti_types.Interval_ns.of_secs (Value.as_int_i (arg rg ar 0)))
  | P_int_to_string ->
      let base = if Array.length ar > 1 then Value.as_int_i (arg rg ar 1) else 10 in
      let v = Value.as_int (arg rg ar 0) in
      Value.String
        (match base with
        | 10 -> Int64.to_string v
        | 16 -> Printf.sprintf "%Lx" v
        | 8 -> Printf.sprintf "%Lo" v
        | _ -> raise (Value.value_error "int.to_string: base must be 8, 10 or 16"))
  | P_double_arith op ->
      let x = Value.as_double (arg rg ar 0) and y = Value.as_double (arg rg ar 1) in
      Value.Double
        (match op with
        | A_add -> x +. y
        | A_sub -> x -. y
        | A_mul -> x *. y
        | A_div -> if y = 0. then raise (Value.division_by_zero ()) else x /. y
        | _ -> fail "double arith")
  | P_double_cmp c ->
      vbool (compare_by c (Float.compare (Value.as_double (arg rg ar 0)) (Value.as_double (arg rg ar 1))))
  | P_double_neg -> Value.Double (-.Value.as_double (arg rg ar 0))
  | P_double_abs -> Value.Double (Float.abs (Value.as_double (arg rg ar 0)))
  | P_double_to_int -> Value.Int (Int64.of_float (Value.as_double (arg rg ar 0)))
  | P_string op -> exec_string op rg ar
  | P_bytes op -> exec_bytes ctx op rg ar
  | P_iter op -> exec_iter ctx op rg ar
  | P_addr op -> exec_addr op rg ar
  | P_port op -> exec_port op rg ar
  | P_net op -> exec_net op rg ar
  | P_time op -> exec_time op rg ar
  | P_interval op -> exec_interval op rg ar
  | P_tuple_get i ->
      let t = Value.as_tuple (arg rg ar 0) in
      if i < 0 || i >= Array.length t then raise (Value.index_error ()) else t.(i)
  | P_tuple_length -> Value.Int (Int64.of_int (Array.length (Value.as_tuple (arg rg ar 0))))
  | P_tuple_eq -> vbool (Value.equal (arg rg ar 0) (arg rg ar 1))
  | P_struct (op, layout, slot) -> exec_struct op layout slot rg ar
  | P_enum_from_int (name, labels) ->
      let v = Value.as_int_i (arg rg ar 0) in
      let rec known k = k < Array.length labels && (labels.(k) = v || known (k + 1)) in
      Value.Enum (name, v, not (known 0))
  | P_enum_value -> (
      match arg rg ar 0 with
      | Value.Enum (_, v, _) -> Value.Int (Int64.of_int v)
      | v -> raise (Value.type_error ("enum: " ^ Value.to_string v)))
  | P_enum_eq -> vbool (Value.equal (arg rg ar 0) (arg rg ar 1))
  | P_bitset_set mask -> (
      match arg rg ar 0 with
      | Value.Bitset (n, bits) -> Value.Bitset (n, Int64.logor bits mask)
      | v -> raise (Value.type_error ("bitset: " ^ Value.to_string v)))
  | P_bitset_clear mask -> (
      match arg rg ar 0 with
      | Value.Bitset (n, bits) -> Value.Bitset (n, Int64.logand bits (Int64.lognot mask))
      | v -> raise (Value.type_error ("bitset: " ^ Value.to_string v)))
  | P_bitset_has mask -> (
      match arg rg ar 0 with
      | Value.Bitset (_, bits) -> vbool (Int64.logand bits mask = mask)
      | v -> raise (Value.type_error ("bitset: " ^ Value.to_string v)))
  | P_bitset_eq -> vbool (Value.equal (arg rg ar 0) (arg rg ar 1))
  | P_list op -> exec_list op rg ar
  | P_vector op -> exec_vector op rg ar
  | P_set op -> exec_set ctx op rg ar
  | P_map op -> exec_map ctx op rg ar
  | P_channel op -> exec_channel ctx op rg ar
  | P_classifier op -> exec_classifier op rg ar
  | P_regexp op -> exec_regexp ctx op rg ar
  | P_overlay_get spec -> exec_overlay ctx spec rg ar
  | P_timer_new ->
      let c = Value.as_callable (arg rg ar 0) in
      Value.Timer (Hilti_rt.Timer.create (fun () -> ignore (c.Value.invoke ())))
  | P_timer_cancel ->
      Hilti_rt.Timer.cancel (Value.as_timer (arg rg ar 0));
      Value.Null
  | P_timer_mgr_schedule ->
      let mgr = Value.as_timer_mgr (arg rg ar 0) in
      let at = Value.as_time (arg rg ar 1) in
      let timer =
        match arg rg ar 2 with
        | Value.Timer t -> t
        | Value.Callable c -> Hilti_rt.Timer.create (fun () -> ignore (c.Value.invoke ()))
        | v -> raise (Value.type_error ("timer: " ^ Value.to_string v))
      in
      Hilti_rt.Timer_mgr.schedule mgr timer at;
      Value.Timer timer
  | P_timer_mgr_advance ->
      ignore (Hilti_rt.Timer_mgr.advance (Value.as_timer_mgr (arg rg ar 0)) (Value.as_time (arg rg ar 1)));
      Value.Null
  | P_timer_mgr_advance_global ->
      ignore (Hilti_rt.Timer_mgr.advance (current_timer_mgr ctx) (Value.as_time (arg rg ar 0)));
      Value.Null
  | P_timer_mgr_current -> Value.Time (Hilti_rt.Timer_mgr.current (Value.as_timer_mgr (arg rg ar 0)))
  | P_timer_mgr_expire_all ->
      ignore (Hilti_rt.Timer_mgr.expire_all (Value.as_timer_mgr (arg rg ar 0)));
      Value.Null
  | P_thread_id -> Value.Int ctx.current_thread
  | P_exc_new ->
      let name = Value.as_string (arg rg ar 0) in
      let arg = if Array.length ar > 1 then arg rg ar 1 else Value.Null in
      Value.Exception { ename = name; earg = arg }
  | P_exc_data -> (Value.as_exception (arg rg ar 0)).Value.earg
  | P_exc_name -> Value.String (Value.as_exception (arg rg ar 0)).Value.ename
  | P_file op -> exec_file ctx op rg ar
  | P_iosrc_read -> (
      match Hilti_rt.Iosrc.read (Value.as_iosrc (arg rg ar 0)) with
      | Some pkt ->
          let b = Hilti_types.Hbytes.of_string pkt.Hilti_rt.Iosrc.data in
          Hilti_types.Hbytes.freeze b;
          Value.Tuple [| Value.Time pkt.Hilti_rt.Iosrc.ts; Value.Bytes b |]
      | None -> raise (Value.exhausted ()))
  | P_iosrc_close -> Value.Null
  | P_profiler op ->
      (* The one profiler resolved by name: the name is a runtime value. *)
      let p = Hilti_rt.Profiler.create (Value.as_string (arg rg ar 0)) in
      credit ctx;
      (match op with
      | PR_start -> Hilti_rt.Profiler.start p
      | PR_stop -> Hilti_rt.Profiler.stop p
      | PR_snapshot -> Hilti_rt.Profiler.snapshot p);
      Value.Null
  | P_debug op -> (
      match op with
      | D_msg ->
          let msg =
            if Array.length ar > 1 then
              Printf.sprintf "[%s] %s" (Value.to_string (arg rg ar 0)) (Value.to_string (arg rg ar 1))
            else Value.to_string (arg rg ar 0)
          in
          ctx.debug_sink msg;
          Value.Null
      | D_assert ->
          if not (Value.as_bool (arg rg ar 0)) then
            raise
              (Value.hilti_exception "Hilti::AssertionError"
                 (if Array.length ar > 1 then arg rg ar 1 else Value.Null))
          else Value.Null
      | D_internal_error ->
          raise (Value.hilti_exception "Hilti::InternalError" (arg rg ar 0)))
  | P_callable_call -> (Value.as_callable (arg rg ar 0)).Value.invoke ()

and exec_new _ctx spec rg ar =
  match spec with
  | New_struct layout -> Value.Struct (Value.new_struct layout)
  | New_list -> Value.List (Deque.create ())
  | New_vector -> Value.Vector (Dynarray.create ())
  | New_set -> Value.Set (Hilti_rt.Exp_map.create ())
  | New_map -> Value.Map (Hilti_rt.Exp_map.create ())
  | New_bytes -> Value.Bytes (Hilti_types.Hbytes.create ())
  | New_channel cap -> Value.Channel (Hilti_rt.Channel.create ?capacity:cap ())
  | New_timer_mgr -> Value.Timer_mgr (Hilti_rt.Timer_mgr.create ())
  | New_classifier nfields ->
      Value.Classifier
        { Value.cls = Hilti_rt.Classifier.create nfields; key_types = [] }
  | New_match_state ->
      let re = Value.as_regexp (arg rg ar 0) in
      Value.Match_state (Hilti_rt.Regexp.matcher re)

and exec_string op rg ar =
  match op with
  | S_concat -> Value.String (sarg rg ar 0 ^ sarg rg ar 1)
  | S_length -> Value.Int (Int64.of_int (String.length (sarg rg ar 0)))
  | S_eq -> vbool (String.equal (sarg rg ar 0) (sarg rg ar 1))
  | S_lt -> vbool (String.compare (sarg rg ar 0) (sarg rg ar 1) < 0)
  | S_find -> (
      let hay = sarg rg ar 0 and needle = sarg rg ar 1 in
      let nl = String.length needle and hl = String.length hay in
      let rec go i =
        if i + nl > hl then Value.Int (-1L)
        else if String.sub hay i nl = needle then Value.Int (Int64.of_int i)
        else go (i + 1)
      in
      go 0)
  | S_substr ->
      let str = sarg rg ar 0 and start = Value.as_int_i (arg rg ar 1) and len = Value.as_int_i (arg rg ar 2) in
      if start < 0 || len < 0 || start + len > String.length str then
        raise (Value.index_error ())
      else Value.String (String.sub str start len)
  | S_to_bytes ->
      let b = Hilti_types.Hbytes.of_string (sarg rg ar 0) in
      Hilti_types.Hbytes.freeze b;
      Value.Bytes b
  | S_upper -> Value.String (String.uppercase_ascii (sarg rg ar 0))
  | S_lower -> Value.String (String.lowercase_ascii (sarg rg ar 0))
  | S_starts_with ->
      let str = sarg rg ar 0 and p = sarg rg ar 1 in
      vbool (String.length p <= String.length str && String.sub str 0 (String.length p) = p)
  | S_contains -> (
      match exec_string S_find rg ar with
      | Value.Int i -> vbool (i >= 0L)
      | _ -> assert false)
  | S_split1 -> (
      let str = sarg rg ar 0 and sep = sarg rg ar 1 in
      match exec_string S_find rg ar with
      | Value.Int i when i >= 0L ->
          let i = Int64.to_int i in
          Value.Tuple
            [| Value.String (String.sub str 0 i);
               Value.String
                 (String.sub str (i + String.length sep)
                    (String.length str - i - String.length sep)) |]
      | _ -> Value.Tuple [| Value.String str; Value.String "" |])
  | S_format ->
      let fmt = sarg rg ar 0 in
      Value.String (format_string fmt (List.tl (args_list rg ar)))

and exec_bytes ctx op rg ar =
  let open Hilti_types in
  match op with
  | B_new -> Value.Bytes (Hbytes.create ())
  | B_length -> Value.Int (Int64.of_int (Hbytes.length (Value.as_bytes (arg rg ar 0))))
  | B_append ->
      let b = Value.as_bytes (arg rg ar 0) in
      (match arg rg ar 1 with
      | Value.Bytes src -> Hbytes.append b (Hbytes.to_string src)
      | Value.String s -> Hbytes.append b s
      | v -> raise (Value.type_error ("bytes.append: " ^ Value.to_string v)));
      Value.Null
  | B_freeze ->
      Hbytes.freeze (Value.as_bytes (arg rg ar 0));
      Value.Null
  | B_is_frozen -> vbool (Hbytes.is_frozen (Value.as_bytes (arg rg ar 0)))
  | B_trim ->
      (* Accepts the bytes object itself or any iterator into it: generated
         parsers only hold iterators, never the underlying stream value. *)
      let target =
        match arg rg ar 0 with
        | Value.Bytes b -> b
        | Value.Iter (Value.Ibytes it) -> it.Hbytes.bytes
        | v -> raise (Value.type_error ("bytes.trim: " ^ Value.to_string v))
      in
      Hbytes.trim target (Value.as_bytes_iter (arg rg ar 1));
      Value.Null
  | B_sub ->
      let i1 = Value.as_bytes_iter (arg rg ar 0) and i2 = Value.as_bytes_iter (arg rg ar 1) in
      let b = Hbytes.of_string (Hbytes.sub i1 i2) in
      Hbytes.freeze b;
      Value.Bytes b
  | B_find -> (
      let from =
        match arg rg ar 0 with
        | Value.Bytes b -> Hbytes.begin_ b
        | Value.Iter (Value.Ibytes it) -> it
        | v -> raise (Value.type_error ("bytes.find: " ^ Value.to_string v))
      in
      let from =
        if Array.length ar > 2 then Value.as_bytes_iter (arg rg ar 2) else from
      in
      let needle =
        match arg rg ar 1 with
        | Value.Bytes b -> Hbytes.to_string b
        | Value.String s -> s
        | v -> raise (Value.type_error ("bytes.find: " ^ Value.to_string v))
      in
      match Hbytes.find from needle with
      | Some it -> Value.Tuple [| Value.Bool true; Value.Iter (Value.Ibytes it) |]
      | None ->
          Value.Tuple
            [| Value.Bool false;
               Value.Iter (Value.Ibytes from) |])
  | B_match_prefix ->
      let it = Value.as_bytes_iter (arg rg ar 0) in
      let s =
        match arg rg ar 1 with
        | Value.Bytes b -> Hbytes.to_string b
        | Value.String s -> s
        | v -> raise (Value.type_error ("bytes.match_prefix: " ^ Value.to_string v))
      in
      vbool (blocking ctx (fun () -> Hbytes.match_prefix it s))
  | B_can_read ->
      let it = Value.as_bytes_iter (arg rg ar 0) in
      vbool (Hbytes.available it >= Value.as_int_i (arg rg ar 1))
  | B_to_string -> Value.String (Hbytes.to_string (Value.as_bytes (arg rg ar 0)))
  | B_to_int -> (
      let s = String.trim (Hbytes.to_string (Value.as_bytes (arg rg ar 0))) in
      let base = if Array.length ar > 1 then Value.as_int_i (arg rg ar 1) else 10 in
      let s_prefixed =
        match base with
        | 10 -> s
        | 16 -> "0x" ^ s
        | 8 -> "0o" ^ s
        | _ -> raise (Value.value_error "bytes.to_int: bad base")
      in
      match Int64.of_string_opt s_prefixed with
      | Some v -> Value.Int v
      | None -> raise (Value.value_error ("bytes.to_int: " ^ s)))
  | B_eq ->
      Value.Bool
        (Hbytes.to_string (Value.as_bytes (arg rg ar 0)) = Hbytes.to_string (Value.as_bytes (arg rg ar 1)))
  | B_starts_with ->
      let b = Value.as_bytes (arg rg ar 0) in
      let s =
        match arg rg ar 1 with
        | Value.Bytes x -> Hbytes.to_string x
        | Value.String x -> x
        | v -> raise (Value.type_error (Value.to_string v))
      in
      let content = Hbytes.to_string b in
      Value.Bool
        (String.length s <= String.length content
        && String.sub content 0 (String.length s) = s)
  | B_contains -> (
      let b = Value.as_bytes (arg rg ar 0) in
      let s =
        match arg rg ar 1 with
        | Value.Bytes x -> Hbytes.to_string x
        | Value.String x -> x
        | v -> raise (Value.type_error (Value.to_string v))
      in
      match Hbytes.find (Hbytes.begin_ b) s with
      | Some _ -> Value.Bool true
      | None -> Value.Bool false)
  | B_offset ->
      let b = Value.as_bytes (arg rg ar 0) in
      Value.Iter (Value.Ibytes (Hbytes.iter_at b (Value.as_int_i (arg rg ar 1))))
  | B_upper ->
      let b = Hbytes.of_string (String.uppercase_ascii (Hbytes.to_string (Value.as_bytes (arg rg ar 0)))) in
      Hbytes.freeze b;
      Value.Bytes b
  | B_lower ->
      let b = Hbytes.of_string (String.lowercase_ascii (Hbytes.to_string (Value.as_bytes (arg rg ar 0)))) in
      Hbytes.freeze b;
      Value.Bytes b

and exec_iter ctx op rg ar =
  let open Hilti_types in
  match op with
  | I_begin -> (
      match arg rg ar 0 with
      | Value.Bytes b -> Value.Iter (Value.Ibytes (Hbytes.begin_ b))
      | Value.List d -> Value.Iter (Value.Isnapshot (ref (Deque.to_list d)))
      | Value.Vector v -> Value.Iter (Value.Ivector (v, 0))
      (* A set or map is walked in its one iteration order: by the bytes
         of each entry's canonical key ({!Value.key_string}), as stored. *)
      | Value.Set s -> Value.Iter (Value.Isnapshot (ref (key_ordered (fun v -> v) s)))
      | Value.Map m ->
          Value.Iter (Value.Isnapshot (ref (key_ordered (fun (k, v) -> Value.Tuple [| k; v |]) m)))
      | v -> raise (Value.type_error ("iter.begin: " ^ Value.to_string v)))
  | I_end -> (
      match arg rg ar 0 with
      | Value.Bytes b -> Value.Iter (Value.Ibytes (Hbytes.end_ b))
      | Value.Iter (Value.Ibytes it) ->
          (* End of the iterator's underlying bytes object. *)
          Value.Iter (Value.Ibytes (Hbytes.end_ (it_bytes it)))
      | Value.List _ | Value.Set _ | Value.Map _ ->
          Value.Iter (Value.Isnapshot (ref []))
      | Value.Vector v -> Value.Iter (Value.Ivector (v, Dynarray.size v))
      | v -> raise (Value.type_error ("iter.end: " ^ Value.to_string v)))
  | I_incr -> (
      match Value.as_iter (arg rg ar 0) with
      | Value.Ibytes it -> Value.Iter (Value.Ibytes (Hbytes.incr it))
      | Value.Isnapshot l -> (
          match !l with
          | [] -> raise (Value.index_error ())
          | _ :: rest -> Value.Iter (Value.Isnapshot (ref rest)))
      | Value.Ivector (v, i) -> Value.Iter (Value.Ivector (v, i + 1)))
  | I_advance ->
      let n = Value.as_int_i (arg rg ar 1) in
      advance_value (arg rg ar 0) n
  | I_deref -> (
      match Value.as_iter (arg rg ar 0) with
      | Value.Ibytes it -> Value.Int (Int64.of_int (blocking ctx (fun () -> Hbytes.get it)))
      | Value.Isnapshot l -> (
          match !l with [] -> raise (Value.index_error ()) | x :: _ -> x)
      | Value.Ivector (v, i) -> (
          match Dynarray.get v i with
          | x -> x
          | exception Dynarray.Out_of_bounds -> raise (Value.index_error ())))
  | I_eq -> (
      match (Value.as_iter (arg rg ar 0), Value.as_iter (arg rg ar 1)) with
      | Value.Ibytes x, Value.Ibytes y -> vbool (Hbytes.iter_equal x y)
      | Value.Isnapshot x, Value.Isnapshot y ->
          vbool (List.length !x = List.length !y)
      | Value.Ivector (_, i), Value.Ivector (_, j) -> vbool (i = j)
      | _ -> Value.Bool false)
  | I_distance -> Value.Int (Int64.of_int (distance_value (arg rg ar 0) (arg rg ar 1)))
  | I_at_end -> vbool (at_end_value (arg rg ar 0))
  | I_is_eod -> (
      match Value.as_iter (arg rg ar 0) with
      | Value.Ibytes it -> vbool (Hbytes.is_eod it)
      | Value.Isnapshot l -> vbool (!l = [])
      | Value.Ivector (v, i) -> vbool (i >= Dynarray.size v))
  | I_is_frozen -> (
      match Value.as_iter (arg rg ar 0) with
      | Value.Ibytes it -> vbool (Hbytes.is_frozen (it_bytes it))
      | Value.Isnapshot _ | Value.Ivector _ -> Value.Bool true)

and exec_addr op rg ar =
  let open Hilti_types in
  match op with
  | AD_family ->
      let fam = Addr.family (Value.as_addr (arg rg ar 0)) in
      Value.Enum ("Hilti::AddrFamily", (match fam with Addr.IPv4 -> 4 | Addr.IPv6 -> 6), false)
  | AD_eq -> vbool (Addr.equal (Value.as_addr (arg rg ar 0)) (Value.as_addr (arg rg ar 1)))
  | AD_mask ->
      let addr = Value.as_addr (arg rg ar 0) and len = Value.as_int_i (arg rg ar 1) in
      Value.Net (Network.make addr len)
  | AD_to_string -> Value.String (Addr.to_string (Value.as_addr (arg rg ar 0)))

and exec_port op rg ar =
  let open Hilti_types in
  match op with
  | PO_protocol ->
      let proto = Port.proto (Value.as_port (arg rg ar 0)) in
      Value.Enum
        ( "Hilti::Protocol",
          (match proto with Port.TCP -> 1 | Port.UDP -> 2 | Port.ICMP -> 3),
          false )
  | PO_number -> Value.Int (Int64.of_int (Port.number (Value.as_port (arg rg ar 0))))
  | PO_eq -> vbool (Port.equal (Value.as_port (arg rg ar 0)) (Value.as_port (arg rg ar 1)))

and exec_net op rg ar =
  let open Hilti_types in
  match op with
  | NE_contains -> vbool (Network.contains (Value.as_net (arg rg ar 0)) (Value.as_addr (arg rg ar 1)))
  | NE_prefix -> Value.Addr (Network.prefix (Value.as_net (arg rg ar 0)))
  | NE_length -> Value.Int (Int64.of_int (Network.length (Value.as_net (arg rg ar 0))))
  | NE_eq -> vbool (Network.equal (Value.as_net (arg rg ar 0)) (Value.as_net (arg rg ar 1)))

and exec_time op rg ar =
  let open Hilti_types in
  match op with
  | TI_add -> Value.Time (Time_ns.add (Value.as_time (arg rg ar 0)) (Interval_ns.to_ns (Value.as_interval (arg rg ar 1))))
  | TI_sub -> Value.Interval (Interval_ns.of_ns (Time_ns.diff (Value.as_time (arg rg ar 0)) (Value.as_time (arg rg ar 1))))
  | TI_cmp c -> vbool (compare_by c (Time_ns.compare (Value.as_time (arg rg ar 0)) (Value.as_time (arg rg ar 1))))
  | TI_wall -> Value.Time (Time_ns.now ())
  | TI_to_double -> Value.Double (Time_ns.to_float (Value.as_time (arg rg ar 0)))
  | TI_nsecs -> Value.Int (Time_ns.to_ns (Value.as_time (arg rg ar 0)))

and exec_interval op rg ar =
  let open Hilti_types in
  match op with
  | IV_add -> Value.Interval (Interval_ns.add (Value.as_interval (arg rg ar 0)) (Value.as_interval (arg rg ar 1)))
  | IV_sub -> Value.Interval (Interval_ns.sub (Value.as_interval (arg rg ar 0)) (Value.as_interval (arg rg ar 1)))
  | IV_mul -> Value.Interval (Interval_ns.mul (Value.as_interval (arg rg ar 0)) (Value.as_int_i (arg rg ar 1)))
  | IV_eq -> vbool (Interval_ns.equal (Value.as_interval (arg rg ar 0)) (Value.as_interval (arg rg ar 1)))
  | IV_lt -> vbool (Interval_ns.compare (Value.as_interval (arg rg ar 0)) (Value.as_interval (arg rg ar 1)) < 0)
  | IV_to_double -> Value.Double (Interval_ns.to_float (Value.as_interval (arg rg ar 0)))
  | IV_nsecs -> Value.Int (Interval_ns.to_ns (Value.as_interval (arg rg ar 0)))

(* Slot accesses: one physical-equality check that the struct has the
   operand's declared type, then a direct slot read or write ({!Verify}
   proved the slot inside the layout, which fixes the slot array's size). *)
and exec_struct op (layout : Value.layout) slot rg ar =
  let s = Value.as_struct (arg rg ar 0) in
  if s.Value.layout != layout then
    raise
      (Value.type_error
         (Printf.sprintf "struct %s: got %s" layout.Value.lname s.Value.layout.Value.lname));
  let slots = s.Value.slots in
  match op with
  | ST_get ->
      let v = Array.unsafe_get slots slot in
      if v == Value.unset then raise (Value.unset_field layout.Value.lfields.(slot)) else v
  | ST_get_default ->
      let v = Array.unsafe_get slots slot in
      if v == Value.unset then arg rg ar 1 else v
  | ST_set ->
      Array.unsafe_set slots slot (arg rg ar 1);
      Value.Null
  | ST_unset ->
      Array.unsafe_set slots slot Value.unset;
      Value.Null
  | ST_is_set -> vbool (Array.unsafe_get slots slot != Value.unset)

and exec_list op rg ar =
  let d = Value.as_list (arg rg ar 0) in
  match op with
  | L_append ->
      Deque.push_back d (arg rg ar 1);
      Value.Null
  | L_push_front ->
      Deque.push_front d (arg rg ar 1);
      Value.Null
  | L_pop_front -> (
      match Deque.pop_front d with Some v -> v | None -> raise (Value.underflow ()))
  | L_front -> (
      match Deque.peek_front d with Some v -> v | None -> raise (Value.underflow ()))
  | L_back -> (
      match Deque.peek_back d with Some v -> v | None -> raise (Value.underflow ()))
  | L_size -> Value.Int (Int64.of_int (Deque.size d))
  | L_clear ->
      Deque.clear d;
      Value.Null

and exec_vector op rg ar =
  let v = Value.as_vector (arg rg ar 0) in
  match op with
  | V_push_back ->
      Dynarray.push v (arg rg ar 1);
      Value.Null
  | V_get -> (
      try Dynarray.get v (Value.as_int_i (arg rg ar 1))
      with Dynarray.Out_of_bounds -> raise (Value.index_error ()))
  | V_set -> (
      try
        Dynarray.set v (Value.as_int_i (arg rg ar 1)) (arg rg ar 2);
        Value.Null
      with Dynarray.Out_of_bounds -> raise (Value.index_error ()))
  | V_size -> Value.Int (Int64.of_int (Dynarray.size v))
  | V_reserve ->
      Dynarray.reserve v (Value.as_int_i (arg rg ar 1));
      Value.Null
  | V_clear ->
      Dynarray.clear v;
      Value.Null
  | V_pop_back -> (
      try Dynarray.pop v with Dynarray.Out_of_bounds -> raise (Value.index_error ()))

and expire_strategy_of rg ar i =
  (* (strategy enum, interval) trailing arguments of *.timeout. *)
  let strategy_val =
    match arg rg ar i with
    | Value.Enum (_, v, _) -> v
    | Value.Int v -> Int64.to_int v
    | v -> raise (Value.type_error ("expire strategy: " ^ Value.to_string v))
  in
  let ival = Value.as_interval (arg rg ar (i + 1)) in
  match strategy_val with
  | 0 -> Hilti_rt.Expire.Create ival
  | 1 -> Hilti_rt.Expire.Access ival
  | 2 -> Hilti_rt.Expire.Write ival
  | _ -> Hilti_rt.Expire.Never

and exec_set ctx op rg ar =
  let s = Value.as_set (arg rg ar 0) in
  match op with
  | SE_insert ->
      Hilti_rt.Exp_map.insert s (Value.key_string (arg rg ar 1)) (arg rg ar 1);
      Value.Null
  | SE_exists -> vbool (Hilti_rt.Exp_map.mem_touch s (Value.key_string (arg rg ar 1)))
  | SE_remove ->
      Hilti_rt.Exp_map.remove s (Value.key_string (arg rg ar 1));
      Value.Null
  | SE_size -> Value.Int (Int64.of_int (Hilti_rt.Exp_map.size s))
  | SE_clear ->
      Hilti_rt.Exp_map.clear s;
      Value.Null
  | SE_timeout ->
      Hilti_rt.Exp_map.set_timeout s (expire_strategy_of rg ar 1) (current_timer_mgr ctx);
      Value.Null

and exec_map ctx op rg ar =
  let m = Value.as_map (arg rg ar 0) in
  match op with
  | M_insert ->
      Hilti_rt.Exp_map.insert m (Value.key_string (arg rg ar 1)) (arg rg ar 1, arg rg ar 2);
      Value.Null
  | M_get -> (
      match Hilti_rt.Exp_map.find_opt m (Value.key_string (arg rg ar 1)) with
      | Some (_, v) -> v
      | None -> raise (Value.index_error ()))
  | M_get_default -> (
      match Hilti_rt.Exp_map.find_opt m (Value.key_string (arg rg ar 1)) with
      | Some (_, v) -> v
      | None -> arg rg ar 2)
  | M_exists -> vbool (Hilti_rt.Exp_map.mem_touch m (Value.key_string (arg rg ar 1)))
  | M_remove ->
      Hilti_rt.Exp_map.remove m (Value.key_string (arg rg ar 1));
      Value.Null
  | M_size -> Value.Int (Int64.of_int (Hilti_rt.Exp_map.size m))
  | M_clear ->
      Hilti_rt.Exp_map.clear m;
      Value.Null
  | M_default ->
      let default = arg rg ar 1 in
      Hilti_rt.Exp_map.set_default m (fun _ -> (Value.Null, Value.deep_copy default));
      Value.Null
  | M_timeout ->
      Hilti_rt.Exp_map.set_timeout m (expire_strategy_of rg ar 1) (current_timer_mgr ctx);
      Value.Null

and exec_channel ctx op rg ar =
  let c = Value.as_channel (arg rg ar 0) in
  match op with
  | CH_write ->
      blocking ctx (fun () ->
          if not (Hilti_rt.Channel.try_write c (Value.deep_copy (arg rg ar 1))) then
            raise Hilti_types.Hbytes.Would_block);
      Value.Null
  | CH_read ->
      blocking ctx (fun () ->
          match Hilti_rt.Channel.try_read c with
          | Some v -> v
          | None -> raise Hilti_types.Hbytes.Would_block)
  | CH_try_read -> (
      match Hilti_rt.Channel.try_read c with
      | Some v -> Value.Tuple [| Value.Bool true; v |]
      | None -> Value.Tuple [| Value.Bool false; Value.Null |])
  | CH_size -> Value.Int (Int64.of_int (Hilti_rt.Channel.size c))

and classifier_field_of_value (v : Value.t) : Hilti_rt.Classifier.field =
  let open Hilti_types in
  match v with
  | Value.Net n -> Hilti_rt.Classifier.field_of_network n
  | Value.Addr addr -> Hilti_rt.Classifier.field_of_addr addr
  | Value.Port p -> Hilti_rt.Classifier.field_of_port p
  | Value.Int i ->
      let b = Bytes.create 8 in
      Bytes.set_int64_be b 0 i;
      Hilti_rt.Classifier.field_of_string (Bytes.unsafe_to_string b)
  | Value.Bool b_ ->
      Hilti_rt.Classifier.field_of_string (if b_ then "\x01" else "\x00")
  | Value.Bytes b -> Hilti_rt.Classifier.field_of_string (Hbytes.to_string b)
  | Value.String s -> Hilti_rt.Classifier.field_of_string s
  | Value.Null -> Hilti_rt.Classifier.wildcard
  | v -> raise (Value.type_error ("classifier field: " ^ Value.to_string v))

and classifier_key_of_value (v : Value.t) : string =
  (classifier_field_of_value v).Hilti_rt.Classifier.data

and exec_classifier op rg ar =
  let c = Value.as_classifier (arg rg ar 0) in
  match op with
  | CL_add ->
      let fields =
        match arg rg ar 1 with
        | Value.Tuple vs -> Array.map classifier_field_of_value vs
        | Value.Struct s ->
            Array.map
              (fun v ->
                if v == Value.unset then Hilti_rt.Classifier.wildcard
                else classifier_field_of_value v)
              s.Value.slots
        | v -> [| classifier_field_of_value v |]
      in
      let priority =
        if Array.length ar > 3 then Value.as_int_i (arg rg ar 3) else 0
      in
      Hilti_rt.Classifier.add c.Value.cls ~priority fields (arg rg ar 2);
      Value.Null
  | CL_compile ->
      Hilti_rt.Classifier.compile c.Value.cls;
      Value.Null
  | CL_get -> (
      let keys =
        match arg rg ar 1 with
        | Value.Tuple vs -> Array.map classifier_key_of_value vs
        | v -> [| classifier_key_of_value v |]
      in
      match Hilti_rt.Classifier.get c.Value.cls keys with
      | Some v -> v
      | None -> raise (Value.index_error ()))
  | CL_matches -> (
      let keys =
        match arg rg ar 1 with
        | Value.Tuple vs -> Array.map classifier_key_of_value vs
        | v -> [| classifier_key_of_value v |]
      in
      match Hilti_rt.Classifier.get c.Value.cls keys with
      | Some _ -> Value.Bool true
      | None -> Value.Bool false)

and exec_regexp ctx op rg ar =
  let open Hilti_types in
  match op with
  | RE_compile ->
      let patterns =
        match arg rg ar 0 with
        | Value.String s -> [ s ]
        | Value.Bytes b -> [ Hbytes.to_string b ]
        | Value.List d ->
            List.map
              (function
                | Value.String s -> s
                | Value.Bytes b -> Hbytes.to_string b
                | v -> raise (Value.type_error (Value.to_string v)))
              (Deque.to_list d)
        | Value.Tuple vs ->
            Array.to_list
              (Array.map
                 (function
                   | Value.String s -> s
                   | Value.Bytes b -> Hbytes.to_string b
                   | v -> raise (Value.type_error (Value.to_string v)))
                 vs)
        | v -> raise (Value.type_error ("regexp.compile: " ^ Value.to_string v))
      in
      Value.Regexp (Hilti_rt.Regexp.compile patterns)
  | RE_find -> (
      let re = Value.as_regexp (arg rg ar 0) in
      let it =
        match arg rg ar 1 with
        | Value.Bytes b -> Hbytes.begin_ b
        | Value.Iter (Value.Ibytes it) -> it
        | v -> raise (Value.type_error (Value.to_string v))
      in
      let data = Hbytes.sub it (Hbytes.end_ (it_bytes it)) in
      match Hilti_rt.Regexp.search re data ~pos:0 with
      | Some (_, id, _) -> Value.Int (Int64.of_int id)
      | None -> Value.Int (-1L))
  | RE_match_token ->
      let re = Value.as_regexp (arg rg ar 0) in
      let it = Value.as_bytes_iter (arg rg ar 1) in
      exec_match_token ctx re it
  | RE_span -> (
      let re = Value.as_regexp (arg rg ar 0) in
      let b = Value.as_bytes (arg rg ar 1) in
      let data = Hbytes.to_string b in
      match Hilti_rt.Regexp.search re data ~pos:0 with
      | Some (start, id, len) ->
          Value.Tuple
            [| Value.Int (Int64.of_int id);
               Value.Iter (Value.Ibytes (Hbytes.iter_at b (Hbytes.start_offset b + start)));
               Value.Iter (Value.Ibytes (Hbytes.iter_at b (Hbytes.start_offset b + start + len))) |]
      | None -> Value.Tuple [| Value.Int (-1L); Value.Iter (Value.Ibytes (Hbytes.begin_ b)); Value.Iter (Value.Ibytes (Hbytes.begin_ b)) |])
  | RE_groups ->
      Value.Int (Int64.of_int (List.length (Hilti_rt.Regexp.patterns (Value.as_regexp (arg rg ar 0)))))

and it_bytes (it : Hilti_types.Hbytes.iter) = it.Hilti_types.Hbytes.bytes

(* Incremental anchored token match: longest match semantics, suspending
   the fiber while the outcome is undecidable. *)
and exec_match_token ctx re (start : Hilti_types.Hbytes.iter) : Value.t =
  let open Hilti_types in
  let m = Hilti_rt.Regexp.matcher re in
  let b = it_bytes start in
  (* Track how much we already fed across waits. *)
  let fed = ref start.Hbytes.pos in
  let rec loop2 () =
    let end_off = Hbytes.end_offset b in
    if !fed < end_off then begin
      let chunk = Hbytes.sub (Hbytes.iter_at b !fed) (Hbytes.end_ b) in
      let consumed = Hilti_rt.Regexp.feed m chunk 0 (String.length chunk) in
      fed := !fed + consumed
    end;
    let final = Hbytes.is_frozen b in
    match Hilti_rt.Regexp.result m ~final with
    | Hilti_rt.Regexp.Match (id, len) ->
        Value.Tuple
          [| Value.Int (Int64.of_int id);
             Value.Iter (Value.Ibytes (Hbytes.advance start len)) |]
    | Hilti_rt.Regexp.No_match ->
        Value.Tuple [| Value.Int (-1L); Value.Iter (Value.Ibytes start) |]
    | Hilti_rt.Regexp.Need_more ->
        suspend ctx;
        loop2 ()
  in
  loop2 ()

and exec_overlay ctx spec rg ar =
  let open Hilti_types in
  let it =
    match arg rg ar 0 with
    | Value.Bytes b -> Hbytes.begin_ b
    | Value.Iter (Value.Ibytes it) -> it
    | v -> raise (Value.type_error ("overlay.get: " ^ Value.to_string v))
  in
  let fit = Hbytes.advance it spec.ov_offset in
  match spec.ov_fmt with
  | Module_ir.U_bytes n ->
      let data, _ = blocking ctx (fun () -> Hbytes.read fit n) in
      let b = Hbytes.of_string data in
      Hbytes.freeze b;
      Value.Bytes b
  | Module_ir.U_ipv4 ->
      let v, _ = blocking ctx (fun () -> Hbytes.read_uint fit ~width:4 ~order:Hbytes.Big) in
      Value.Addr (Addr.of_ipv4_int32 (Int64.to_int32 v))
  | Module_ir.U_uint (w, order) | Module_ir.U_sint (w, order) ->
      let signed = match spec.ov_fmt with Module_ir.U_sint _ -> true | _ -> false in
      let read = if signed then Hbytes.read_sint else Hbytes.read_uint in
      let v, _ = blocking ctx (fun () -> read fit ~width:w ~order) in
      let v =
        match spec.ov_bits with
        | Some (lo, hi) ->
            let width = hi - lo + 1 in
            Int64.logand (Int64.shift_right_logical v lo)
              (Int64.sub (Int64.shift_left 1L width) 1L)
        | None -> v
      in
      Value.Int v

and exec_file ctx op rg ar =
  match op with
  | F_open ->
      let path = Value.as_string (arg rg ar 0) in
      let mode =
        if Array.length ar > 1 then Value.as_string (arg rg ar 1) else "disk"
      in
      if mode = "memory" then Value.File (Hilti_rt.Hfile.open_memory ~serializer:ctx.scheduler path)
      else Value.File (Hilti_rt.Hfile.open_disk ~serializer:ctx.scheduler path)
  | F_write ->
      let f = Value.as_file (arg rg ar 0) in
      let data =
        match arg rg ar 1 with
        | Value.String s -> s
        | Value.Bytes b -> Hilti_types.Hbytes.to_string b
        | v -> Value.to_string v
      in
      Hilti_rt.Hfile.write f data;
      Value.Null
  | F_close ->
      Hilti_rt.Hfile.close (Value.as_file (arg rg ar 0));
      Value.Null

(* ---- The dispatch loop ------------------------------------------------------------ *)

(* The one dispatch loop.  {!create} admits only verified programs, so
   every register field, code fetch, global slot and bank slot below was
   proven in range by {!Verify} and the accesses skip their bounds checks.
   Functions rewritten by {!Specialize} carry unboxed int/float register
   banks; {!acquire_frame} starts every activation from the immutable bank
   templates, exactly as from [reg_defaults], and no two live activations
   share a frame.  Functions without bank metadata (the generic
   [~specialize:false] configuration) run with empty banks: the verifier
   rejects bank opcodes there, so none can execute.  The bank arithmetic
   is written out inline (not via [int_arith]/[exec_prim]): without
   flambda a helper call re-boxes its int64/float arguments, which is
   precisely the allocation the banks exist to remove. *)
and exec_func ctx (fidx : int) (args : Value.t list) : Value.t =
  let f = ctx.program.funcs.(fidx) in
  let pool = pool_for ctx fidx f in
  let frame = acquire_frame pool f in
  List.iteri (fun i v -> if i < f.nparams then frame.regs.(i) <- v) args;
  default_params f frame (List.length args);
  run_frame ctx f pool frame false

(* A call from bytecode: the arguments go straight from the caller's
   registers [rg] (at [ar]) into the callee's parameters.  Arguments past
   the parameters are dropped (only a hook body can be run with more). *)
and call_regs ctx (fidx : int) (rg : Value.t array) (ar : int array) : Value.t =
  let f = Array.unsafe_get ctx.program.funcs fidx in
  let pool = pool_for ctx fidx f in
  let frame = acquire_frame pool f in
  let regs = frame.regs in
  let k = min (Array.length ar) f.nparams in
  for i = 0 to k - 1 do
    Array.unsafe_set regs i (Array.unsafe_get rg (Array.unsafe_get ar i))
  done;
  default_params f frame k;
  run_frame ctx f pool frame false

(* [pcall]: the activation is a [CallP_u]'s, so its [RetP_u] hands the
   iterator back in [ctx.ret_base]/[ctx.ret_pos] instead of a tuple. *)
and run_frame ctx (f : Bytecode.func) pool (frame : frame) (pcall : bool) : Value.t =
  let ibank = frame.ibank and fbank = frame.fbank in
  let code = f.code in
  let result = ref Value.Null in
  let running = ref true in
  let obs =
    if Hilti_obs.Metrics.enabled () then Some (Array.make n_opgroups 0) else None
  in
  let instrs = ctx.instrs in
  let instrs_at_entry = !instrs in
  (* One exception handler per activation, not per instruction: a HILTI
     exception with a [try] handler on the frame's stack jumps there, and
     the outer loop enters the dispatch loop again. *)
  (try
     while !running do
     try
     while !running do
    let i = Array.unsafe_get code frame.pc in
    let n = !instrs + 1 in
    instrs := n;
    if n >= ctx.step_kill then raise Step_budget_exceeded;
    (match obs with
    | Some ops ->
        let g = opgroup_of i in
        ops.(g) <- ops.(g) + 1
    | None -> ());
    let next = frame.pc + 1 in
       match i with
       | Const (dst, v) ->
           setreg frame dst v;
           frame.pc <- next
       | Mov (dst, src) ->
           setreg frame dst (reg frame src);
           frame.pc <- next
       | LoadGlobal (dst, slot) ->
           setreg frame dst (Array.unsafe_get (current_globals ctx) slot);
           frame.pc <- next
       | StoreGlobal (slot, src) ->
           Array.unsafe_set (current_globals ctx) slot (reg frame src);
           frame.pc <- next
       | Jump pc -> frame.pc <- pc
       | Br (c, t, e) -> frame.pc <- (if Value.as_bool (reg frame c) then t else e)
       | Switch (v, default, cases) ->
           let value = reg frame v in
           let rec find k =
             if k >= Array.length cases then default
             else
               let cv, pc = Array.unsafe_get cases k in
               if Value.equal cv value then pc else find (k + 1)
           in
           frame.pc <- find 0
       | Call (callee, arg_regs, dst) ->
           let r = call_regs ctx callee frame.regs arg_regs in
           setreg frame dst r;
           frame.pc <- next
       | CallC (h, arg_regs, dst) -> (
           match Array.unsafe_get ctx.host_slots h with
           | Some fn ->
               let args = args_list frame.regs arg_regs in
               credit ctx;
               setreg frame dst (fn ctx args);
               frame.pc <- next
           | None -> fail "unresolved host function %s" ctx.program.host_names.(h))
       | Ret r ->
           result := (if r >= 0 then reg frame r else Value.Null);
           running := false
       | TryPush (handler, exc_reg) ->
           frame.tries <- (handler, exc_reg) :: frame.tries;
           frame.pc <- next
       | TryPop ->
           (match frame.tries with
           | _ :: rest -> frame.tries <- rest
           | [] -> ());
           frame.pc <- next
       | Throw r -> (
           match reg frame r with
           | Value.Exception e -> raise (Value.Hilti_error e)
           | v -> raise (Value.Hilti_error { ename = "Hilti::Exception"; earg = v }))
       | Yield ->
           suspend ctx;
           frame.pc <- next
       | HookRun (bodies, arg_regs) ->
           (try
              for k = 0 to Array.length bodies - 1 do
                ignore (call_regs ctx (Array.unsafe_get bodies k) frame.regs arg_regs)
              done
            with Value.Hilti_error e when e.Value.ename = "Hilti::HookStop" -> ());
           frame.pc <- next
       | Schedule (callee, arg_regs, tid_reg) ->
           let tid = Value.as_int (reg frame tid_reg) in
           let args =
             Array.to_list (Array.map (fun r -> Value.deep_copy (reg frame r)) arg_regs)
           in
           schedule_job ctx tid callee args;
           frame.pc <- next
       | Bind (callee, arg_regs, dst) ->
           let args = Array.to_list (Array.map (reg frame) arg_regs) in
           let name = ctx.program.funcs.(callee).name in
           setreg frame dst
             (Value.Callable
                {
                  description = name;
                  invoke = (fun () -> exec_func ctx callee args);
                });
           frame.pc <- next
       | Prim (P_struct (op, layout, slot), arg_regs, dst) ->
           (* The hottest primitive in generated parsers: straight to the
              slot access, which raises only HILTI exceptions ({!Verify}
              checked its arity). *)
           setreg frame dst (exec_struct op layout slot frame.regs arg_regs);
           frame.pc <- next
       | Prim (p, arg_regs, dst) ->
           let v =
             try exec_prim ctx p frame.regs arg_regs with
             | Hilti_types.Hbytes.Out_of_range ->
                 raise (Value.value_error "bytes: out of range")
             | Hilti_types.Hbytes.Frozen ->
                 raise (Value.value_error "bytes: frozen")
             | Hilti_rt.Regexp.Parse_error msg -> raise (Value.value_error msg)
             | Hilti_rt.Classifier.Not_compiled ->
                 raise (Value.value_error "classifier: not compiled")
             | Hilti_rt.Classifier.Already_compiled ->
                 raise (Value.value_error "classifier: already compiled")
             | Invalid_argument msg ->
                 (* Hostile field values (e.g. a lying length that goes
                    negative) reach substrate primitives; surface them as a
                    catchable HILTI exception, not a raw OCaml crash. *)
                 raise (Value.value_error ("prim: " ^ msg))
           in
           setreg frame dst v;
           frame.pc <- next
       | Unpack (fmt, s, vd, itd) ->
           let it = Value.as_bytes_iter (reg frame s) in
           let b = it.Hilti_types.Hbytes.bytes and pos = it.Hilti_types.Hbytes.pos in
           await_bytes ctx b pos fmt.u_width;
           setreg frame vd (Value.Int (unpack_value b pos fmt));
           setreg frame itd
             (Value.Iter (Value.Ibytes (Hilti_types.Hbytes.advance it fmt.u_width)));
           frame.pc <- next
       | Read (s, n, vd, itd) ->
           let it = Value.as_bytes_iter (reg frame s) in
           let k = Value.as_int_i (reg frame n) in
           if k < 0 then raise (Value.value_error "bytes.read: negative length");
           await_bytes ctx it.Hilti_types.Hbytes.bytes it.Hilti_types.Hbytes.pos k;
           let it' = Hilti_types.Hbytes.advance it k in
           setreg frame vd
             (Value.Bytes (Hilti_types.Hbytes.frozen_of_string (Hilti_types.Hbytes.sub it it')));
           setreg frame itd (Value.Iter (Value.Ibytes it'));
           frame.pc <- next
       | Nop -> frame.pc <- next
       (* ---- Int bank ---- *)
       | IConst_u (d, k) ->
           ibank_set ibank (d lsl 3) k;
           frame.pc <- next
       | IMov_u (d, s) ->
           ibank_set ibank (d lsl 3) (ibank_get ibank (s lsl 3));
           frame.pc <- next
       | UnboxI (d, s) ->
           (* Mirrors [Value.as_int] so failure counting matches the
              generic path. *)
           (match reg frame s with
           | Value.Int k -> ibank_set ibank (d lsl 3) k
           | v -> raise (Value.type_error ("int: " ^ Value.to_string v)));
           frame.pc <- next
       | BoxI (d, s) ->
           setreg frame d (Value.Int (ibank_get ibank (s lsl 3)));
           frame.pc <- next
       | IArith_u (op, w, d, a, b) ->
           let x = ibank_get ibank (a lsl 3) and y = ibank_get ibank (b lsl 3) in
           let r =
             match op with
             | A_add -> Int64.add x y
             | A_sub -> Int64.sub x y
             | A_mul -> Int64.mul x y
             | A_div -> if y = 0L then raise (Value.division_by_zero ()) else Int64.div x y
             | A_mod -> if y = 0L then raise (Value.division_by_zero ()) else Int64.rem x y
             | A_shl -> Int64.shift_left x (Int64.to_int y land 63)
             | A_shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
             | A_and -> Int64.logand x y
             | A_or -> Int64.logor x y
             | A_xor -> Int64.logxor x y
             | A_min -> if x <= y then x else y
             | A_max -> if x >= y then x else y
           in
           let r =
             if w >= 64 then r
             else Int64.shift_right (Int64.shift_left r (64 - w)) (64 - w)
           in
           ibank_set ibank (d lsl 3) r;
           frame.pc <- next
       | IArithK_u (op, w, d, a, y) ->
           let x = ibank_get ibank (a lsl 3) in
           let r =
             match op with
             | A_add -> Int64.add x y
             | A_sub -> Int64.sub x y
             | A_mul -> Int64.mul x y
             | A_div -> if y = 0L then raise (Value.division_by_zero ()) else Int64.div x y
             | A_mod -> if y = 0L then raise (Value.division_by_zero ()) else Int64.rem x y
             | A_shl -> Int64.shift_left x (Int64.to_int y land 63)
             | A_shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
             | A_and -> Int64.logand x y
             | A_or -> Int64.logor x y
             | A_xor -> Int64.logxor x y
             | A_min -> if x <= y then x else y
             | A_max -> if x >= y then x else y
           in
           let r =
             if w >= 64 then r
             else Int64.shift_right (Int64.shift_left r (64 - w)) (64 - w)
           in
           ibank_set ibank (d lsl 3) r;
           frame.pc <- next
       | ICmp_u (c, d, a, b) ->
           let x = ibank_get ibank (a lsl 3) and y = ibank_get ibank (b lsl 3) in
           let r =
             match c with
             | C_eq -> Int64.equal x y
             | C_lt -> x < y
             | C_gt -> x > y
             | C_leq -> x <= y
             | C_geq -> x >= y
           in
           setreg frame d (if r then vtrue else vfalse);
           frame.pc <- next
       | ICmpK_u (c, d, a, y) ->
           let x = ibank_get ibank (a lsl 3) in
           let r =
             match c with
             | C_eq -> Int64.equal x y
             | C_lt -> x < y
             | C_gt -> x > y
             | C_leq -> x <= y
             | C_geq -> x >= y
           in
           setreg frame d (if r then vtrue else vfalse);
           frame.pc <- next
       | IBrCmp_u (c, a, b, t, e) ->
           let x = ibank_get ibank (a lsl 3) and y = ibank_get ibank (b lsl 3) in
           let r =
             match c with
             | C_eq -> Int64.equal x y
             | C_lt -> x < y
             | C_gt -> x > y
             | C_leq -> x <= y
             | C_geq -> x >= y
           in
           frame.pc <- (if r then t else e)
       | IBrCmpK_u (c, a, y, t, e) ->
           let x = ibank_get ibank (a lsl 3) in
           let r =
             match c with
             | C_eq -> Int64.equal x y
             | C_lt -> x < y
             | C_gt -> x > y
             | C_leq -> x <= y
             | C_geq -> x >= y
           in
           frame.pc <- (if r then t else e)
       | UnpackI_u (fmt, s, d, itd) ->
           let it = Value.as_bytes_iter (reg frame s) in
           let b = it.Hilti_types.Hbytes.bytes and pos = it.Hilti_types.Hbytes.pos in
           await_bytes ctx b pos fmt.u_width;
           ibank_set ibank (d lsl 3) (unpack_value b pos fmt);
           setreg frame itd
             (Value.Iter (Value.Ibytes (Hilti_types.Hbytes.advance it fmt.u_width)));
           frame.pc <- next
       | IIncrJ_u (w, d, k, t) ->
           let r = Int64.add (ibank_get ibank (d lsl 3)) k in
           let r =
             if w >= 64 then r
             else Int64.shift_right (Int64.shift_left r (64 - w)) (64 - w)
           in
           ibank_set ibank (d lsl 3) r;
           frame.pc <- t
       (* ---- Float bank ---- *)
       | FConst_u (d, k) ->
           Array.unsafe_set fbank d k;
           frame.pc <- next
       | FMov_u (d, s) ->
           Array.unsafe_set fbank d (Array.unsafe_get fbank s);
           frame.pc <- next
       | UnboxF (d, s) ->
           (* Mirrors [Value.as_double], including the int coercion. *)
           (match reg frame s with
           | Value.Double x -> Array.unsafe_set fbank d x
           | Value.Int k -> Array.unsafe_set fbank d (Int64.to_float k)
           | v -> raise (Value.type_error ("double: " ^ Value.to_string v)));
           frame.pc <- next
       | BoxF (d, s) ->
           setreg frame d (Value.Double (Array.unsafe_get fbank s));
           frame.pc <- next
       | FArith_u (op, d, a, b) ->
           let x = Array.unsafe_get fbank a and y = Array.unsafe_get fbank b in
           let r =
             match op with
             | A_add -> x +. y
             | A_sub -> x -. y
             | A_mul -> x *. y
             | A_div -> if y = 0. then raise (Value.division_by_zero ()) else x /. y
             | _ -> fail "double arith"
           in
           Array.unsafe_set fbank d r;
           frame.pc <- next
       | FCmp_u (c, d, a, b) ->
           (* Float.compare, not the native comparisons: NaN ordering must
              match the generic [P_double_cmp] path exactly. *)
           let r =
             compare_by c
               (Float.compare (Array.unsafe_get fbank a) (Array.unsafe_get fbank b))
           in
           setreg frame d (if r then vtrue else vfalse);
           frame.pc <- next
       | FBrCmp_u (c, a, b, t, e) ->
           let r =
             compare_by c
               (Float.compare (Array.unsafe_get fbank a) (Array.unsafe_get fbank b))
           in
           frame.pc <- (if r then t else e)
       (* ---- Split iterators: positions in the int bank ---- *)
       | IPos_u (p, r) ->
           ibank_set ibank (p lsl 3) (Int64.of_int (iter_pos (reg frame r)));
           frame.pc <- next
       | IterBox_u (r, p) ->
           let v = reg frame r in
           let v' = iter_value v (Int64.to_int (ibank_get ibank (p lsl 3))) in
           if v' != v then setreg frame r v';
           frame.pc <- next
       | PUnpack_u (fmt, s, ps, vd, d, pd) ->
           let base = reg frame s in
           let b = (Value.as_bytes_iter base).Hilti_types.Hbytes.bytes in
           let pos = Int64.to_int (ibank_get ibank (ps lsl 3)) in
           await_bytes ctx b pos fmt.u_width;
           setreg frame vd (Value.Int (unpack_value b pos fmt));
           if d <> s then setreg frame d base;
           ibank_set ibank (pd lsl 3) (Int64.of_int (pos + fmt.u_width));
           frame.pc <- next
       | PUnpackI_u (fmt, s, ps, vd, d, pd) ->
           let base = reg frame s in
           let b = (Value.as_bytes_iter base).Hilti_types.Hbytes.bytes in
           let pos = Int64.to_int (ibank_get ibank (ps lsl 3)) in
           await_bytes ctx b pos fmt.u_width;
           ibank_set ibank (vd lsl 3) (unpack_value b pos fmt);
           if d <> s then setreg frame d base;
           ibank_set ibank (pd lsl 3) (Int64.of_int (pos + fmt.u_width));
           frame.pc <- next
       | PRead_u (s, ps, n, vd, d, pd) ->
           let base = reg frame s in
           let b = (Value.as_bytes_iter base).Hilti_types.Hbytes.bytes in
           read_at ctx frame base b (Int64.to_int (ibank_get ibank (ps lsl 3)))
             (Int64.to_int (ibank_get ibank (n lsl 3))) vd s d pd;
           frame.pc <- next
       | PReadR_u (s, ps, n, vd, d, pd) ->
           let base = reg frame s in
           let b = (Value.as_bytes_iter base).Hilti_types.Hbytes.bytes in
           read_at ctx frame base b (Int64.to_int (ibank_get ibank (ps lsl 3)))
             (Value.as_int_i (reg frame n)) vd s d pd;
           frame.pc <- next
       | PAdvance_u (d, pd, s, ps, n) ->
           let k = Int64.to_int (ibank_get ibank (n lsl 3)) in
           (match reg frame s with
           | Value.Iter (Value.Ibytes _) as base ->
               (* What [Prim] makes of [Hbytes.advance]'s [Invalid_argument]. *)
               if k < 0 then raise (Value.value_error "prim: Hbytes.advance");
               if d <> s then setreg frame d base;
               ibank_set ibank (pd lsl 3)
                 (Int64.of_int (Int64.to_int (ibank_get ibank (ps lsl 3)) + k))
           | v ->
               let r = advance_value v k in
               setreg frame d r;
               ibank_set ibank (pd lsl 3) (Int64.of_int (iter_pos r)));
           frame.pc <- next
       | PAtEnd_u (d, s, ps) ->
           let r =
             match reg frame s with
             | Value.Iter (Value.Ibytes it) ->
                 Int64.to_int (ibank_get ibank (ps lsl 3))
                 >= Hilti_types.Hbytes.end_offset it.Hilti_types.Hbytes.bytes
             | v -> at_end_value v
           in
           setreg frame d (if r then vtrue else vfalse);
           frame.pc <- next
       | PDistance_u (d, a, pa, b, pb) ->
           let pa = Int64.to_int (ibank_get ibank (pa lsl 3))
           and pb = Int64.to_int (ibank_get ibank (pb lsl 3)) in
           let r =
             match (reg frame a, reg frame b) with
             | Value.Iter (Value.Ibytes _), Value.Iter (Value.Ibytes _) -> pb - pa
             | va, vb -> distance_value (iter_value va pa) (iter_value vb pb)
           in
           ibank_set ibank (d lsl 3) (Int64.of_int r);
           frame.pc <- next
       | BLength_u (d, s) ->
           ibank_set ibank (d lsl 3)
             (Int64.of_int (Hilti_types.Hbytes.length (Value.as_bytes (reg frame s))));
           frame.pc <- next
       | CallP_u (callee, arg_regs, apos, vd, d, pd) ->
           let r = call_pos ctx callee frame arg_regs apos in
           setreg frame vd r;
           let base = ctx.ret_base in
           if reg frame d != base then setreg frame d base;
           ibank_set ibank (pd lsl 3) (Int64.of_int ctx.ret_pos);
           frame.pc <- next
       | RetP_u (v, r, p) ->
           let pos = Int64.to_int (ibank_get ibank (p lsl 3)) in
           if pcall then begin
             result := reg frame v;
             ctx.ret_base <- reg frame r;
             ctx.ret_pos <- pos
           end
           else result := Value.Tuple [| reg frame v; iter_value (reg frame r) pos |];
           running := false
     done
     with Value.Hilti_error e when frame.tries <> [] && e.Value.ename <> "Hilti::HookStop" ->
       let handler, exc_reg = List.hd frame.tries in
       frame.tries <- List.tl frame.tries;
       setreg frame exc_reg (Value.Exception e);
       frame.pc <- handler
     done
   with e ->
     release_frame pool frame;
     credit ctx;
     raise e);
  release_frame pool frame;
  credit ctx;
  (match obs with
  | Some ops ->
      Array.iteri
        (fun g n -> if n > 0 then Hilti_obs.Metrics.add m_opgroup.(g) n)
        ops;
      if ops.(bridge_group) > 0 then
        Hilti_obs.Metrics.add m_regbank_transfers ops.(bridge_group);
      Hilti_obs.Metrics.observe m_func_instrs (!instrs - instrs_at_entry)
  | None -> ());
  !result

(* [Read] on a split iterator at offset [pos] of [b], [k] bytes: the bytes
   into [vd], the iterator (base [base], from register [s]) into [d@pd]. *)
and read_at ctx frame base b pos k vd s d pd =
  if k < 0 then raise (Value.value_error "bytes.read: negative length");
  await_bytes ctx b pos k;
  setreg frame vd
    (Value.Bytes (Hilti_types.Hbytes.frozen_of_string (Hilti_types.Hbytes.sub_at b pos (pos + k))));
  if d <> s then setreg frame d base;
  ibank_set frame.ibank (pd lsl 3) (Int64.of_int (pos + k))

(* A parse call ([CallP_u]): as [call_regs], plus each split parameter's
   position straight into the callee's bank — from the caller's bank slot
   in [apos], or read off the boxed argument — entering past the prologue
   that would read them all off the boxed arguments. *)
and call_pos ctx (fidx : int) (caller : frame) (ar : int array) (apos : int array) : Value.t =
  let f = Array.unsafe_get ctx.program.funcs fidx in
  let pool = pool_for ctx fidx f in
  let frame = acquire_frame pool f in
  let regs = frame.regs in
  let k = min (Array.length ar) f.nparams in
  for i = 0 to k - 1 do
    Array.unsafe_set regs i (Array.unsafe_get caller.regs (Array.unsafe_get ar i))
  done;
  default_params f frame k;
  (match f.spec with
  | Some sp ->
      let slots = sp.iter_slot in
      for i = 0 to k - 1 do
        let p = Array.unsafe_get slots i in
        if p >= 0 then begin
          let ap = Array.unsafe_get apos i in
          ibank_set frame.ibank (p lsl 3)
            (if ap >= 0 then ibank_get caller.ibank (ap lsl 3)
             else Int64.of_int (iter_pos (Array.unsafe_get regs i)))
        end
      done;
      frame.pc <- sp.entry_pc
  | None -> ());
  run_frame ctx f pool frame true

(** The body indices of hook [name], in priority order; none if the
    program has no body for it. *)
and hook_bodies ctx name =
  match Hashtbl.find_opt ctx.program.hooks name with Some bodies -> bodies | None -> [||]

(** Run the hook whose [bodies] {!hook_bodies} resolved, from the host
    ([hook.run] in bytecode carries the same indices). *)
and run_hook ctx bodies args =
  try
    for i = 0 to Array.length bodies - 1 do
      ignore (exec_func ctx (Array.unsafe_get bodies i) args)
    done
  with Value.Hilti_error e when e.Value.ename = "Hilti::HookStop" -> ()

(** Schedule bytecode function [callee] on virtual thread [tid]
    ([thread.schedule]).  The caller must have deep-copied [args] already.
    The job runs on [ctx] with [current_thread] set to [tid]. *)
and schedule_job ctx tid callee (args : Value.t list) =
  let label = ctx.program.funcs.(callee).name in
  Hilti_rt.Scheduler.schedule ctx.scheduler tid ~label (fun () ->
      let saved = ctx.current_thread in
      ctx.current_thread <- tid;
      Fun.protect
        ~finally:(fun () -> ctx.current_thread <- saved)
        (fun () -> ignore (exec_func ctx callee args)))

(** The index of the HILTI function [name]; raises [Runtime_error] if the
    program has none. *)
let resolve ctx name =
  match Bytecode.find_func ctx.program name with
  | Some idx -> idx
  | None -> fail "unknown function %s" name

(** Call a HILTI function by name (the generated C-stub entry point). *)
let call ctx name args = exec_func ctx (resolve ctx name) args

(** Run the scheduler until all queued virtual-thread jobs are drained. *)
let run_scheduler ctx = Hilti_rt.Scheduler.run ctx.scheduler

(** Advance the global notion of time on all virtual threads. *)
let advance_time ctx time = Hilti_rt.Scheduler.advance_time ctx.scheduler time
