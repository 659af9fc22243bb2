(** Interprocedural call-graph construction and bottom-up effect
    summaries over lowered programs (the paper's §5 claim that a typed IR
    makes global analysis of traffic-analysis programs tractable).

    For every bytecode function this module computes an {e effect
    vector}: the global slots it reads and writes, the host-API functions
    it calls (classified through the audited {!Hilti_passes.Effects}
    table), its allocation sites, the timers it registers or advances,
    and whether it can suspend, schedule work or call through a callable.
    Summaries are transitive over the {e synchronous} call graph (direct
    [Call]s plus [HookRun] targets, which execute inline) and are solved
    bottom-up with the generic {!Hilti_passes.Fixpoint} driver, so mutual
    recursion converges without special casing.  Asynchronous edges
    ([Bind], [Schedule], timer callables) are kept separate: their
    targets run in a later activation, which is exactly the distinction
    the static shard-race detector ([Hilti_analysis.Racecheck]) needs.

    {!reset_regs}, a per-function analysis, serves the VM: which
    registers a recycled frame must restore before an activation runs in
    it. *)

module IntSet = Set.Make (Int)
module StrSet = Set.Make (String)

module SiteSet = Set.Make (struct
  type t = int * int (* func idx, pc *)

  let compare = compare
end)

module Effects = Hilti_passes.Effects

(* ---- The effect vector -------------------------------------------------- *)

type t = {
  reads_globals : IntSet.t;    (** global slots loaded *)
  writes_globals : IntSet.t;   (** global slots stored *)
  host_calls : StrSet.t;       (** host-API functions called (CallC) *)
  allocs : SiteSet.t;          (** P_new sites, as (func idx, pc) *)
  emits_events : bool;         (** calls a host fn audited [Emits_event] *)
  does_io : bool;              (** calls a host fn audited [Io] *)
  reads_host_state : bool;     (** host fn audited [Reads_global] *)
  writes_host_state : bool;    (** host fn audited [Writes_global] *)
  unknown_host : bool;         (** calls a host fn missing from the table *)
  runs_hooks : bool;           (** HookRun (synchronous hook dispatch) *)
  registers_timers : bool;     (** timer.new / timer_mgr.schedule / container timeouts *)
  advances_timers : bool;      (** timer_mgr.advance/advance_global/expire_all *)
  schedules : bool;            (** thread.schedule (async, deep-copied args) *)
  binds : bool;                (** callable.bind (captures values for later) *)
  calls_indirect : bool;       (** callable.call — statically unknown target *)
  may_suspend : bool;          (** yield or a blocking primitive *)
  throws : bool;               (** explicit throw *)
}

let bottom =
  {
    reads_globals = IntSet.empty;
    writes_globals = IntSet.empty;
    host_calls = StrSet.empty;
    allocs = SiteSet.empty;
    emits_events = false;
    does_io = false;
    reads_host_state = false;
    writes_host_state = false;
    unknown_host = false;
    runs_hooks = false;
    registers_timers = false;
    advances_timers = false;
    schedules = false;
    binds = false;
    calls_indirect = false;
    may_suspend = false;
    throws = false;
  }

let join a b =
  {
    reads_globals = IntSet.union a.reads_globals b.reads_globals;
    writes_globals = IntSet.union a.writes_globals b.writes_globals;
    host_calls = StrSet.union a.host_calls b.host_calls;
    allocs = SiteSet.union a.allocs b.allocs;
    emits_events = a.emits_events || b.emits_events;
    does_io = a.does_io || b.does_io;
    reads_host_state = a.reads_host_state || b.reads_host_state;
    writes_host_state = a.writes_host_state || b.writes_host_state;
    unknown_host = a.unknown_host || b.unknown_host;
    runs_hooks = a.runs_hooks || b.runs_hooks;
    registers_timers = a.registers_timers || b.registers_timers;
    advances_timers = a.advances_timers || b.advances_timers;
    schedules = a.schedules || b.schedules;
    binds = a.binds || b.binds;
    calls_indirect = a.calls_indirect || b.calls_indirect;
    may_suspend = a.may_suspend || b.may_suspend;
    throws = a.throws || b.throws;
  }

let equal a b =
  IntSet.equal a.reads_globals b.reads_globals
  && IntSet.equal a.writes_globals b.writes_globals
  && StrSet.equal a.host_calls b.host_calls
  && SiteSet.equal a.allocs b.allocs
  && a.emits_events = b.emits_events
  && a.does_io = b.does_io
  && a.reads_host_state = b.reads_host_state
  && a.writes_host_state = b.writes_host_state
  && a.unknown_host = b.unknown_host
  && a.runs_hooks = b.runs_hooks
  && a.registers_timers = b.registers_timers
  && a.advances_timers = b.advances_timers
  && a.schedules = b.schedules
  && a.binds = b.binds
  && a.calls_indirect = b.calls_indirect
  && a.may_suspend = b.may_suspend
  && a.throws = b.throws

(* ---- Instruction classification ----------------------------------------- *)

(* Primitives that can suspend the enclosing fiber waiting for input (the
   [blocking] wrapper and the incremental token matcher in {!Vm}), plus
   [yield] itself at the instruction level.  A function containing one may
   have two activations interleaved on one domain. *)
let prim_may_suspend (p : Bytecode.prim) =
  match p with
  | Bytecode.P_bytes
      Bytecode.B_match_prefix ->
      true
  | Bytecode.P_iter Bytecode.I_deref -> true
  | Bytecode.P_channel (Bytecode.CH_write | Bytecode.CH_read) -> true
  | Bytecode.P_overlay_get _ -> true
  | Bytecode.P_regexp Bytecode.RE_match_token -> true
  | _ -> false

let prim_registers_timer (p : Bytecode.prim) =
  match p with
  | Bytecode.P_timer_new | Bytecode.P_timer_mgr_schedule -> true
  | Bytecode.P_set Bytecode.SE_timeout | Bytecode.P_map Bytecode.M_timeout -> true
  | _ -> false

let prim_advances_timers (p : Bytecode.prim) =
  match p with
  | Bytecode.P_timer_mgr_advance | Bytecode.P_timer_mgr_advance_global
  | Bytecode.P_timer_mgr_expire_all ->
      true
  | _ -> false

(* ---- Call graph ---------------------------------------------------------- *)

type callgraph = {
  sync_succs : int list array;
      (** [Call] targets plus [HookRun] hook bodies: run inline, inside
          the caller's activation *)
  async_succs : int list array;
      (** [Bind] and [Schedule] targets: captured now, run in a later
          activation (possibly from a timer, possibly on another shard) *)
  host_sites : (string * int) list array;
      (** host-API call sites per function: (name, pc) *)
}

let callgraph (p : Bytecode.program) : callgraph =
  let n = Array.length p.Bytecode.funcs in
  let sync = Array.make n [] and async = Array.make n [] and hosts = Array.make n [] in
  let add arr i j = if not (List.mem j arr.(i)) then arr.(i) <- j :: arr.(i) in
  Array.iteri
    (fun i (f : Bytecode.func) ->
      Array.iteri
        (fun pc instr ->
          match instr with
          | Bytecode.Call (callee, _, _) -> add sync i callee
          | Bytecode.HookRun (bodies, _) -> Array.iter (add sync i) bodies
          | Bytecode.Bind (callee, _, _) | Bytecode.Schedule (callee, _, _) ->
              add async i callee
          | Bytecode.CallC (h, _, _) ->
              hosts.(i) <- (p.Bytecode.host_names.(h), pc) :: hosts.(i)
          | _ -> ())
        f.Bytecode.code)
    p.Bytecode.funcs;
  { sync_succs = sync; async_succs = async; host_sites = hosts }

(* ---- Per-function local effects ------------------------------------------ *)

let local_summary (p : Bytecode.program) (fidx : int) : t =
  let f = p.Bytecode.funcs.(fidx) in
  let acc = ref bottom in
  let upd g = acc := g !acc in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Bytecode.LoadGlobal (_, slot) ->
          upd (fun s -> { s with reads_globals = IntSet.add slot s.reads_globals })
      | Bytecode.StoreGlobal (slot, _) ->
          upd (fun s -> { s with writes_globals = IntSet.add slot s.writes_globals })
      | Bytecode.CallC (h, _, _) ->
          let name = p.Bytecode.host_names.(h) in
          upd (fun s ->
              let s = { s with host_calls = StrSet.add name s.host_calls } in
              match Effects.host_effects name with
              | None -> { s with unknown_host = true }
              | Some h ->
                  let has c = List.mem c h.Effects.hf_effects in
                  {
                    s with
                    emits_events = s.emits_events || has Effects.Emits_event;
                    does_io = s.does_io || has Effects.Io;
                    reads_host_state = s.reads_host_state || has Effects.Reads_global;
                    writes_host_state = s.writes_host_state || has Effects.Writes_global;
                    calls_indirect = s.calls_indirect || h.Effects.hf_reenters_vm;
                  })
      | Bytecode.HookRun _ -> upd (fun s -> { s with runs_hooks = true })
      | Bytecode.Schedule _ -> upd (fun s -> { s with schedules = true })
      | Bytecode.Bind _ -> upd (fun s -> { s with binds = true })
      (* [Unpack] and [Read] block for input like the suspending primitives. *)
      | Bytecode.Yield | Bytecode.Unpack _ | Bytecode.UnpackI_u _ | Bytecode.Read _ ->
          upd (fun s -> { s with may_suspend = true })
      | Bytecode.Throw _ -> upd (fun s -> { s with throws = true })
      | Bytecode.Prim (prim, _, _) ->
          upd (fun s ->
              let s =
                match prim with
                | Bytecode.P_new _ ->
                    { s with allocs = SiteSet.add (fidx, pc) s.allocs }
                | Bytecode.P_callable_call -> { s with calls_indirect = true }
                | _ -> s
              in
              {
                s with
                may_suspend = s.may_suspend || prim_may_suspend prim;
                registers_timers = s.registers_timers || prim_registers_timer prim;
                advances_timers = s.advances_timers || prim_advances_timers prim;
              })
      | _ -> ())
    f.Bytecode.code;
  !acc

(* ---- Bottom-up interprocedural solve ------------------------------------- *)

module L = struct
  type nonrec t = t

  let bottom = bottom
  let equal = equal
  let join = join
end

module Solver = Hilti_passes.Fixpoint.Make (L)

type program_summary = {
  prog : Bytecode.program;
  cg : callgraph;
  local : t array;      (** each function's own effects *)
  total : t array;
      (** transitive closure over synchronous edges: what an activation of
          the function can do before it returns *)
  recursive : bool array;
      (** function can reach itself over synchronous edges — a second
          activation can be live while the first still is *)
}

let compute (p : Bytecode.program) : program_summary =
  let n = Array.length p.Bytecode.funcs in
  let cg = callgraph p in
  let local = Array.init n (local_summary p) in
  let solved =
    Solver.solve ~n
      ~deps:(fun i -> cg.sync_succs.(i))
      ~transfer:(fun i get ->
        List.fold_left (fun acc j -> join acc (get j)) local.(i) cg.sync_succs.(i))
  in
  let total = Array.init n solved in
  let recursive =
    Array.init n (fun i ->
        let from_callees =
          Hilti_passes.Fixpoint.reachable ~n
            ~succs:(fun j -> cg.sync_succs.(j))
            cg.sync_succs.(i)
        in
        from_callees.(i))
  in
  { prog = p; cg; local; total; recursive }

(** Functions reachable (synchronously) from the named entry points —
    the "packet path" of the shard-race rules. *)
let reachable_from (s : program_summary) (entries : int list) : bool array =
  Hilti_passes.Fixpoint.reachable
    ~n:(Array.length s.prog.Bytecode.funcs)
    ~succs:(fun i -> s.cg.sync_succs.(i))
    entries

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
let reset_regs (f : Bytecode.func) : int array * int array =
  let n = max f.Bytecode.nregs 1 in
  let code = f.Bytecode.code in
  let len = Array.length code in
  let writes (i : Bytecode.instr) =
    match i with
    | Bytecode.TryPush (_, r) -> [ r ]
    | i -> Specialize.boxed_defs i
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
    | Bytecode.TryPush (h, r) ->
        (* [r] is written on the exception edge only. *)
        let hs = Bytes.copy st in
        set hs r;
        flow h hs
    | _ ->
        List.iter (set st) (writes i);
        List.iter (fun t -> flow t st) (Specialize.targets_of i));
    match i with
    | Bytecode.Jump _ | Bytecode.Br _ | Bytecode.Switch _ | Bytecode.Ret _ | Bytecode.Throw _
    | Bytecode.IIncrJ_u _ | Bytecode.IBrCmp_u _ | Bytecode.IBrCmpK_u _ | Bytecode.FBrCmp_u _ ->
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
            (Specialize.boxed_reads i)
      | None -> ())
    code;
  let pick keep =
    Array.of_list (List.filter (fun r -> r >= f.Bytecode.nparams && keep r) (List.init n Fun.id))
  in
  (pick (fun r -> reset.(r)), pick (fun r -> written.(r) && not reset.(r)))
