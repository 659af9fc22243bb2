(** The host application API (§3.4).

    Wraps the full toolchain — validate, link, optimize, lower — and the
    execution context behind the interface a host application sees:
    call exported functions ("C stubs"), register host-side functions that
    HILTI code can call out to, drive suspendable parse functions through
    fibers, exchange values, and run the virtual-thread scheduler. *)

type t = {
  ctx : Vm.context;
  opt_stats : Hilti_passes.Pipeline.stats option;
  spec_stats : Specialize.stats option;  (** [None] with [~specialize:false] *)
  linked : Module_ir.t;
}

exception Compile_error of string list

(** Compile a set of modules into an execution environment.  The lowered
    bytecode always passes the verifier ({!Verify}) before it can run;
    programs it rejects raise [Compile_error].

    @param optimize run the HILTI-level optimization pipeline (default on)
    @param specialize rewrite the verified bytecode onto unboxed int/float
      register banks and fuse hot instruction pairs (default on).  Off, the
      same dispatch loop runs the generic opcodes: the reference
      configuration the differential tests compare specialization against. *)
let compile ?(optimize = true) ?(specialize = true) (modules : Module_ir.t list) : t =
  let linked = Hilti_passes.Linker.link modules in
  (* Validation runs on the linked unit, where cross-module references
     (functions, hooks, globals) are all visible. *)
  (match Validate.check_module linked with
  | [] -> ()
  | errors -> raise (Compile_error errors));
  let opt_stats =
    if optimize then Some (Hilti_passes.Pipeline.optimize linked) else None
  in
  let program = Lower.lower_module linked in
  (try ignore (Verify.verify_exn program)
   with Verify.Verify_error errors -> raise (Compile_error errors));
  let spec_stats = if specialize then Some (Specialize.specialize program) else None in
  let ctx = Vm.create program in
  (* The standard library surface host applications always get. *)
  Vm.register_host ctx "Hilti::print" (fun c args ->
      c.Vm.debug_sink (String.concat ", " (List.map Value.to_string args));
      Value.Null);
  Vm.register_host ctx "Hilti::abort" (fun _ _ ->
      raise (Value.hilti_exception "Hilti::Abort" Value.Null));
  { ctx; opt_stats; spec_stats; linked }

(** Redirect [Hilti::print] / [debug.msg] output (e.g. into a buffer). *)
let set_output t sink = t.ctx.Vm.debug_sink <- sink

(** Register a host ("C") function callable from HILTI code. *)
let register t name fn = Vm.register_host t.ctx name (fun _ args -> fn args)

(** Register a host function that also receives the VM context. *)
let register_ctx t name fn = Vm.register_host t.ctx name fn

(** An exported HILTI function resolved once, for hosts that call it per
    packet: [call_func] skips the by-name lookup [call] makes. *)
type func = Func of int [@@unboxed]

(** Resolve [name]; raises [Vm.Runtime_error] if the program has no such
    function. *)
let func t name = Func (Vm.resolve t.ctx name)

(** Call a resolved function synchronously. *)
let call_func t (Func idx) args = Vm.exec_func t.ctx idx args

(** Call an exported HILTI function by name, synchronously. *)
let call t name args = call_func t (func t name) args

(** The layout of declared struct type [name]: structs the host builds for
    HILTI code must use it (see {!Value.new_struct}). *)
let struct_layout t name = Hashtbl.find_opt t.ctx.Vm.program.Bytecode.layouts name

(** A hook resolved once, for hosts that run it per event: its bodies in
    priority order (none if the program has no body for it). *)
type hook = Hook of int array [@@unboxed]

(** Resolve hook [name]. *)
let hook t name = Hook (Vm.hook_bodies t.ctx name)

(** Run a resolved hook. *)
let run_hook t (Hook bodies) args = Vm.run_hook t.ctx bodies args

(** Abstract-cycle counter (the PAPI stand-in). *)
let cycles t = Vm.instr_count t.ctx

(** Hang guard: after [n] more retired instructions the dispatch loop
    raises [Vm.Step_budget_exceeded] (a raw OCaml exception that generated
    try-handlers cannot catch).  [clear_step_budget] turns it off. *)
let set_step_budget t n = t.ctx.Vm.step_kill <- !(t.ctx.Vm.instrs) + n

let clear_step_budget t = t.ctx.Vm.step_kill <- max_int

(* ---- Fibers: incremental processing entry points -------------------------- *)

type parse_run = {
  fiber : Value.t Hilti_rt.Fiber.t;
  mutable outcome : Value.t Hilti_rt.Fiber.outcome option;
}

(** Start resolved function [f] inside a fresh fiber.  The call runs
    until it returns, fails, or suspends waiting for input (any blocking
    operation). *)
let call_fiber t f args : parse_run =
  let fiber = Hilti_rt.Fiber.create (fun () -> call_func t f args) in
  let run = { fiber; outcome = None } in
  run.outcome <- Some (Hilti_rt.Fiber.resume fiber);
  run

(** Resume a suspended run (after appending more input to the bytes object
    the parser is reading). *)
let resume (run : parse_run) =
  match run.outcome with
  | Some Hilti_rt.Fiber.Suspended ->
      run.outcome <- Some (Hilti_rt.Fiber.resume run.fiber);
      run.outcome
  | other -> other

let outcome (run : parse_run) = run.outcome

let finished (run : parse_run) =
  match run.outcome with
  | Some (Hilti_rt.Fiber.Done _) | Some (Hilti_rt.Fiber.Failed _) -> true
  | _ -> false

(** Result value, once finished.  Raises the fiber's failure if it failed. *)
let result_exn (run : parse_run) =
  match run.outcome with
  | Some (Hilti_rt.Fiber.Done v) -> v
  | Some (Hilti_rt.Fiber.Failed e) -> raise e
  | _ -> invalid_arg "Host_api.result_exn: still suspended"

let cancel (run : parse_run) = Hilti_rt.Fiber.cancel run.fiber

(* ---- Threads ---------------------------------------------------------------- *)

(** Schedule an asynchronous invocation of a HILTI function on virtual
    thread [tid] ([thread.schedule] from the host side).  Arguments are
    deep-copied, preserving the isolation model of §3.2. *)
let schedule t tid name args =
  let (Func idx) = func t name in
  (* Copy at schedule time, as [thread.schedule] does: the sender can keep
     mutating its own data afterwards. *)
  Vm.schedule_job t.ctx tid idx (List.map Value.deep_copy args)

(** Schedule an arbitrary host-side closure on virtual thread [tid].  [fn]
    receives the execution context with [current_thread] set to [tid]. *)
let schedule_host t tid ~label fn =
  Hilti_rt.Scheduler.schedule t.ctx.Vm.scheduler tid ~label (fun () ->
      let ctx = t.ctx in
      let saved = ctx.Vm.current_thread in
      ctx.Vm.current_thread <- tid;
      Fun.protect
        ~finally:(fun () -> ctx.Vm.current_thread <- saved)
        (fun () -> fn ctx))

(** The virtual thread currently executing (for host callbacks). *)
let current_thread t = t.ctx.Vm.current_thread

(** Drain all scheduled virtual-thread jobs. *)
let run_scheduler t = Vm.run_scheduler t.ctx

(** Advance trace time across every virtual thread's timer manager. *)
let advance_time t time = Vm.advance_time t.ctx time

let scheduler_stats t = Hilti_rt.Scheduler.stats t.ctx.Vm.scheduler

(** Static size of the lowered program, for reporting. *)
let code_size t = Bytecode.code_size t.ctx.Vm.program
