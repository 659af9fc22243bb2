(** Static shard-race detector.

    The sharded data plane promises byte-identical output to serial
    execution, which holds only if nothing a packet-path activation does
    can be observed by an activation on another shard.  This pass turns
    that promise from convention into a checked property: given the
    program's {e sharded entry points} (the functions the dispatcher calls
    once per packet, e.g. a grammar's exported [parse_*] or a firewall's
    [match_packet]), it walks their synchronous call-graph closure — the
    {e packet path}: direct [Call]s plus [HookRun] bodies, which run
    inside the caller's activation — and flags every operation whose
    effect can cross a shard boundary:

    - [race/global-write]: a direct global store on the packet path, or a
      mutation of a global-reachable container that is not {e flow-keyed}
      (every key/value operand derived from the enclosing function's
      parameters and constants, at least one from a parameter — shard
      dispatch hashes the flow key, so flow-keyed entries are only ever
      touched by one shard).  Globals written only during setup
      (functions not reachable from any sharded entry) are fine.
    - [race/timer-cross-shard]: the packet path binds or schedules a
      callable from whose target a {e local writer} is synchronously
      reachable — a function that stores a global, mutates a
      global-reachable container as the previous rule flags, or calls a
      host function missing from the audit list.  When the timer fires or
      the job runs, it may execute on a different domain than the one
      that created it.
    - [race/hostapi-shared]: the packet path calls a host-API function
      missing from {!audited_hosts}.  Event emission and I/O are fine:
      the collector replays per-flow event logs serially.

    Reads are never flagged — read-only-after-setup globals (compiled
    regexps, classifier rule tables) are exactly the sharing the paper's
    model permits. *)

module Bytecode = Hilti_vm.Bytecode

type race = {
  r_rule : string;   (** [race/global-write] etc. *)
  r_func : string;   (** packet-path function containing the operation *)
  r_pc : int;        (** bytecode pc of the flagged instruction *)
  r_msg : string;
}

(* ---- Flow-key taint -------------------------------------------------------- *)

(* What a register's value may be derived from, ordered so that a register
   written from several sources takes the [max]: nothing yet, constants,
   [f]'s parameters (and constants), or anything else. *)
let unwritten = 0
let constant = 1
let from_params = 2
let poisoned = 3

(* The level of every register of [f] — a shard-symmetric flow key is
   built from the parameters.  Fixpoint over the instruction array
   (flow-insensitive: a register reused for a param-derived and a
   global-derived value is poisoned). *)
let param_levels (f : Bytecode.func) : int array =
  let n = Array.length f.reg_defaults in
  (* Seed: parameters, plus every register initialized at entry — those
     hold constants (the lowering's constant pool and typed local
     defaults). *)
  let regs =
    Array.init n (fun i ->
        if i < f.Bytecode.nparams then from_params
        else if i < Array.length f.Bytecode.entry_init && f.Bytecode.entry_init.(i) then constant
        else unwritten)
  in
  (* Specialized code moves scalars through the unboxed int/float banks,
     whose templates hold constants; tracking them lets a level survive
     an unbox/box round trip. *)
  let ni, nf =
    match f.Bytecode.spec with
    | Some sp -> (sp.Bytecode.n_int, sp.Bytecode.n_float)
    | None -> (0, 0)
  in
  let ib = Array.make (max ni 1) constant and fb = Array.make (max nf 1) constant in
  let changed = ref true in
  let get bank r = if r < 0 then constant else if r < Array.length bank then bank.(r) else poisoned in
  let set bank d l =
    if d >= 0 && d < Array.length bank && l > bank.(d) then begin
      bank.(d) <- l;
      changed := true
    end
  in
  let r = get regs and i = get ib and fl = get fb in
  let set_r = set regs and set_i = set ib and set_f = set fb in
  while !changed do
    changed := false;
    Array.iter
      (fun instr ->
        match instr with
        | Bytecode.Const (d, _) -> set_r d constant
        | Bytecode.Mov (d, s) -> set_r d (r s)
        | Bytecode.LoadGlobal (d, _)
        | Bytecode.Call (_, _, d)
        | Bytecode.CallC (_, _, d)
        | Bytecode.Bind (_, _, d)
        | Bytecode.Prim (Bytecode.P_new _, _, d) ->
            set_r d poisoned
        | Bytecode.Prim (_, args, d) ->
            set_r d (Array.fold_left (fun l a -> max l (r a)) constant args)
        | Bytecode.Unpack (_, s, v, it) ->
            set_r v (r s);
            set_r it (r s)
        | Bytecode.Read (s, n, v, it) ->
            set_r v (max (r s) (r n));
            set_r it (max (r s) (r n))
        | Bytecode.UnpackI_u (_, s, v, it) ->
            set_i v (r s);
            set_r it (r s)
        | Bytecode.IConst_u (d, _) -> set_i d constant
        | Bytecode.IMov_u (d, s) -> set_i d (i s)
        | Bytecode.UnboxI (d, s) -> set_i d (r s)
        | Bytecode.BoxI (d, s) -> set_r d (i s)
        | Bytecode.IArith_u (_, _, d, a, b) -> set_i d (max (i a) (i b))
        | Bytecode.IArithK_u (_, _, d, a, _) -> set_i d (i a)
        | Bytecode.ICmp_u (_, d, a, b) -> set_r d (max (i a) (i b))
        | Bytecode.ICmpK_u (_, d, a, _) -> set_r d (i a)
        | Bytecode.FConst_u (d, _) -> set_f d constant
        | Bytecode.FMov_u (d, s) -> set_f d (fl s)
        | Bytecode.UnboxF (d, s) -> set_f d (r s)
        | Bytecode.BoxF (d, s) -> set_r d (fl s)
        | Bytecode.FArith_u (_, d, a, b) -> set_f d (max (fl a) (fl b))
        | Bytecode.FCmp_u (_, d, a, b) -> set_r d (max (fl a) (fl b))
        (* Split iterators: a base register plus a position slot. *)
        | Bytecode.IPos_u (p, s) -> set_i p (r s)
        | Bytecode.IterBox_u (s, p) -> set_r s (max (r s) (i p))
        | Bytecode.PUnpack_u (_, s, ps, v, d, pd) | Bytecode.PUnpackI_u (_, s, ps, v, d, pd) ->
            let l = max (r s) (i ps) in
            (match instr with Bytecode.PUnpackI_u _ -> set_i v l | _ -> set_r v l);
            set_r d l;
            set_i pd l
        | Bytecode.PRead_u (s, ps, n, v, d, pd) | Bytecode.PReadR_u (s, ps, n, v, d, pd) ->
            let ln = match instr with Bytecode.PRead_u _ -> i n | _ -> r n in
            let l = max (max (r s) (i ps)) ln in
            set_r v l;
            set_r d l;
            set_i pd l
        | Bytecode.PAdvance_u (d, pd, s, ps, n) ->
            let l = max (max (r s) (i ps)) (i n) in
            set_r d l;
            set_i pd l
        | Bytecode.PAtEnd_u (d, s, ps) -> set_r d (max (r s) (i ps))
        | Bytecode.PDistance_u (d, a, pa, b, pb) ->
            set_i d (max (max (r a) (i pa)) (max (r b) (i pb)))
        | Bytecode.BLength_u (d, s) -> set_i d (r s)
        | Bytecode.CallP_u (_, _, _, v, d, pd) ->
            set_r v poisoned;
            set_r d poisoned;
            set_i pd poisoned
        | _ -> ())
      f.Bytecode.code
  done;
  regs

(* Mutating container primitives: the packet path may apply them to a
   global-reachable container only flow-keyed. *)
let mutates_container (p : Bytecode.prim) =
  match p with
  | Bytecode.P_list
      (Bytecode.L_append | Bytecode.L_push_front | Bytecode.L_pop_front
      | Bytecode.L_clear) ->
      true
  | Bytecode.P_vector
      (Bytecode.V_push_back | Bytecode.V_set | Bytecode.V_clear
      | Bytecode.V_pop_back) ->
      true
  | Bytecode.P_set
      (Bytecode.SE_insert | Bytecode.SE_remove | Bytecode.SE_clear) ->
      true
  | Bytecode.P_map
      (Bytecode.M_insert | Bytecode.M_remove | Bytecode.M_clear) ->
      true
  | Bytecode.P_struct ((Bytecode.ST_set | Bytecode.ST_unset), _, _) -> true
  | Bytecode.P_classifier (Bytecode.CL_add | Bytecode.CL_compile) -> true
  | _ -> false

(* Registers that may hold a global-reachable value: loaded from a global
   slot, or read out of such a value.  Flow-insensitive union — a false
   positive here only demands that a mutation be flow-keyed. *)
let global_derived (f : Bytecode.func) : bool array =
  let n = Array.length f.reg_defaults in
  let g = Array.make n false in
  let changed = ref true in
  let mark d v = if d >= 0 && d < n && v && not g.(d) then begin g.(d) <- true; changed := true end in
  let is r = r >= 0 && r < n && g.(r) in
  while !changed do
    changed := false;
    Array.iter
      (fun instr ->
        match instr with
        | Bytecode.LoadGlobal (d, _) -> mark d true
        | Bytecode.Mov (d, s) -> mark d (is s)
        | Bytecode.Unpack (_, s, v, it) ->
            mark v (is s);
            mark it (is s)
        | Bytecode.Read (s, n, v, it) ->
            mark v (is s || is n);
            mark it (is s || is n)
        | Bytecode.UnpackI_u (_, s, _, it) -> mark it (is s)
        | Bytecode.PUnpack_u (_, s, _, v, it, _) | Bytecode.PRead_u (s, _, _, v, it, _) ->
            mark v (is s);
            mark it (is s)
        | Bytecode.PReadR_u (s, _, n, v, it, _) ->
            mark v (is s || is n);
            mark it (is s || is n)
        | Bytecode.PUnpackI_u (_, s, _, _, it, _) | Bytecode.PAdvance_u (it, _, s, _, _) ->
            mark it (is s)
        | Bytecode.Prim (p, args, d) -> (
            match p with
            | Bytecode.P_list (Bytecode.L_front | Bytecode.L_back)
            | Bytecode.P_vector Bytecode.V_get
            | Bytecode.P_map (Bytecode.M_get | Bytecode.M_get_default)
            | Bytecode.P_struct
                ((Bytecode.ST_get | Bytecode.ST_get_default), _, _)
            | Bytecode.P_classifier Bytecode.CL_get
            | Bytecode.P_select | Bytecode.P_make_tuple
            | Bytecode.P_tuple_get _ ->
                mark d (Array.exists is args)
            | _ -> ())
        | _ -> ())
      f.Bytecode.code
  done;
  g

(* The pcs at which [f] mutates a global-reachable container under a key
   that is not flow-keyed.  A flow key is derived from [f]'s parameters
   and constants, with at least one parameter in it: shard dispatch
   hashes the flow key, so a flow-keyed entry is only ever touched by one
   shard, while a constant key names the same entry on every shard. *)
let unkeyed_container_writes (f : Bytecode.func) : int list =
  let levels = lazy (param_levels f) and globalish = lazy (global_derived f) in
  let level r =
    let l = Lazy.force levels in
    if r >= 0 && r < Array.length l then l.(r) else poisoned
  in
  let flow_keyed keys =
    Array.exists (fun r -> level r = from_params) keys
    && Array.for_all (fun r -> level r <= from_params && level r >= constant) keys
  in
  let pcs = ref [] in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Bytecode.Prim (prim, args, _)
        when mutates_container prim
             && Array.length args > 0
             && (Lazy.force globalish).(args.(0))
             && not (flow_keyed (Array.sub args 1 (Array.length args - 1))) ->
          pcs := pc :: !pcs
      | _ -> ())
    f.Bytecode.code;
  List.rev !pcs

(* ---- Host audit ------------------------------------------------------------- *)

(** The host functions a shipped component registers, each audited by
    hand as writing no state shared between shards.  Test- and bench-only
    helpers (the Host::, Par:: and Bench:: families) are left out
    deliberately: a call to any host function not listed here is assumed
    to write shared state. *)
let audited_hosts =
  [ "Hilti::print";        (* writes the terminal *)
    "Hilti::abort";        (* raises Hilti::Abort; retains nothing *)
    "Bro::print";          (* writes the terminal *)
    "Bro::fmt";            (* pure in its arguments *)
    "Bro::cat";            (* pure in its arguments *)
    "Bro::to_count";       (* pure in its arguments *)
    "Bro::sha1";           (* pure in its arguments *)
    "Bro::join";           (* pure in its arguments *)
    "Bro::network_time";   (* reads the network clock; writes nothing *)
    "Bro::log_write";      (* appends to the per-flow log, replayed serially *)
    "Bro::queue_event";    (* appends to the per-flow event queue *)
    (* The BinPAC++ hook bridge: every analyzer's unit hooks call it, and
       the session's handler turns the unit into events. *)
    "BinPAC::hook" ]

(* ---- Call graph ------------------------------------------------------------ *)

(* Each function's synchronous callees: [Call] and [CallP_u] targets plus
   [HookRun] hook bodies, which run inside the caller's activation. *)
let sync_succs (p : Bytecode.program) : int list array =
  Array.map
    (fun (f : Bytecode.func) ->
      Array.fold_left
        (fun acc instr ->
          match instr with
          | Bytecode.Call (callee, _, _) | Bytecode.CallP_u (callee, _, _, _, _, _) ->
              callee :: acc
          | Bytecode.HookRun (bodies, _) -> Array.to_list bodies @ acc
          | _ -> acc)
        [] f.Bytecode.code)
    p.Bytecode.funcs

(* Every function reachable from [roots] over [succs] (roots included). *)
let reachable (succs : int list array) (roots : int list) : bool array =
  let n = Array.length succs in
  let seen = Array.make n false in
  let rec go i =
    if i >= 0 && i < n && not seen.(i) then begin
      seen.(i) <- true;
      List.iter go succs.(i)
    end
  in
  List.iter go roots;
  seen

(* The first function reachable from [root] over [succs] (depth first,
   [root] included) for which [hit] gives [Some x], with [x]. *)
let find_reachable (succs : int list array) hit root =
  let seen = Array.make (Array.length succs) false in
  let rec go i =
    if i < 0 || i >= Array.length succs || seen.(i) then None
    else begin
      seen.(i) <- true;
      match hit i with Some x -> Some (i, x) | None -> List.find_map go succs.(i)
    end
  in
  go root

let audited name = List.mem name audited_hosts

(* Why [f]'s own code may write state another shard sees, if it does: its
   first global store, unaudited host call, or container mutation that
   the packet-path rule flags (the pcs [unkeyed]). *)
let write_reason (p : Bytecode.program) (f : Bytecode.func) ~unkeyed : string option =
  Array.find_mapi
    (fun pc instr ->
      match instr with
      | Bytecode.StoreGlobal (slot, _) ->
          Some (Printf.sprintf "stores global '%s'" p.Bytecode.globals.(slot))
      | Bytecode.CallC (h, _, _) when not (audited p.Bytecode.host_names.(h)) ->
          Some (Printf.sprintf "calls unaudited host function '%s'" p.Bytecode.host_names.(h))
      | _ when List.mem pc unkeyed ->
          Some "mutates a global container under a key not derived from its parameters"
      | _ -> None)
    f.Bytecode.code

(* ---- The detector ----------------------------------------------------------- *)

(** Run the detector.  [shard_entries] names the functions the sharded
    dispatcher invokes per packet; unknown names are ignored (a unit
    without the entry simply has no packet path).  Results are sorted
    (rule, func, pc). *)
let check (p : Bytecode.program) ~(shard_entries : string list) : race list =
  let entries =
    List.filter_map (fun n -> Bytecode.find_func p n) shard_entries
  in
  if entries = [] then []
  else begin
    let succs = sync_succs p in
    let on_path = reachable succs entries in
    let unkeyed = Array.map unkeyed_container_writes p.Bytecode.funcs in
    let reasons =
      Array.mapi (fun fi f -> write_reason p f ~unkeyed:unkeyed.(fi)) p.Bytecode.funcs
    in
    let races = ref [] in
    let flag rule fi pc msg =
      races :=
        { r_rule = rule; r_func = p.Bytecode.funcs.(fi).Bytecode.name; r_pc = pc; r_msg = msg }
        :: !races
    in
    Array.iteri
      (fun fi (f : Bytecode.func) ->
        if on_path.(fi) then begin
          List.iter
            (fun pc ->
              flag "race/global-write" fi pc
                "global container mutated with a key not derived from the flow parameters")
            unkeyed.(fi);
          Array.iteri
            (fun pc instr ->
              match instr with
              | Bytecode.StoreGlobal (slot, _) ->
                  flag "race/global-write" fi pc
                    (Printf.sprintf
                       "global '%s' is written on the sharded packet path"
                       p.Bytecode.globals.(slot))
              | Bytecode.Bind (callee, _, _) | Bytecode.Schedule (callee, _, _) -> (
                  match find_reachable succs (fun i -> reasons.(i)) callee with
                  | Some (wi, why) ->
                      flag "race/timer-cross-shard" fi pc
                        (Printf.sprintf
                           "deferred call to '%s' may fire on a different shard, and '%s' %s"
                           p.Bytecode.funcs.(callee).Bytecode.name
                           p.Bytecode.funcs.(wi).Bytecode.name why)
                  | None -> ())
              | Bytecode.CallC (h, _, _) ->
                  let name = p.Bytecode.host_names.(h) in
                  if not (audited name) then
                    flag "race/hostapi-shared" fi pc
                      (Printf.sprintf "host function '%s' is not in Racecheck.audited_hosts"
                         name)
              | _ -> ())
            f.Bytecode.code
        end)
      p.Bytecode.funcs;
    List.sort compare !races
  end
