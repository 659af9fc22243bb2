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
      parameters — shard dispatch hashes the flow key, so flow-keyed
      entries are only ever touched by one shard).  Globals written only
      during setup (functions not reachable from any sharded entry) are
      fine.
    - [race/timer-cross-shard]: the packet path binds or schedules a
      callable from whose target a {e local writer} is synchronously
      reachable — a function that stores a global or calls a host
      function missing from the audit list.  When the timer fires or the
      job runs, it may execute on a different domain than the one that
      created it.
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

(* Registers of [f] whose value is derived only from [f]'s parameters and
   constants — the operands a shard-symmetric flow key can be built from.
   Fixpoint over the instruction array (flow-insensitive, which
   over-approximates reachability of definitions and therefore
   under-approximates taint only when a register is reused for both a
   param-derived and a global-derived value — in that case it correctly
   drops out of the taint set). *)
let param_derived (f : Bytecode.func) : bool array =
  let n = Array.length f.reg_defaults in
  let derived = Array.make n false in
  let poisoned = Array.make n false in
  (* Seed: parameters, plus every register initialized at entry — those
     hold constants (the lowering's constant pool and typed local
     defaults); a later write from a non-derived source poisons them. *)
  for i = 0 to n - 1 do
    if i < f.Bytecode.nparams || (i < Array.length f.Bytecode.entry_init && f.Bytecode.entry_init.(i))
    then derived.(i) <- true
  done;
  let changed = ref true in
  let ok r = r < 0 || (r < n && derived.(r) && not (poisoned.(r))) in
  let set d v =
    if d >= 0 && d < n then begin
      if v then begin
        if (not poisoned.(d)) && not derived.(d) then begin
          derived.(d) <- true;
          changed := true
        end
      end
      else if not poisoned.(d) then begin
        poisoned.(d) <- true;
        if derived.(d) then derived.(d) <- false;
        changed := true
      end
    end
  in
  (* Specialized code moves scalars through the unboxed int/float banks;
     track them with the same seed (bank templates hold constants) and
     poison semantics so derivedness survives an unbox/box round trip. *)
  let ni, nf =
    match f.Bytecode.spec with
    | Some sp -> (sp.Bytecode.n_int, sp.Bytecode.n_float)
    | None -> (0, 0)
  in
  let mk_bank k = (Array.make (max k 1) true, Array.make (max k 1) false) in
  let ib, ibp = mk_bank ni and fb, fbp = mk_bank nf in
  let bok (b, bp) i = i >= 0 && i < Array.length b && b.(i) && not bp.(i) in
  let bset (b, bp) d v =
    if d >= 0 && d < Array.length b then begin
      if v then begin
        if (not bp.(d)) && not b.(d) then begin
          b.(d) <- true;
          changed := true
        end
      end
      else if not bp.(d) then begin
        bp.(d) <- true;
        if b.(d) then b.(d) <- false;
        changed := true
      end
    end
  in
  let iok = bok (ib, ibp) and iset = bset (ib, ibp) in
  let fok = bok (fb, fbp) and fset = bset (fb, fbp) in
  while !changed do
    changed := false;
    Array.iter
      (fun instr ->
        match instr with
        | Bytecode.Const (d, _) -> set d true
        | Bytecode.Mov (d, s) -> set d (ok s)
        | Bytecode.LoadGlobal (d, _) -> set d false
        | Bytecode.Call (_, _, d) | Bytecode.CallC (_, _, d) -> set d false
        | Bytecode.Bind (_, _, d) -> set d false
        | Bytecode.Prim (p, args, d) -> (
            match p with
            | Bytecode.P_new _ -> set d false
            | _ -> set d (Array.for_all ok args))
        | Bytecode.Unpack (_, s, v, it) ->
            set v (ok s);
            set it (ok s)
        | Bytecode.Read (s, n, v, it) ->
            set v (ok s && ok n);
            set it (ok s && ok n)
        | Bytecode.UnpackI_u (_, s, v, it) ->
            iset v (ok s);
            set it (ok s)
        | Bytecode.IConst_u (d, _) -> iset d true
        | Bytecode.IMov_u (d, s) -> iset d (iok s)
        | Bytecode.UnboxI (d, s) -> iset d (ok s)
        | Bytecode.BoxI (d, s) -> set d (iok s)
        | Bytecode.IArith_u (_, _, d, a, b) -> iset d (iok a && iok b)
        | Bytecode.IArithK_u (_, _, d, a, _) -> iset d (iok a)
        | Bytecode.ICmp_u (_, d, a, b) -> set d (iok a && iok b)
        | Bytecode.ICmpK_u (_, d, a, _) -> set d (iok a)
        | Bytecode.FConst_u (d, _) -> fset d true
        | Bytecode.FMov_u (d, s) -> fset d (fok s)
        | Bytecode.UnboxF (d, s) -> fset d (ok s)
        | Bytecode.BoxF (d, s) -> set d (fok s)
        | Bytecode.FArith_u (_, d, a, b) -> fset d (fok a && fok b)
        | Bytecode.FCmp_u (_, d, a, b) -> set d (fok a && fok b)
        | _ -> ())
      f.Bytecode.code
  done;
  derived

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

(* Each function's synchronous callees: [Call] targets plus [HookRun]
   hook bodies, which run inside the caller's activation. *)
let sync_succs (p : Bytecode.program) : int list array =
  Array.map
    (fun (f : Bytecode.func) ->
      Array.fold_left
        (fun acc instr ->
          match instr with
          | Bytecode.Call (callee, _, _) -> callee :: acc
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

(* A function whose own code stores a global or calls an unaudited host
   function. *)
let local_writer (p : Bytecode.program) (f : Bytecode.func) : bool =
  Array.exists
    (function
      | Bytecode.StoreGlobal _ -> true
      | Bytecode.CallC (h, _, _) ->
          not (List.mem p.Bytecode.host_names.(h) audited_hosts)
      | _ -> false)
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
    let writer = Array.map (local_writer p) p.Bytecode.funcs in
    let writes_shared callee =
      let r = reachable succs [ callee ] in
      Array.exists2 ( && ) r writer
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
          let derived = lazy (param_derived f) in
          let globalish = lazy (global_derived f) in
          Array.iteri
            (fun pc instr ->
              match instr with
              | Bytecode.StoreGlobal (slot, _) ->
                  flag "race/global-write" fi pc
                    (Printf.sprintf
                       "global '%s' is written on the sharded packet path"
                       p.Bytecode.globals.(slot))
              | Bytecode.Prim (prim, args, _)
                when mutates_container prim
                     && Array.length args > 0
                     && (Lazy.force globalish).(args.(0)) ->
                  let keys = Array.sub args 1 (Array.length args - 1) in
                  let flow_keyed =
                    Array.for_all
                      (fun r ->
                        r < Array.length (Lazy.force derived)
                        && (Lazy.force derived).(r))
                      keys
                  in
                  if not flow_keyed then
                    flag "race/global-write" fi pc
                      "global container mutated with a key not derived from \
                       the flow parameters"
              | Bytecode.Bind (callee, _, _) | Bytecode.Schedule (callee, _, _)
                ->
                  if writes_shared callee then
                    flag "race/timer-cross-shard" fi pc
                      (Printf.sprintf
                         "deferred call to '%s' writes globals; it may fire \
                          on a different shard"
                         p.Bytecode.funcs.(callee).Bytecode.name)
              | Bytecode.CallC (h, _, _) ->
                  let name = p.Bytecode.host_names.(h) in
                  if not (List.mem name audited_hosts) then
                    flag "race/hostapi-shared" fi pc
                      (Printf.sprintf
                         "host function '%s' is not in the audited effect \
                          table"
                         name)
              | _ -> ())
            f.Bytecode.code
        end)
      p.Bytecode.funcs;
    List.sort compare !races
  end
