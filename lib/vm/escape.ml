(** Flow-of-values escape analysis over lowered programs.

    Classifies every allocation site ([P_new]) and frame slot into three
    classes, the granularity the paper's §5 thread-locality argument
    needs:

    - {e activation-local} ([Local]): the object never leaves the
      activation that allocated it — dies with the frame;
    - {e flow-local} ([Flow_local]): the object outlives the activation
      (returned to the caller, parked in a timer of the activation's
      virtual thread) but stays confined to one flow's processing chain;
    - {e escaping} ([Escaping]): the object crosses the flow boundary —
      stored to a global slot, captured by [thread.schedule] /
      [callable.bind], thrown as an exception payload, or passed to a
      host-API sink (event emission, logging) or an unaudited host
      function.

    The analysis is a field-insensitive Andersen-style points-to over
    {e sites}: each register holds a set of abstract sites; each site has
    a contents set fed by container inserts and drained by container
    reads.  Aliasing needs no special handling — a moved container
    register carries the same site, so inserts through either alias land
    in the same contents set.  Interprocedural flow runs through
    parameter pseudo-sites (caller argument sites become the contents of
    the callee's [Param] site) and through return-site sets (the caller's
    destination register inherits the callee's returned sites verbatim),
    iterated to a global fixpoint, so escape verdicts propagate both down
    (escaping callee param ⇒ caller argument escapes) and up (caller
    escaping a returned object ⇒ the callee's site escapes).

    Soundness contract (checked by the QCheck harness against the VM): a
    site classified [Local] is never observed escaping at
    runtime.  The converse is allowed — the analysis may conservatively
    over-classify. *)

module Effects = Hilti_passes.Effects

type site =
  | Alloc of int * int  (** allocation at (func idx, pc) *)
  | Param of int * int  (** parameter [j] of function — stands for whatever
                            any caller passes *)
  | External            (** loaded from a global, produced by a host call:
                            already shared before we saw it *)

module SiteSet = Set.Make (struct
  type t = site

  let compare = compare
end)

type cls = Local | Flow_local | Escaping

let cls_name = function
  | Local -> "local"
  | Flow_local -> "flow-local"
  | Escaping -> "escaping"

let cls_join a b =
  match (a, b) with
  | Escaping, _ | _, Escaping -> Escaping
  | Flow_local, _ | _, Flow_local -> Flow_local
  | Local, Local -> Local

type result = {
  site_class : (int * int, cls) Hashtbl.t;
      (** classification of every [P_new] site, keyed by (func idx, pc) *)
  reg_class : cls array array;
      (** per function, per register: the worst class of any value the
          slot can hold ([External] counts as escaping — the slot holds
          already-shared data) *)
  param_escapes : bool array array;
      (** per function: does parameter [j] escape through the function? *)
  n_local : int;
  n_flow : int;
  n_escaping : int;
}

(* ---- Obs counters --------------------------------------------------------- *)

let m_sites_local =
  Hilti_obs.Metrics.counter "escape_sites_local"
    ~help:"Allocation sites proven activation-local by escape analysis"

let m_sites_escaping =
  Hilti_obs.Metrics.counter "escape_sites_escaping"
    ~help:"Allocation sites classified escaping by escape analysis"

(* ---- Primitive classification --------------------------------------------- *)

(* Inserts: value operands (past the container in position 0) are retained
   by the container — they flow into the contents of the container's sites. *)
let insert_like (p : Bytecode.prim) =
  match p with
  | Bytecode.P_list (Bytecode.L_append | Bytecode.L_push_front) -> true
  | Bytecode.P_vector (Bytecode.V_push_back | Bytecode.V_set) -> true
  | Bytecode.P_set Bytecode.SE_insert -> true
  | Bytecode.P_map Bytecode.M_insert -> true
  | Bytecode.P_struct (Bytecode.ST_set, _, _) -> true
  | Bytecode.P_classifier Bytecode.CL_add -> true
  | Bytecode.P_channel Bytecode.CH_write -> true
  | Bytecode.P_set Bytecode.SE_timeout | Bytecode.P_map Bytecode.M_timeout ->
      true (* the expiry callable is retained by the container *)
  | _ -> false

(* Reads: the destination receives something previously inserted into the
   container operand — its sites' contents. *)
let read_like (p : Bytecode.prim) =
  match p with
  | Bytecode.P_list (Bytecode.L_front | Bytecode.L_back | Bytecode.L_pop_front)
    ->
      true
  | Bytecode.P_vector Bytecode.V_get -> true
  | Bytecode.P_map (Bytecode.M_get | Bytecode.M_get_default) -> true
  | Bytecode.P_struct ((Bytecode.ST_get | Bytecode.ST_get_default), _, _) -> true
  | Bytecode.P_classifier (Bytecode.CL_get | Bytecode.CL_matches) -> true
  | Bytecode.P_channel (Bytecode.CH_read | Bytecode.CH_try_read) -> true
  | Bytecode.P_iter Bytecode.I_deref -> true
  | Bytecode.P_exc_data -> true
  | _ -> false

(* Aggregates: the destination value directly carries references to the
   operands (tuples, exceptions with payloads, timers wrapping callables),
   so the destination register inherits the operands' sites. *)
let aggregate_like (p : Bytecode.prim) =
  match p with
  | Bytecode.P_make_tuple | Bytecode.P_select -> true
  | Bytecode.P_tuple_get _ -> true (* projection: subset of the tuple's sites *)
  | Bytecode.P_exc_new -> true
  | Bytecode.P_timer_new -> true
  | _ -> false

(* ---- The analysis ---------------------------------------------------------- *)

let analyze (p : Bytecode.program) : result =
  let nf = Array.length p.Bytecode.funcs in
  let pts =
    Array.map (fun (f : Bytecode.func) -> Array.make f.Bytecode.nregs SiteSet.empty)
      p.Bytecode.funcs
  in
  (* Seed: parameter registers hold their pseudo-site. *)
  Array.iteri
    (fun fi (f : Bytecode.func) ->
      for j = 0 to f.Bytecode.nparams - 1 do
        pts.(fi).(j) <- SiteSet.singleton (Param (fi, j))
      done)
    p.Bytecode.funcs;
  let contents : (site, SiteSet.t) Hashtbl.t = Hashtbl.create 64 in
  let retsites = Array.make nf SiteSet.empty in
  let escaping : (site, unit) Hashtbl.t = Hashtbl.create 64 in
  let flowlocal : (site, unit) Hashtbl.t = Hashtbl.create 64 in
  let changed = ref true in
  let contents_of s =
    Option.value ~default:SiteSet.empty (Hashtbl.find_opt contents s)
  in
  let add_pts fi r set =
    if r >= 0 && not (SiteSet.subset set pts.(fi).(r)) then begin
      pts.(fi).(r) <- SiteSet.union pts.(fi).(r) set;
      changed := true
    end
  in
  let add_contents s set =
    let cur = contents_of s in
    if not (SiteSet.subset set cur) then begin
      Hashtbl.replace contents s (SiteSet.union cur set);
      changed := true
    end
  in
  let mark tbl s =
    if not (Hashtbl.mem tbl s) then begin
      Hashtbl.replace tbl s ();
      changed := true
    end
  in
  let escape_set set = SiteSet.iter (mark escaping) set in
  let flow_set set = SiteSet.iter (mark flowlocal) set in
  (* Reads drain the contents of the container's sites; [External]
     containers yield [External] contents. *)
  let drained set =
    SiteSet.fold
      (fun s acc ->
        let acc = SiteSet.union acc (contents_of s) in
        if s = External then SiteSet.add External acc else acc)
      set SiteSet.empty
  in
  let step_instr fi (regs : SiteSet.t array) pc instr =
    let sites r = if r >= 0 && r < Array.length regs then regs.(r) else SiteSet.empty in
    let sites_of_args args =
      Array.fold_left (fun acc r -> SiteSet.union acc (sites r)) SiteSet.empty args
    in
    match instr with
    | Bytecode.Mov (d, s) -> add_pts fi d (sites s)
    | Bytecode.LoadGlobal (d, _) -> add_pts fi d (SiteSet.singleton External)
    | Bytecode.StoreGlobal (_, s) -> escape_set (sites s)
    | Bytecode.Call (callee, args, d) ->
        let cf = p.Bytecode.funcs.(callee) in
        Array.iteri
          (fun j a ->
            if j < cf.Bytecode.nparams then
              add_contents (Param (callee, j)) (sites a))
          args;
        add_pts fi d retsites.(callee)
    | Bytecode.HookRun (bodies, args) ->
        Array.iter
          (fun callee ->
            let cf = p.Bytecode.funcs.(callee) in
            Array.iteri
              (fun j a ->
                if j < cf.Bytecode.nparams then
                  add_contents (Param (callee, j)) (sites a))
              args)
          bodies
    | Bytecode.CallC (h, args, d) ->
        let retained =
          match Effects.host_effects p.Bytecode.host_names.(h) with
          | None -> true (* unknown: assume it keeps everything *)
          | Some h -> h.Effects.hf_sink
        in
        if retained then Array.iter (fun a -> escape_set (sites a)) args;
        add_pts fi d (SiteSet.singleton External)
    | Bytecode.Ret r ->
        if r >= 0 then begin
          let s = sites r in
          if not (SiteSet.subset s retsites.(fi)) then begin
            retsites.(fi) <- SiteSet.union retsites.(fi) s;
            changed := true
          end;
          flow_set s
        end
    | Bytecode.Throw r -> escape_set (sites r)
    | Bytecode.Schedule (_, args, _) ->
        Array.iter (fun a -> escape_set (sites a)) args
    | Bytecode.Bind (_, args, d) ->
        (* The callable may fire from a timer or another activation: its
           captures outlive us but stay on this virtual thread. *)
        Array.iter (fun a -> flow_set (sites a)) args;
        add_pts fi d (sites_of_args args)
    | Bytecode.Prim (prim, args, d) -> (
        match prim with
        | Bytecode.P_new _ -> add_pts fi d (SiteSet.singleton (Alloc (fi, pc)))
        | Bytecode.P_timer_mgr_schedule ->
            (* args: mgr, time, timer/callable — parked on this thread's
               manager, fires in a later activation of the same flow. *)
            Array.iteri (fun i a -> if i >= 2 then flow_set (sites a)) args
        | _ ->
            if insert_like prim then begin
              let container = if Array.length args > 0 then sites args.(0) else SiteSet.empty in
              let values =
                Array.to_list args |> List.tl
                |> List.fold_left (fun acc a -> SiteSet.union acc (sites a)) SiteSet.empty
              in
              SiteSet.iter (fun s -> add_contents s values) container;
              (* Inserting into an already-shared container shares the value. *)
              if SiteSet.mem External container then escape_set values
            end
            else if read_like prim then
              add_pts fi d (drained (if Array.length args > 0 then sites args.(0) else SiteSet.empty))
            else if aggregate_like prim then add_pts fi d (sites_of_args args))
    | Bytecode.Const _ | Bytecode.Jump _ | Bytecode.Br _ | Bytecode.Switch _
    | Bytecode.TryPush _ | Bytecode.TryPop | Bytecode.Yield | Bytecode.Nop ->
        ()
    (* An unpacked int and a fresh iterator: no allocation sites flow. *)
    | Bytecode.Unpack _ | Bytecode.UnpackI_u _ | Bytecode.Read _ -> ()
    (* Specialized bank opcodes only move unboxed ints/floats. *)
    | Bytecode.IConst_u _ | Bytecode.IMov_u _ | Bytecode.UnboxI _
    | Bytecode.BoxI _ | Bytecode.IArith_u _ | Bytecode.IArithK_u _
    | Bytecode.ICmp_u _ | Bytecode.ICmpK_u _ | Bytecode.IBrCmp_u _
    | Bytecode.IBrCmpK_u _ | Bytecode.IIncrJ_u _ | Bytecode.FConst_u _
    | Bytecode.FMov_u _ | Bytecode.UnboxF _ | Bytecode.BoxF _
    | Bytecode.FArith_u _ | Bytecode.FCmp_u _ | Bytecode.FBrCmp_u _ ->
        ()
  in
  while !changed do
    changed := false;
    Array.iteri
      (fun fi (f : Bytecode.func) ->
        Array.iteri (fun pc i -> step_instr fi pts.(fi) pc i) f.Bytecode.code)
      p.Bytecode.funcs;
    (* Closure: what an escaping (flow-local) container holds escapes
       (leaves the activation) with it. *)
    Hashtbl.iter (fun s () -> escape_set (contents_of s)) escaping;
    Hashtbl.iter (fun s () -> flow_set (contents_of s)) flowlocal
  done;
  (* ---- Fold the solution into the reported classification. ---- *)
  let classify s =
    if Hashtbl.mem escaping s then Escaping
    else if Hashtbl.mem flowlocal s then Flow_local
    else match s with External -> Escaping | _ -> Local
  in
  let site_class = Hashtbl.create 32 in
  let n_local = ref 0 and n_flow = ref 0 and n_escaping = ref 0 in
  Array.iteri
    (fun fi (f : Bytecode.func) ->
      Array.iteri
        (fun pc instr ->
          match instr with
          | Bytecode.Prim (Bytecode.P_new _, _, _) ->
              let c = classify (Alloc (fi, pc)) in
              Hashtbl.replace site_class (fi, pc) c;
              (match c with
              | Local -> incr n_local
              | Flow_local -> incr n_flow
              | Escaping -> incr n_escaping)
          | _ -> ())
        f.Bytecode.code)
    p.Bytecode.funcs;
  let reg_class =
    Array.mapi
      (fun fi (f : Bytecode.func) ->
        Array.init f.Bytecode.nregs (fun r ->
            SiteSet.fold (fun s acc -> cls_join acc (classify s)) pts.(fi).(r) Local))
      p.Bytecode.funcs
  in
  let param_escapes =
    Array.mapi
      (fun fi (f : Bytecode.func) ->
        Array.init f.Bytecode.nparams (fun j -> Hashtbl.mem escaping (Param (fi, j))))
      p.Bytecode.funcs
  in
  if Hilti_obs.Metrics.enabled () then begin
    Hilti_obs.Metrics.add m_sites_local !n_local;
    Hilti_obs.Metrics.add m_sites_escaping !n_escaping
  end;
  {
    site_class;
    reg_class;
    param_escapes;
    n_local = !n_local;
    n_flow = !n_flow;
    n_escaping = !n_escaping;
  }

(** Classification of one allocation site, for reports and tests. *)
let site_cls (r : result) ~func ~pc =
  Hashtbl.find_opt r.site_class (func, pc)

let to_string (p : Bytecode.program) (r : result) : string =
  let b = Buffer.create 256 in
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) r.site_class []
  |> List.sort compare
  |> List.iter (fun ((fi, pc), c) ->
         Buffer.add_string b
           (Printf.sprintf "%s@%d: %s\n" p.Bytecode.funcs.(fi).Bytecode.name pc
              (cls_name c)));
  Buffer.contents b
