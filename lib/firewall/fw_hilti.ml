(** The firewall's rules-to-HILTI compiler (§4 "Stateful Firewall").

    Emits exactly the module of Fig. 5: a [classifier<Rule, bool>] holding
    the compiled rule set, a [set<tuple<addr, addr>>] of dynamic rules with
    a 5-minute inactivity timeout, and a [match_packet(time, addr, addr)]
    function that advances HILTI's global time (expiring idle state),
    consults the dynamic set, and falls back to classifier lookup with a
    default-deny on [Hilti::IndexError]. *)

let ir_rule_tuple (r : Fw_rules.rule) =
  let net = function
    | None -> Constant.Unset
    | Some n -> Constant.Net n
  in
  Constant.Tuple [ net r.Fw_rules.src; net r.Fw_rules.dst ]

(** Build the firewall module for a rule list. *)
let compile_module ?(idle_timeout_secs = 300) (rules : Fw_rules.rule list) :
    Module_ir.t =
  let m = Module_ir.create "Firewall" in
  Module_ir.add_type m "Rule"
    (Module_ir.Struct_decl [ ("src", Htype.Net); ("dst", Htype.Net) ]);
  let classifier_ty = Htype.Classifier (Htype.Struct "Rule", Htype.Bool) in
  Module_ir.add_global m "rules" (Htype.Ref classifier_ty);
  Module_ir.add_global m "dyn"
    (Htype.Ref (Htype.Set (Htype.Tuple [ Htype.Addr; Htype.Addr ])));

  (* init_rules: one classifier.add per configured rule (Fig. 5 top). *)
  let b = Builder.func m "Firewall::init_rules" ~params:[] ~result:Htype.Void in
  List.iter
    (fun r ->
      Builder.instr b "classifier.add"
        [ Instr.Global "rules";
          Instr.Const (ir_rule_tuple r);
          Builder.const_bool (r.Fw_rules.action = Fw_rules.Allow) ])
    rules;
  Builder.return_ b;

  (* init_classifier: allocate, populate, compile, set up dynamic state. *)
  let b = Builder.func m "Firewall::init_classifier" ~params:[] ~result:Htype.Void ~exported:true in
  let c = Builder.emit b (Htype.Ref classifier_ty) "new" [ Instr.Type_op classifier_ty ] in
  Builder.instr b ~target:"rules" "assign" [ c ];
  Builder.call b "Firewall::init_rules" [];
  Builder.instr b "classifier.compile" [ Instr.Global "rules" ];
  let set_ty = Htype.Set (Htype.Tuple [ Htype.Addr; Htype.Addr ]) in
  let s = Builder.emit b (Htype.Ref set_ty) "new" [ Instr.Type_op set_ty ] in
  Builder.instr b ~target:"dyn" "assign" [ s ];
  Builder.instr b "set.timeout"
    [ Instr.Global "dyn";
      Instr.Const (Constant.Enum_label ("Hilti::ExpireStrategy", "Access"));
      Instr.Const (Constant.Interval (Hilti_types.Interval_ns.of_secs idle_timeout_secs)) ];
  Builder.return_ b;

  (* match_packet(t, src, dst) -> bool (Fig. 5 bottom). *)
  let b =
    Builder.func m "Firewall::match_packet" ~exported:true
      ~params:[ ("t", Htype.Time); ("src", Htype.Addr); ("dst", Htype.Addr) ]
      ~result:Htype.Bool
  in
  let bool_local = Builder.local b "b" Htype.Bool in
  (* Advance HILTI's global time; this expires inactive dynamic entries. *)
  Builder.instr b "timer_mgr.advance_global" [ Instr.Local "t" ];
  Builder.instr b ~target:bool_local "set.exists"
    [ Instr.Global "dyn"; Instr.Tuple_op [ Instr.Local "src"; Instr.Local "dst" ] ];
  Builder.if_else b (Instr.Local bool_local) ~then_:"return_action" ~else_:"lookup";
  Builder.set_block b "lookup";
  let exc = Builder.local b "e" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "no_match"; Instr.Local exc ];
  Builder.instr b ~target:bool_local "classifier.get"
    [ Instr.Global "rules"; Instr.Tuple_op [ Instr.Local "src"; Instr.Local "dst" ] ];
  Builder.instr b "try.pop" [];
  Builder.if_else b (Instr.Local bool_local) ~then_:"add_state" ~else_:"return_action";
  Builder.set_block b "no_match";
  (* No rule matched: default deny. *)
  Builder.return_result b (Builder.const_bool false);
  Builder.set_block b "add_state";
  Builder.instr b "set.insert"
    [ Instr.Global "dyn"; Instr.Tuple_op [ Instr.Local "src"; Instr.Local "dst" ] ];
  Builder.instr b "set.insert"
    [ Instr.Global "dyn"; Instr.Tuple_op [ Instr.Local "dst"; Instr.Local "src" ] ];
  Builder.set_block b "return_action";
  Builder.return_result b (Instr.Local bool_local);
  m

type t = {
  api : Hilti_vm.Host_api.t;
  match_fn : Hilti_vm.Host_api.func;  (* [Firewall::match_packet] *)
  mutable matches : int;
  mutable denials : int;
}

(** Compile and load a firewall; returns a handle whose [match_packet]
    mirrors the reference matcher's interface. *)
let load ?(optimize = true) ?(specialize = true) ?idle_timeout_secs rules : t =
  let m = compile_module ?idle_timeout_secs rules in
  let api = Hilti_vm.Host_api.compile ~optimize ~specialize [ m ] in
  ignore (Hilti_vm.Host_api.call api "Firewall::init_classifier" []);
  { api; match_fn = Hilti_vm.Host_api.func api "Firewall::match_packet"; matches = 0;
    denials = 0 }

let match_packet t ~ts ~src ~dst =
  let open Hilti_vm in
  let r =
    Host_api.call_func t.api t.match_fn [ Value.Time ts; Value.Addr src; Value.Addr dst ]
  in
  let allowed = Value.as_bool r in
  if allowed then t.matches <- t.matches + 1 else t.denials <- t.denials + 1;
  allowed
