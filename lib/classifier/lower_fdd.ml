(** Lowering a decision diagram to HILTI bytecode.

    Emits the diagram as a branch DAG: one basic block per hash-consed
    node (shared subtrees are emitted once and jumped to from every
    parent), over header fields read through an IP overlay exactly like
    the Fig. 4 BPF compiler.  The five field words are loaded into locals
    once at entry; each node block is then [int.and] + [int.eq] +
    [if.else], so a match executes O(depth) bytecode instructions and
    the function runs verified and specialized like every other
    workload.

    Malformed or truncated frames fail safe to [false] through a
    function-level exception handler; non-IPv4 frames return the
    configured default action. *)

let eth_base = 14

(* The Fig. 4 overlay, with the address words exposed as 32-bit integers
   (the diagram tests address bits, so it wants words, not [addr]s). *)
let overlay_decl : Module_ir.type_decl =
  Module_ir.Overlay_decl
    [
      { of_name = "ethertype"; of_type = Htype.Int 16; of_offset = 12;
        of_fmt = Module_ir.U_uint (2, Hilti_types.Hbytes.Big); of_bits = None };
      { of_name = "hdr_len"; of_type = Htype.Int 8; of_offset = eth_base + 0;
        of_fmt = Module_ir.U_uint (1, Hilti_types.Hbytes.Big); of_bits = Some (0, 3) };
      { of_name = "proto"; of_type = Htype.Int 8; of_offset = eth_base + 9;
        of_fmt = Module_ir.U_uint (1, Hilti_types.Hbytes.Big); of_bits = None };
      { of_name = "src32"; of_type = Htype.Int 64; of_offset = eth_base + 12;
        of_fmt = Module_ir.U_uint (4, Hilti_types.Hbytes.Big); of_bits = None };
      { of_name = "dst32"; of_type = Htype.Int 64; of_offset = eth_base + 16;
        of_fmt = Module_ir.U_uint (4, Hilti_types.Hbytes.Big); of_bits = None };
    ]

let packet = Instr.Local "packet"

(* The local holding the field word a variable tests, and the bit mask
   selecting that variable within it. *)
let field_of_var v =
  if v < Fdd.src_base then ("f_proto", 1 lsl (7 - v))
  else if v < Fdd.dst_base then ("f_src", 1 lsl (Fdd.src_base + 31 - v))
  else if v < Fdd.sport_base then ("f_dst", 1 lsl (Fdd.dst_base + 31 - v))
  else if v < Fdd.dport_base then ("f_sport", 1 lsl (Fdd.sport_base + 15 - v))
  else ("f_dport", 1 lsl (Fdd.dport_base + 15 - v))

let uses_ports fdd =
  List.exists
    (fun n -> Fdd.var n >= Fdd.sport_base)
    (Fdd.postorder fdd)

let label_of fdd =
  match fdd with
  | Fdd.Leaf v -> if v = 1 then "ret_true" else "ret_false"
  | Fdd.Node _ -> Printf.sprintf "n%d" (Fdd.id fdd)

let get_field b field ty =
  Builder.emit b ty "overlay.get"
    [ Instr.Member "Classifier::IP"; Instr.Member field; packet ]

(* Transport port at dynamic IP header length (the Fig. 4 idiom). *)
let load_port b ~dst_side =
  let hl = get_field b "hdr_len" (Htype.Int 8) in
  let hl_bytes = Builder.emit b (Htype.Int 64) "int.mul" [ hl; Builder.const_int 4 ] in
  let base =
    Builder.emit b (Htype.Int 64) "int.add"
      [ hl_bytes; Builder.const_int (eth_base + if dst_side then 2 else 0) ]
  in
  let it = Builder.emit b (Htype.Iter Htype.Bytes) "bytes.offset" [ packet; base ] in
  let pair =
    Builder.emit b
      (Htype.Tuple [ Htype.Int 64; Htype.Iter Htype.Bytes ])
      "bytes.unpack_uint"
      [ it; Builder.const_int 2; Builder.const_bool true ]
  in
  Builder.emit b (Htype.Int 64) "tuple.get" [ pair; Builder.const_int 0 ]

(** Build a module exporting [<name>::match(ref<bytes>) -> bool] that
    evaluates [fdd].  Leaf action 1 is [true], everything else [false];
    non-IPv4 frames yield [default]. *)
let compile_module ?(default = false) ?(name = "Classifier") (fdd : Fdd.t) :
    Module_ir.t =
  let m = Module_ir.create name in
  Module_ir.add_type m "Classifier::IP" overlay_decl;
  let b =
    Builder.func m (name ^ "::match") ~exported:true
      ~params:[ ("packet", Htype.Ref Htype.Bytes) ]
      ~result:Htype.Bool
  in
  let exc = Builder.local b "__exc" Htype.Exception in
  Builder.instr b "try.push" [ Instr.Label "bad_packet"; Instr.Local exc ];
  (* Ethertype guard: the diagram's key space is IPv4. *)
  let et = get_field b "ethertype" (Htype.Int 16) in
  let is_ip = Builder.emit b Htype.Bool "int.eq" [ et; Builder.const_int 0x0800 ] in
  Builder.if_else b is_ip ~then_:"load_fields" ~else_:"ret_default";
  Builder.set_block b "load_fields";
  (* The field words, loaded once; node blocks only do register work. *)
  let fp = Builder.local b "f_proto" (Htype.Int 64) in
  let fs = Builder.local b "f_src" (Htype.Int 64) in
  let fd = Builder.local b "f_dst" (Htype.Int 64) in
  let fsp = Builder.local b "f_sport" (Htype.Int 64) in
  let fdp = Builder.local b "f_dport" (Htype.Int 64) in
  Builder.assign b ~target:fp (get_field b "proto" (Htype.Int 8));
  Builder.assign b ~target:fs (get_field b "src32" (Htype.Int 64));
  Builder.assign b ~target:fd (get_field b "dst32" (Htype.Int 64));
  if uses_ports fdd then begin
    Builder.assign b ~target:fsp (load_port b ~dst_side:false);
    Builder.assign b ~target:fdp (load_port b ~dst_side:true)
  end
  else begin
    Builder.assign b ~target:fsp (Builder.const_int 0);
    Builder.assign b ~target:fdp (Builder.const_int 0)
  end;
  Builder.jump b (label_of fdd);
  (* One block per hash-consed node; shared children emitted once.  The
     blocks are declared in bulk first — per-block creation is quadratic
     in the block count, which at 10k+ rules is the difference between
     milliseconds and minutes. *)
  let nodes = Fdd.postorder fdd in
  Builder.declare_blocks b
    (List.map label_of nodes @ [ "ret_true"; "ret_false"; "ret_default"; "bad_packet" ]);
  let t_and = Builder.local b "t_and" (Htype.Int 64) in
  let t_z = Builder.local b "t_z" Htype.Bool in
  List.iter
    (fun node ->
      match node with
      | Fdd.Leaf _ -> ()
      | Fdd.Node { var; hi; lo; _ } ->
          Builder.set_block b (label_of node);
          let field, mask = field_of_var var in
          Builder.instr b ~target:t_and "int.and"
            [ Instr.Local field; Builder.const_int mask ];
          Builder.instr b ~target:t_z "int.eq"
            [ Instr.Local t_and; Builder.const_int 0 ];
          Builder.if_else b (Instr.Local t_z) ~then_:(label_of lo)
            ~else_:(label_of hi))
    nodes;
  Builder.set_block b "ret_true";
  Builder.return_result b (Builder.const_bool true);
  Builder.set_block b "ret_false";
  Builder.return_result b (Builder.const_bool false);
  Builder.set_block b "ret_default";
  Builder.return_result b (Builder.const_bool default);
  Builder.set_block b "bad_packet";
  Builder.return_result b (Builder.const_bool false);
  m

(** Compile and load; returns the api handle and a [frame -> bool]
    closure.  The HILTI-level optimization pipeline is off by default:
    node blocks are already minimal and pipeline cost grows with the
    diagram, while specialization stays on so the function runs on the
    unboxed register banks. *)
let load ?default ?(optimize = false) ?(specialize = true)
    (fdd : Fdd.t) : Hilti_vm.Host_api.t * (string -> bool) =
  let m = compile_module ?default fdd in
  let api = Hilti_vm.Host_api.compile ~optimize ~specialize [ m ] in
  let run pkt =
    let bts = Hilti_types.Hbytes.of_string pkt in
    Hilti_types.Hbytes.freeze bts;
    Hilti_vm.Value.as_bool
      (Hilti_vm.Host_api.call api "Classifier::match" [ Hilti_vm.Value.Bytes bts ])
  in
  (api, run)
