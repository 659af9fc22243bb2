(** Control-flow graphs over IR functions: successor edges derived from
    block terminators, plus reachability — the substrate for DCE and block
    simplification. *)

open Module_ir

(** Labels a block's terminator can transfer to. *)
let successors (b : block) : string list =
  match List.rev b.instrs with
  | [] -> []
  | last :: _ -> (
      match last.Instr.mnemonic with
      | "jump" -> (
          match last.Instr.operands with [ Instr.Label l ] -> [ l ] | _ -> [])
      | "if.else" ->
          List.filter_map
            (function Instr.Label l -> Some l | _ -> None)
            last.Instr.operands
      | "switch" ->
          List.concat_map
            (function
              | Instr.Label l -> [ l ]
              | Instr.Tuple_op [ _; Instr.Label l ] -> [ l ]
              | _ -> [])
            last.Instr.operands
      | _ -> [])

(** Handler blocks installed by try.push anywhere in the block also count
    as successors (exceptional edges). *)
let exceptional_successors (b : block) : string list =
  List.filter_map
    (fun (i : Instr.t) ->
      if i.Instr.mnemonic = "try.push" then
        match i.Instr.operands with
        | Instr.Label l :: _ -> Some l
        | _ -> None
      else None)
    b.instrs

let terminators =
  [ "jump"; "if.else"; "return.void"; "return.result"; "throw"; "switch" ]

(** Blocks without a final terminator fall through to the next block in
    declaration order. *)
let fallthrough_map (f : func) : (string, string) Hashtbl.t =
  let map = Hashtbl.create 8 in
  let rec go = function
    | (a : block) :: (b :: _ as rest) ->
        let falls =
          match List.rev a.instrs with
          | [] -> true
          | last :: _ -> not (List.mem last.Instr.mnemonic terminators)
        in
        if falls then Hashtbl.replace map a.label b.label;
        go rest
    | _ -> ()
  in
  go f.blocks;
  map

(** Set of block labels reachable from the entry block. *)
let reachable (f : func) : (string, unit) Hashtbl.t =
  let falls = fallthrough_map f in
  let seen = Hashtbl.create 16 in
  let rec go label =
    if not (Hashtbl.mem seen label) then begin
      Hashtbl.add seen label ();
      (match Hashtbl.find_opt falls label with Some next -> go next | None -> ());
      match find_block f label with
      | Some b ->
          List.iter go (successors b);
          List.iter go (exceptional_successors b)
      | None -> ()
    end
  in
  (match f.blocks with [] -> () | b :: _ -> go b.label);
  seen
