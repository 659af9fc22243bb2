(** The [hiltic -analyze] lint engine: run the whole static-analysis
    surface over a set of IR modules and report findings.

    A lint run mirrors the compile pipeline — link, validate, per-function
    dataflow analyses, lower, bytecode verify — but never executes
    anything and never stops at the first problem: every stage contributes
    {!finding}s and later stages are skipped only when an earlier stage
    left the IR in a state they cannot consume (e.g. lowering after
    validation errors).

    Output is machine-readable and stable: one tab-separated line per
    finding ({!to_line}), sorted by {!compare} so reruns diff cleanly. *)

open Module_ir
module Analyses = Hilti_passes.Analyses

type severity = Error | Warning

(* Ordered so that sorting puts errors first. *)
let severity_rank = function Error -> 0 | Warning -> 1
let severity_to_string = function Error -> "error" | Warning -> "warning"

type finding = {
  severity : severity;
  rule : string;
      (** stable rule id: [validate], [lower], [verify], [link],
          [unused-local], [unreachable-block], [use-before-init],
          [dead-store], [race/global-write], [race/timer-cross-shard],
          [race/hostapi-shared] *)
  func : string;  (** enclosing function, or ["-"] for module-level *)
  where : string;  (** block label (or [block@idx]), or ["-"] *)
  location : string;
      (** finer position inside the block/function: the source location
          recorded on the instruction, or [pc@N] for bytecode-level
          findings, or ["-"].  Also the deterministic tiebreak for
          findings sharing a (severity, rule, func) triple. *)
  message : string;
}

let compare_finding a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.rule b.rule in
    if c <> 0 then c
    else
      let c = String.compare a.func b.func in
      if c <> 0 then c
      else
        let c = String.compare a.where b.where in
        if c <> 0 then c
        else
          let c = String.compare a.location b.location in
          if c <> 0 then c else String.compare a.message b.message

let clean_field s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

(** One tab-separated line:
    [severity<TAB>rule<TAB>func<TAB>where<TAB>location<TAB>message].
    Tabs/newlines in fields are replaced so the format stays parseable. *)
let to_line f =
  Printf.sprintf "%s\t%s\t%s\t%s\t%s\t%s"
    (severity_to_string f.severity)
    f.rule f.func f.where (clean_field f.location) (clean_field f.message)

let errors findings = List.filter (fun f -> f.severity = Error) findings

(* ---- Per-function warning analyses ------------------------------------ *)

let analyze_func (f : func) : finding list =
  let w ?(location = "-") rule where message =
    { severity = Warning; rule; func = f.fname; where; location; message }
  in
  let unreachable =
    List.map
      (fun l -> w "unreachable-block" l "block is unreachable from entry")
      (Analyses.unreachable_blocks f)
  in
  let unused =
    List.map
      (fun v -> w "unused-local" "-" (Printf.sprintf "local '%s' is never used" v))
      (Analyses.unused_locals f)
  in
  let ubi =
    List.map
      (fun (u : Analyses.use_before_init) ->
        w ~location:u.ubi_instr.Instr.location "use-before-init" u.ubi_block
          (Printf.sprintf "local '%s' may be read before initialization (at '%s')"
             u.ubi_var
             (Instr.to_string u.ubi_instr)))
      (Analyses.use_before_init f)
  in
  let ds =
    List.map
      (fun (d : Analyses.dead_store) ->
        w ~location:d.ds_instr.Instr.location "dead-store" d.ds_block
          (Printf.sprintf "value stored to '%s' is never read (at '%s')"
             d.ds_var
             (Instr.to_string d.ds_instr)))
      (Analyses.dead_stores f)
  in
  unreachable @ unused @ ubi @ ds

(* ---- Whole-program lint ----------------------------------------------- *)

(** Lint a set of modules as one linked unit.  [optimize] runs the
    standard pipeline before lowering (defaults to off so findings refer
    to the program as written).  [shard_entries] names the sharded
    dispatch entry points; when non-empty the static shard-race detector
    ({!Racecheck}) runs over the lowered program and races surface as
    [Error] findings.  Never raises: every failure mode becomes an
    [Error] finding.  Result is sorted by {!compare_finding}. *)
let analyze ?(optimize = false) ?(shard_entries = []) (modules : Module_ir.t list)
    : finding list =
  let err rule message =
    { severity = Error; rule; func = "-"; where = "-"; location = "-"; message }
  in
  let findings =
    match Hilti_passes.Linker.link modules with
    | exception Hilti_passes.Linker.Link_error msg -> [ err "link" msg ]
    | linked -> (
        let validate_errors = Validate.check_module linked in
        let warnings =
          List.concat_map analyze_func (linked.funcs @ linked.hooks)
        in
        let structural = List.map (err "validate") validate_errors in
        if validate_errors <> [] then structural @ warnings
        else begin
          if optimize then ignore (Hilti_passes.Pipeline.optimize linked);
          match Hilti_vm.Lower.lower_module linked with
          | exception Hilti_vm.Lower.Error msg ->
              err "lower" msg :: warnings
          | program ->
              let verify_errors =
                let report = Hilti_vm.Verify.verify program in
                List.map (err "verify") report.Hilti_vm.Verify.errors
              in
              let races =
                if shard_entries = [] then []
                else
                  List.map
                    (fun (r : Racecheck.race) ->
                      {
                        severity = Error;
                        rule = r.Racecheck.r_rule;
                        func = r.Racecheck.r_func;
                        where = "-";
                        location = Printf.sprintf "pc@%d" r.Racecheck.r_pc;
                        message = r.Racecheck.r_msg;
                      })
                    (Racecheck.check program ~shard_entries)
              in
              verify_errors @ races @ warnings
        end)
  in
  List.sort compare_finding findings

(* ---- JSON rendering ----------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Render a report as JSON with a stable key order — the field order of
    {!finding}, findings sorted by {!compare_finding} — so reruns diff
    cleanly and downstream tooling can hash the output. *)
let report_to_json findings =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"severity\":\"%s\",\"rule\":\"%s\",\"func\":\"%s\",\"where\":\"%s\",\"location\":\"%s\",\"message\":\"%s\"}"
           (severity_to_string f.severity)
           (json_escape f.rule) (json_escape f.func) (json_escape f.where)
           (json_escape f.location) (json_escape f.message)))
    findings;
  let nerr = List.length (errors findings) in
  Buffer.add_string buf
    (Printf.sprintf "],\"errors\":%d,\"warnings\":%d}\n" nerr
       (List.length findings - nerr));
  Buffer.contents buf
