(** The optimization pipeline: runs constant folding, CSE, block
    simplification, and DCE to a (bounded) fixpoint over a linked module.
    The ablation benchmark toggles this to measure its effect. *)

type stats = {
  mutable constfold : int;
  mutable cse : int;
  mutable simplify : int;
  mutable dce : int;
  mutable deadstore : int;
  mutable iterations : int;
}

let empty_stats () =
  { constfold = 0; cse = 0; simplify = 0; dce = 0; deadstore = 0; iterations = 0 }

let total s = s.constfold + s.cse + s.simplify + s.dce + s.deadstore

(** The bound on rewrite rounds. *)
let max_iterations = 8

(** Optimize [m] in place; returns rewrite statistics. *)
let optimize (m : Module_ir.t) : stats =
  let s = empty_stats () in
  let rec go n =
    if n >= max_iterations then ()
    else begin
      let before = total s in
      s.constfold <- s.constfold + Constfold.run m;
      s.cse <- s.cse + Cse.run m;
      s.simplify <- s.simplify + Simplify_blocks.run m;
      s.dce <- s.dce + Dce.run m;
      s.deadstore <- s.deadstore + Deadstore.run m;
      s.iterations <- s.iterations + 1;
      if total s > before then go (n + 1)
    end
  in
  go 0;
  s

let stats_to_string s =
  Printf.sprintf "constfold=%d cse=%d simplify=%d dce=%d deadstore=%d iterations=%d"
    s.constfold s.cse s.simplify s.dce s.deadstore s.iterations
