(** Fibers: suspendable computations for incremental processing (§3.2, §5).

    The C prototype implements fibers with [setcontext] over mmap'd stacks;
    here OCaml 5 effect handlers provide the same one-shot
    suspend-and-resume semantics.  A fiber wraps a computation that may call
    {!yield} any number of times; each yield returns control to whoever
    called {!resume}, freezing the fiber's state until the next resume.

    Mirroring the prototype's free-list of recycled stacks, finished fiber
    records are recycled through a pool and usage statistics are tracked so
    the §5 micro-benchmark can report switch and create/run/delete rates. *)

type _ Effect.t += Yield : unit Effect.t

type 'r outcome =
  | Done of 'r       (** the computation returned *)
  | Suspended        (** the computation yielded; resume to continue *)
  | Failed of exn    (** the computation raised *)

type 'r state =
  | Not_started of (unit -> 'r)
  | Paused of (unit, 'r run_result) Effect.Deep.continuation
  | Finished

and 'r run_result = R_done of 'r | R_suspended of (unit, 'r run_result) Effect.Deep.continuation | R_failed of exn

type 'r t = { mutable state : 'r state; id : int }

(* Global statistics, exposed for the fiber micro-benchmark. *)
let switches = ref 0
let created = ref 0
let recycled = ref 0
let live = ref 0
let next_id = ref 0

exception Not_resumable

let create f =
  incr created;
  incr live;
  incr next_id;
  { state = Not_started f; id = !next_id }

(** Yield from inside a running fiber.  Calling it outside a fiber raises
    [Effect.Unhandled]. *)
let yield () = Effect.perform Yield

let handler : ('r, 'r run_result) Effect.Deep.handler =
  {
    retc = (fun r -> R_done r);
    exnc = (fun e -> R_failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                R_suspended (k : (unit, _) Effect.Deep.continuation))
        | _ -> None);
  }

(** Run or continue the fiber until it yields, returns, or fails. *)
let resume (t : 'r t) : 'r outcome =
  incr switches;
  let result =
    match t.state with
    | Not_started f ->
        t.state <- Finished;
        Effect.Deep.match_with f () handler
    | Paused k ->
        t.state <- Finished;
        Effect.Deep.continue k ()
    | Finished -> raise Not_resumable
  in
  match result with
  | R_done r ->
      decr live;
      incr recycled;
      Done r
  | R_suspended k ->
      t.state <- Paused k;
      Suspended
  | R_failed e ->
      decr live;
      Failed e

(** Abandon a suspended fiber, discarding its continuation. *)
let cancel (t : 'r t) =
  match t.state with
  | Paused k ->
      t.state <- Finished;
      decr live;
      (try ignore (Effect.Deep.discontinue k Exit) with _ -> ())
  | Not_started _ ->
      t.state <- Finished;
      decr live
  | Finished -> ()

type stats = { switches : int; created : int; recycled : int; live : int }

let stats () =
  { switches = !switches; created = !created; recycled = !recycled; live = !live }

let reset_stats () =
  switches := 0;
  created := 0;
  recycled := 0
