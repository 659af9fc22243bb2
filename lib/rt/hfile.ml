(** File output (HILTI [file]).

    Writes can be routed through a {!Scheduler} command queue so that
    multiple virtual threads emit to the same file without interleaving
    partial lines — the serialization mechanism §5 describes.  For testing,
    files can also be purely in-memory sinks. *)

type sink = Disk of out_channel | Memory of Buffer.t

type t = {
  path : string;
  mutable sink : sink option;
  mutable bytes_written : int;
  serializer : Scheduler.t option;
}

exception Closed of string

let open_disk ?serializer path =
  { path; sink = Some (Disk (open_out path)); bytes_written = 0; serializer }

let open_memory ?serializer path =
  { path; sink = Some (Memory (Buffer.create 256)); bytes_written = 0; serializer }

let path t = t.path
let bytes_written t = t.bytes_written

let do_write t s =
  match t.sink with
  | None -> raise (Closed t.path)
  | Some (Disk oc) ->
      output_string oc s;
      t.bytes_written <- t.bytes_written + String.length s
  | Some (Memory buf) ->
      Buffer.add_string buf s;
      t.bytes_written <- t.bytes_written + String.length s

(** Write a string; serialized through the scheduler's command queue when
    one is attached. *)
let write t s =
  match t.serializer with
  | Some sched -> Scheduler.command sched ~label:("write " ^ t.path) (fun () -> do_write t s)
  | None -> do_write t s

(** Contents so far (memory sinks only). *)
let contents t =
  match t.sink with
  | Some (Memory buf) -> Buffer.contents buf
  | _ -> invalid_arg "Hfile.contents: not a memory sink"

let close t =
  (match t.sink with
  | Some (Disk oc) -> close_out oc
  | Some (Memory _) | None -> ());
  t.sink <- None
