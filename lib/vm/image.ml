(** Program images: the linked, lowered bytecode that [hilti-build] writes
    to disk (.hbc) and executes with [-x].  An image is input from outside
    the process — it may have been edited since it was built — so {!load}
    runs the verifier on it again instead of trusting the [verified] and
    [specialized] flags stored in the file. *)

(* An image is a [Marshal]led {!Bytecode.program}, and [Marshal] is not
   type-safe: a binary reading a record of another shape indexes past its
   end.  Change the magic whenever the shape of [Bytecode.program] (or of
   anything it holds) changes. *)
let magic = "HILTI-IMAGE-5"

exception Not_an_image of string

let write path (program : Bytecode.program) =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc program [])

(** Read an image and verify it.  Raises [Not_an_image] when the file does
    not start with the image magic, and {!Verify.Verify_error} when its
    bytecode does not verify. *)
let load path : Bytecode.program =
  let ic = open_in_bin path in
  let program =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | m when m = magic -> (Marshal.from_channel ic : Bytecode.program)
        | _ | (exception End_of_file) -> raise (Not_an_image path))
  in
  ignore (Verify.verify_exn program);
  program
