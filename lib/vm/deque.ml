(** A mutable double-ended queue backing HILTI's [list] type: O(1) append
    at either end and pop at the front, plus ordered traversal. *)

type 'a node = { value : 'a; mutable prev : 'a node option; mutable next : 'a node option }

type 'a t = {
  mutable front : 'a node option;
  mutable back : 'a node option;
  mutable size : int;
}

let create () = { front = None; back = None; size = 0 }

let size t = t.size
let is_empty t = t.size = 0

let push_back t value =
  let node = { value; prev = t.back; next = None } in
  (match t.back with Some b -> b.next <- Some node | None -> t.front <- Some node);
  t.back <- Some node;
  t.size <- t.size + 1

let push_front t value =
  let node = { value; prev = None; next = t.front } in
  (match t.front with Some f -> f.prev <- Some node | None -> t.back <- Some node);
  t.front <- Some node;
  t.size <- t.size + 1

let pop_front t =
  match t.front with
  | None -> None
  | Some node ->
      t.front <- node.next;
      (match node.next with Some n -> n.prev <- None | None -> t.back <- None);
      t.size <- t.size - 1;
      Some node.value

(** The [i]-th element from the front, walking the links (no allocation).
    @raise Invalid_argument when [i] is out of range. *)
let get t i =
  if i < 0 || i >= t.size then invalid_arg "Deque.get";
  let rec go i = function
    | Some node -> if i = 0 then node.value else go (i - 1) node.next
    | None -> invalid_arg "Deque.get"
  in
  go i t.front

let peek_front t = Option.map (fun n -> n.value) t.front
let peek_back t = Option.map (fun n -> n.value) t.back

let clear t =
  t.front <- None;
  t.back <- None;
  t.size <- 0

let iter f t =
  let rec go = function
    | None -> ()
    | Some node ->
        f node.value;
        go node.next
  in
  go t.front

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc

let of_list l =
  let t = create () in
  List.iter (push_back t) l;
  t
