(* Doubly-linked list threaded through a hash table. [head] is the MRU end,
   [tail] the LRU end. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type ('k, 'v) t = {
  mutable capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  { capacity; table = Hashtbl.create 64; head = None; tail = None }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Compare the head node physically: [t.head != Some n] would compare
   against a fresh option and always relink. *)
let promote t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      promote t n;
      Some n.value

let peek t k =
  match Hashtbl.find_opt t.table k with None -> None | Some n -> Some n.value

let mem t k = Hashtbl.mem t.table k

let evict_lru t =
  match t.tail with
  | None -> None
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      Some (n.key, n.value)

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      promote t n;
      None
  | None ->
      let evicted = if length t >= t.capacity then evict_lru t else None in
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.add t.table k n;
      push_front t n;
      evicted

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table k;
      Some n.value

let set_capacity t cap =
  if cap < 1 then invalid_arg "Lru.set_capacity: capacity < 1";
  t.capacity <- cap;
  let rec shrink acc =
    if length t > t.capacity then
      match evict_lru t with Some e -> shrink (e :: acc) | None -> acc
    else acc
  in
  List.rev (shrink [])

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.head

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let iter f t = List.iter (fun (k, v) -> f k v) (to_list t)
