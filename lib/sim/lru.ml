(* Int-keyed LRU cache over parallel slot arrays. [prev]/[next] thread
   the recency list through the slots ([head] is the MRU end, [tail] the
   LRU end, [nil] ends it) and [next] the free slots; a table maps keys
   to slots. Hits, puts of a present key and removals relink in place,
   allocating nothing. A freed slot takes a live entry's value, so the
   arrays keep no value the cache has dropped. *)

module Tbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  (* bits 40 and up (the EPC's enclave id) fold into the indexed low bits *)
  let hash k = (k lxor (k lsr 40)) land max_int
end)

let nil = -1

type 'v t = {
  capacity : int;
  table : int Tbl.t;
  mutable keys : int array;
  mutable values : 'v array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;
  mutable tail : int;
  mutable free : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  { capacity; table = Tbl.create 64; keys = [||]; values = [||]; prev = [||];
    next = [||]; head = nil; tail = nil; free = nil }

let capacity t = t.capacity
let length t = Tbl.length t.table

let[@inline] unlink t i =
  let p = t.prev.(i) and n = t.next.(i) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let[@inline] push_front t i =
  t.prev.(i) <- nil;
  t.next.(i) <- t.head;
  if t.head = nil then t.tail <- i else t.prev.(t.head) <- i;
  t.head <- i

let[@inline] promote t i = if t.head <> i then (unlink t i; push_front t i)

let find t k =
  let i = Tbl.find t.table k in
  promote t i;
  t.values.(i)

let peek t k = match Tbl.find t.table k with i -> Some t.values.(i) | exception Not_found -> None

let release t i =
  unlink t i;
  Tbl.remove t.table t.keys.(i);
  if t.head <> nil then t.values.(i) <- t.values.(t.head);
  t.next.(i) <- t.free;
  t.free <- i

(* No slot is free: double the arrays ([v] fills the fresh values) and
   chain the fresh slots n .. m-1 into the free list. *)
let grow t v =
  let n = Array.length t.keys in
  let m = max 8 (2 * n) in
  let extend a f = Array.append a (Array.init (m - n) (fun j -> f (n + j))) in
  t.keys <- extend t.keys (fun _ -> 0);
  t.values <- extend t.values (fun _ -> v);
  t.prev <- extend t.prev (fun _ -> nil);
  t.next <- extend t.next (fun i -> if i + 1 < m then i + 1 else nil);
  t.free <- n

let put t k v =
  match Tbl.find t.table k with
  | i ->
      t.values.(i) <- v;
      promote t i;
      None
  | exception Not_found ->
      let evicted =
        if length t < t.capacity then None
        else
          let e = (t.keys.(t.tail), t.values.(t.tail)) in
          release t t.tail;
          Some e
      in
      if t.free = nil then grow t v;
      let i = t.free in
      t.free <- t.next.(i);
      t.keys.(i) <- k;
      t.values.(i) <- v;
      Tbl.add t.table k i;
      push_front t i;
      evicted

let remove t k = match Tbl.find t.table k with i -> release t i | exception Not_found -> ()

let trim t n ~pinned =
  let rec go i n =
    if n > 0 && i <> nil then
      let p = t.prev.(i) in
      if pinned t.keys.(i) then go p n else (release t i; go p (n - 1))
  in
  go t.tail n

let to_list t =
  let rec go acc i = if i = nil then acc else go ((t.keys.(i), t.values.(i)) :: acc) t.prev.(i) in
  go [] t.tail

let clear t =
  Tbl.reset t.table;
  t.keys <- [||]; t.values <- [||]; t.prev <- [||]; t.next <- [||];
  t.head <- nil; t.tail <- nil; t.free <- nil
