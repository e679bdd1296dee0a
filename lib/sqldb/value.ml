(* SQL values with SQLite's dynamic-typing semantics: the storage class
   ordering NULL < INTEGER/REAL < TEXT < BLOB, numeric affinity in
   arithmetic, and three-valued logic handled at the expression layer. *)

type t =
  | Null
  | Int of int64
  | Real of float
  | Text of string
  | Blob of string

let storage_class = function
  | Null -> 0
  | Int _ | Real _ -> 1
  | Text _ -> 2
  | Blob _ -> 3

(* [i] against [r], exactly, as SQLite's [sqlite3IntFloatCompare]: a
   real outside the int64 range lies beyond every integer, any other is
   compared by its integer part and then its fraction. NaN sorts below
   every integer, as [Float.compare] puts it below every float. *)
let compare_int_real i r =
  if Float.is_nan r || r < -0x1p63 then 1
  else if r >= 0x1p63 then -1
  else
    let c = Int64.compare i (Int64.of_float r) in
    if c <> 0 then c else Float.compare (Int64.to_float i) r

let compare a b =
  let ca = storage_class a and cb = storage_class b in
  if ca <> cb then Stdlib.compare ca cb
  else
    match (a, b) with
    | Null, Null -> 0
    | Int x, Int y -> Int64.compare x y
    | Real x, Real y -> Float.compare x y
    | Int x, Real y -> compare_int_real x y
    | Real x, Int y -> - compare_int_real y x
    | Text x, Text y -> String.compare x y
    | Blob x, Blob y -> String.compare x y
    | _ -> assert false

let equal a b = compare a b = 0

let is_null = function Null -> true | _ -> false

(* Truthiness for WHERE: NULL and 0 are false. *)
let to_bool = function
  | Null -> false
  | Int v -> v <> 0L
  | Real v -> v <> 0.
  | Text s -> ( match float_of_string_opt s with Some f -> f <> 0. | None -> false)
  | Blob _ -> false

let of_bool b = Int (if b then 1L else 0L)

(* Numeric coercion for arithmetic. *)
let to_num = function
  | Int v -> `Int v
  | Real v -> `Real v
  | Text s -> (
      match Int64.of_string_opt s with
      | Some v -> `Int v
      | None -> (
          match float_of_string_opt s with Some f -> `Real f | None -> `Int 0L))
  | Null -> `Null
  | Blob _ -> `Int 0L

let arith fi fr a b =
  match (to_num a, to_num b) with
  | `Null, _ | _, `Null -> Null
  | `Int x, `Int y -> fi x y
  | `Int x, `Real y -> fr (Int64.to_float x) y
  | `Real x, `Int y -> fr x (Int64.to_float y)
  | `Real x, `Real y -> fr x y

let add = arith (fun x y -> Int (Int64.add x y)) (fun x y -> Real (x +. y))
let sub = arith (fun x y -> Int (Int64.sub x y)) (fun x y -> Real (x -. y))
let mul = arith (fun x y -> Int (Int64.mul x y)) (fun x y -> Real (x *. y))

let div a b =
  arith
    (fun x y -> if y = 0L then Null else Int (Int64.div x y))
    (fun x y -> if y = 0. then Null else Real (x /. y))
    a b

let rem a b =
  arith
    (fun x y -> if y = 0L then Null else Int (Int64.rem x y))
    (fun x y -> if y = 0. then Null else Real (Float.rem x y))
    a b

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ ->
      let s = function
        | Text s | Blob s -> s
        | Int v -> Int64.to_string v
        | Real v -> Printf.sprintf "%g" v
        | Null -> ""
      in
      Text (s a ^ s b)

let to_string = function
  | Null -> "NULL"
  | Int v -> Int64.to_string v
  | Real v -> Printf.sprintf "%g" v
  | Text s -> s
  | Blob s -> "x'" ^ Twine_crypto.Hexcodec.encode s ^ "'"

let to_int64 = function
  | Int v -> v
  | Real v -> Int64.of_float v
  | Text s -> ( match Int64.of_string_opt s with Some v -> v | None -> 0L)
  | Null | Blob _ -> 0L

(* SQL LIKE with % and _ wildcards (case-insensitive, as SQLite). *)
let like ~pattern s =
  let p = String.lowercase_ascii pattern and s = String.lowercase_ascii s in
  let np = String.length p and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match p.[pi] with
      | '%' ->
          let rec try_at k = k <= ns && (go (pi + 1) k || try_at (k + 1)) in
          try_at si
      | '_' -> si < ns && go (pi + 1) (si + 1)
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0
