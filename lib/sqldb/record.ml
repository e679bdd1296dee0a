(* Row (de)serialisation: a one-byte type tag per value followed by a
   fixed- or length-prefixed payload. Keys for index B-trees reuse the
   same encoding; their ordering is the lexicographic [Value.compare] of
   the decoded values, computed on the bytes. *)

let put_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let put_i64 b (v : int64) =
  for k = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff))
  done

let encode (values : Value.t list) =
  let b = Buffer.create 64 in
  List.iter
    (fun (v : Value.t) ->
      match v with
      | Value.Null -> Buffer.add_char b '\x00'
      | Value.Int x ->
          Buffer.add_char b '\x01';
          put_i64 b x
      | Value.Real x ->
          Buffer.add_char b '\x02';
          put_i64 b (Int64.bits_of_float x)
      | Value.Text s ->
          Buffer.add_char b '\x03';
          put_u16 b (String.length s);
          Buffer.add_string b s
      | Value.Blob s ->
          Buffer.add_char b '\x04';
          put_u16 b (String.length s);
          Buffer.add_string b s)
    values;
  Buffer.contents b

exception Corrupt of string

(* --- fields, read in place --- *)

(* The offset just past the field at [off] of [b], whose record ends at
   [stop]; raises [Corrupt] when the field is badly tagged or runs past
   [stop]. *)
let field_stop b off stop =
  match Bytes.get b off with
  | '\x00' -> off + 1
  | '\x01' -> if off + 9 > stop then raise (Corrupt "int truncated") else off + 9
  | '\x02' -> if off + 9 > stop then raise (Corrupt "real truncated") else off + 9
  | '\x03' | '\x04' ->
      if off + 3 > stop then raise (Corrupt "string header truncated");
      let e = off + 3 + Bytes.get_uint16_le b (off + 1) in
      if e > stop then raise (Corrupt "string truncated") else e
  | c -> raise (Corrupt (Printf.sprintf "bad tag 0x%02x" (Char.code c)))

(* The value of a field [field_stop] has checked. *)
let field_value b off : Value.t =
  match Bytes.get b off with
  | '\x00' -> Value.Null
  | '\x01' -> Value.Int (Bytes.get_int64_le b (off + 1))
  | '\x02' -> Value.Real (Int64.float_of_bits (Bytes.get_int64_le b (off + 1)))
  | c ->
      let body = Bytes.sub_string b (off + 3) (Bytes.get_uint16_le b (off + 1)) in
      if c = '\x03' then Value.Text body else Value.Blob body

(* The same two over a whole record held in a string. *)
let field_end s off = field_stop (Bytes.unsafe_of_string s) off (String.length s)
let field s off = field_value (Bytes.unsafe_of_string s) off

let rec decode_from s off acc =
  if off >= String.length s then List.rev acc
  else
    let next = field_end s off in
    decode_from s next (field s off :: acc)

let decode s : Value.t list = decode_from s 0 []

(* Checks every field of [s] from [off] on. *)
let rec check_from s off = if off < String.length s then check_from s (field_end s off)

(* --- ordering, on the encoded bytes --- *)

(* Storage class of a checked field's tag, as [Value.storage_class]. *)
let tag_class = function '\x00' -> 0 | '\x01' | '\x02' -> 1 | '\x03' -> 2 | _ -> 3

let rec compare_chars a ai b bi n =
  if n = 0 then 0
  else
    let x = Char.code (Bytes.get a ai) and y = Char.code (Bytes.get b bi) in
    if x <> y then (if x < y then -1 else 1) else compare_chars a (ai + 1) b (bi + 1) (n - 1)

(* [Value.compare] of two checked fields of one storage class. *)
let compare_field cls a ai b bi =
  match cls with
  | 0 -> 0
  | 1 -> (
      let x = Bytes.get_int64_le a (ai + 1) and y = Bytes.get_int64_le b (bi + 1) in
      match (Bytes.get a ai, Bytes.get b bi) with
      | '\x01', '\x01' -> Int64.compare x y
      | '\x02', '\x02' -> Float.compare (Int64.float_of_bits x) (Int64.float_of_bits y)
      | '\x01', _ -> Value.compare_int_real x (Int64.float_of_bits y)
      | _ -> - Value.compare_int_real y (Int64.float_of_bits x))
  | _ ->
      let la = Bytes.get_uint16_le a (ai + 1) and lb = Bytes.get_uint16_le b (bi + 1) in
      let c = compare_chars a (ai + 3) b (bi + 3) (min la lb) in
      if c <> 0 then c else Int.compare la lb

let rec compare_fields a ai astop b bi bstop =
  if ai >= astop then if bi >= bstop then 0 else -1
  else if bi >= bstop then 1
  else
    let anext = field_stop a ai astop and bnext = field_stop b bi bstop in
    let ca = tag_class (Bytes.get a ai) and cb = tag_class (Bytes.get b bi) in
    if ca <> cb then Int.compare ca cb
    else
      let c = compare_field ca a ai b bi in
      if c <> 0 then c else compare_fields a anext astop b bnext bstop

(* The ordering of the record stored at [b.[off .. off + len)] against
   the record [key]: the lexicographic [Value.compare] of their decoded
   lists, walked field by field without decoding or allocating. Raises
   [Corrupt] on a malformed field it reaches. *)
let compare_sub b off len key =
  compare_fields b off (off + len) (Bytes.unsafe_of_string key) 0 (String.length key)

(* The same ordering of two whole records. *)
let compare_encoded a b = compare_sub (Bytes.unsafe_of_string a) 0 (String.length a) b
